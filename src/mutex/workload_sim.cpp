#include "tfr/mutex/workload_sim.hpp"

#include <utility>

#include "tfr/common/contracts.hpp"
#include "tfr/rt/shim/rt_exec.hpp"

namespace tfr::mutex {

sim::Process mutex_sessions(sim::Env env, SimMutex& algorithm,
                            sim::MutexMonitor& mon, int id,
                            WorkloadConfig config) {
  for (int s = 0; config.sessions <= 0 || s < config.sessions; ++s) {
    if (config.ncs_time > 0) {
      const sim::Duration ncs =
          config.randomize_ncs ? env.rng().uniform(0, config.ncs_time)
                               : config.ncs_time;
      if (ncs > 0) co_await env.delay(ncs);
    }
    mon.enter_entry(id, env.now());
    co_await algorithm.enter(env, id);
    mon.enter_cs(id, env.now());
    if (config.cs_time > 0) co_await env.delay(config.cs_time);
    mon.exit_cs(id, env.now());
    co_await algorithm.exit(env, id);
    mon.leave_exit(id, env.now());
  }
}

std::unique_ptr<ShimLock> make_shim_lock(std::string_view name, int n,
                                         sim::Duration delta) {
  using Atomics = rtshim::ShimAtomics;
  const auto lamport = [n] {
    return std::make_unique<rt::BasicLamportFastRt<Atomics>>(n);
  };
  if (name == "fischer")
    return std::make_unique<rt::BasicFischerRt<Atomics>>(delta);
  if (name == "lamport-fast") return lamport();
  if (name == "bakery") return std::make_unique<rt::BasicBakeryRt<Atomics>>(n);
  if (name == "bw-bakery")
    return std::make_unique<rt::BasicBlackWhiteBakeryRt<Atomics>>(n);
  if (name == "starvation-free")
    return std::make_unique<rt::BasicStarvationFreeRt<Atomics>>(n, lamport());
  if (name == "tfr(sf)") return rt::make_basic_tfr_mutex<Atomics>(n, delta);
  TFR_REQUIRE(name == "tfr(df)");
  return std::make_unique<rt::BasicTfrMutexRt<Atomics>>(delta, lamport());
}

WorkloadResult run_mutex_workload(
    const std::function<std::unique_ptr<ShimLock>()>& make,
    WorkloadConfig config, std::unique_ptr<sim::TimingModel> timing,
    std::uint64_t seed, sim::Time limit, obs::TraceSink* sink) {
  TFR_REQUIRE(config.processes >= 1);
  sim::Simulation simulation(std::move(timing), {.seed = seed, .sink = sink});
  struct Run {
    std::unique_ptr<ShimLock> lock;
    sim::MutexMonitor monitor;
  };
  // Declared after the simulation, so the run is torn down (unwinding any
  // thread still live at the limit) while the simulation is alive.
  const auto holder = rtshim::Holder<Run>::make(simulation);
  Run& run = *holder->algo;
  run.lock = make();
  TFR_REQUIRE(run.lock != nullptr);
  run.monitor.set_trace_sink(sink);
  run.monitor.throw_on_violation(!config.tolerate_violations);

  // Each shim thread reports its transitions at sim.now(): the instant its
  // latest shared access (or delay) linearized, as a coroutine process
  // would see it on resumption.
  holder->spawn_each(config.processes, [sim = &simulation, config](Run& r,
                                                                   int id) {
    for (int s = 0; config.sessions <= 0 || s < config.sessions; ++s) {
      if (config.ncs_time > 0) {
        const sim::Duration ncs = config.randomize_ncs
                                      ? sim->rng().uniform(0, config.ncs_time)
                                      : config.ncs_time;
        if (ncs > 0) rtshim::ShimAtomics::delay(ncs);
      }
      r.monitor.enter_entry(id, sim->now());
      r.lock->lock(id);
      r.monitor.enter_cs(id, sim->now());
      if (config.cs_time > 0) rtshim::ShimAtomics::delay(config.cs_time);
      r.monitor.exit_cs(id, sim->now());
      r.lock->unlock(id);
      r.monitor.leave_exit(id, sim->now());
    }
  });
  simulation.run(limit);

  WorkloadResult result{.monitor = run.monitor};
  result.violations = run.monitor.mutual_exclusion_violations();
  result.cs_entries = run.monitor.cs_entries();
  result.time_complexity = run.monitor.time_complexity();
  result.max_wait = run.monitor.max_wait();
  result.registers_allocated = simulation.space().allocated();
  for (int i = 0; i < config.processes; ++i)
    result.rmr += simulation.stats(i).rmr;
  result.end_time = simulation.now();
  result.completed = simulation.all_done();
  return result;
}

}  // namespace tfr::mutex
