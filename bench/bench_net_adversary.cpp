// E19 — network fault adversary: degradation and recovery of the hardened
// message layer.  The NetAdversary makes the ABD channels lossy,
// duplicating and reordering; the retry/backoff-hardened clients must ride
// it out.  Claims under test (§4, message-passing extension):
//   * safety is unconditional: every ABD history linearizes at every drop
//     rate, and duplicated acks never fake a quorum;
//   * liveness degrades gracefully: completion time and retry counts grow
//     with the drop rate, but all operations complete (the degradation
//     curve);
//   * the acceptance fault mix (20% drop + 5% duplicate + reorder) leaves
//     both ABD and message consensus fully live with zero violations;
//   * after a partition heals, every stalled operation completes within
//     the convergence monitor's bound.

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/consensus_msg.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;

namespace {

constexpr sim::Duration kStep = 50;  // per-channel-access cost bound

/// The acceptance-criterion fault mix: 20% drop, 5% duplicate, reorder on.
msg::ChannelFaults acceptance_faults() {
  msg::ChannelFaults faults;
  faults.drop = 0.20;
  faults.duplicate = 0.05;
  faults.reorder = 0.25;
  faults.reorder_hold = 4 * kStep;
  return faults;
}

sim::Process workload(sim::Env env, msg::AbdClient& client, int reg,
                      std::int64_t value, int* done, sim::Time* finish) {
  co_await client.write(env, reg, value);
  co_await client.read(env, reg);
  ++*done;
  if (env.now() > *finish) *finish = env.now();
}

struct AbdRun {
  bool all_done = false;
  msg::ConvergenceMonitor::Report report;
  std::uint64_t safety_violations = 0;
  std::uint64_t retries = 0;
  std::uint64_t duplicate_acks = 0;
  std::uint64_t injected = 0;
  sim::Time finish = -1;
};

/// One n=3 ABD run (every node writes then reads one register) under
/// `faults`, optionally with a scheduled partition and convergence bound.
AbdRun run_abd(const msg::ChannelFaults& faults, std::uint64_t net_seed,
               std::uint64_t seed, const msg::Partition* partition = nullptr,
               sim::Duration bound = 0) {
  sim::Simulation s(sim::make_uniform_timing(1, kStep), {.seed = seed});
  const int n = 3;
  msg::Network net(s.space(), 2 * n);
  msg::NetAdversary adversary(net_seed);
  adversary.set_default_faults(faults);
  if (partition != nullptr) adversary.add_partition(*partition);
  adversary.arm(s);
  net.set_adversary(&adversary);
  msg::ConvergenceMonitor monitor;
  monitor.set_adversary(&adversary);
  if (bound > 0) monitor.set_bound(bound);

  int done = 0;
  sim::Time finish = -1;
  std::vector<std::unique_ptr<msg::AbdClient>> clients;
  for (int i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<msg::AbdClient>(
        net, i, n, bench::hardened_retry(kStep)));
    clients.back()->set_monitor(&monitor);
  }
  for (int i = 0; i < n; ++i) {
    s.spawn([&clients, &done, &finish, i](sim::Env env) {
      return workload(env, *clients[static_cast<std::size_t>(i)], 1, 100 + i,
                      &done, &finish);
    });
  }
  for (int i = 0; i < n; ++i) {
    s.spawn(
        [&net, i, n](sim::Env env) { return msg::abd_server(env, net, i, n); });
  }
  s.run(8'000'000'000, [&] { return done == n; });

  AbdRun out;
  out.all_done = done == n;
  out.report = monitor.check();
  out.safety_violations = monitor.safety_violations();
  out.injected = adversary.drops() + adversary.duplicates() +
                 adversary.delays() + adversary.reorders();
  for (const auto& c : clients) {
    out.retries += c->retries();
    out.duplicate_acks += c->duplicate_acks();
  }
  out.finish = finish;
  return out;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E19, "section 4 (network failures)", bench::Tier::kSmoke,
                     "network fault adversary: hardened ABD degrades "
                     "gracefully, converges after partitions, never "
                     "unorders") {
  constexpr std::uint64_t kSeeds = 6;

  // (a) degradation curve: completion time and retries vs drop rate.
  Table curve("ABD degradation vs drop rate (n = 3, per-node write+read)");
  curve.header({"drop %", "completed", "linearizable",
                "finish time / step (mean, min..max)", "retries (total)"});
  bool curve_all_done = true;
  bool curve_linearizable = true;
  std::uint64_t curve_violations = 0;
  double retries_at_zero = 0;
  double retries_at_thirty = 0;
  double finish_at_zero = 0;
  double finish_at_thirty = 0;
  for (const int drop_pct : {0, 5, 10, 20, 30}) {
    msg::ChannelFaults faults;
    faults.drop = drop_pct / 100.0;
    Samples finishes;
    std::uint64_t retries = 0;
    bool done = true;
    bool linearizable = true;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      const AbdRun r = run_abd(faults, /*net_seed=*/7 + seed, seed);
      done &= r.all_done;
      linearizable &= r.report.linearizable;
      curve_violations += r.safety_violations;
      retries += r.retries;
      if (r.finish >= 0) finishes.add(static_cast<double>(r.finish));
    }
    curve_all_done &= done;
    curve_linearizable &= linearizable;
    if (drop_pct == 0) {
      retries_at_zero = static_cast<double>(retries);
      finish_at_zero = finishes.mean();
    }
    if (drop_pct == 30) {
      retries_at_thirty = static_cast<double>(retries);
      finish_at_thirty = finishes.mean();
    }
    curve.row({Table::fmt(static_cast<long long>(drop_pct)),
               done ? "yes" : "NO", linearizable ? "yes" : "NO",
               bench::summarize(finishes, static_cast<double>(kStep)),
               Table::fmt(static_cast<unsigned long long>(retries))});
  }
  curve.print(rec.out());
  rec.metric("curve.retries.drop0", retries_at_zero);
  rec.metric("curve.retries.drop30", retries_at_thirty);
  rec.metric("curve.finish_steps.drop0", finish_at_zero / kStep);
  rec.metric("curve.finish_steps.drop30", finish_at_thirty / kStep);
  rec.metric("curve.safety_violations", static_cast<double>(curve_violations));
  rec.expect(curve_all_done,
             "every operation completes at every drop rate up to 30%");
  rec.expect(curve_linearizable && curve_violations == 0,
             "safety is drop-rate independent (all histories linearize)");
  rec.expect(retries_at_zero == 0,
             "a reliable network needs no retries (hardening is free)");
  rec.expect(retries_at_thirty > 0 && finish_at_thirty > finish_at_zero,
             "losses cost retries and time, never correctness "
             "(graceful degradation)");

  // (b) the acceptance fault mix: ABD and message consensus stay live.
  std::uint64_t mix_violations = 0;
  std::uint64_t mix_duplicate_acks = 0;
  std::uint64_t mix_injected = 0;
  bool mix_all_done = true;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const AbdRun r = run_abd(acceptance_faults(), /*net_seed=*/40 + seed,
                             seed);
    mix_all_done &= r.all_done && r.report.linearizable;
    mix_violations += r.safety_violations;
    mix_duplicate_acks += r.duplicate_acks;
    mix_injected += r.injected;
  }
  bool consensus_all_decided = true;
  std::uint64_t consensus_violations = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    sim::Simulation s(sim::make_uniform_timing(1, kStep), {.seed = seed});
    const int n = 3;
    msg::Network net(s.space(), 2 * n);
    msg::NetAdversary adversary(60 + seed);
    adversary.set_default_faults(acceptance_faults());
    net.set_adversary(&adversary);
    msg::MsgConsensus consensus(net, n, 60 * kStep, /*reg_base=*/0,
                                bench::hardened_retry(kStep));
    consensus.monitor().throw_on_violation(false);
    for (int i = 0; i < n; ++i) {
      consensus.monitor().set_input(i, i % 2);
      s.spawn([&consensus, i](sim::Env env) {
        return consensus.participant(env, i, i % 2);
      });
    }
    for (int i = 0; i < n; ++i) {
      s.spawn([&net, i, n](sim::Env env) {
        return msg::abd_server(env, net, i, n);
      });
    }
    s.run(8'000'000'000, [&] {
      return consensus.monitor().decided_count() == static_cast<std::size_t>(n);
    });
    consensus_all_decided &= consensus.monitor().all_decided(n);
    consensus_violations += consensus.monitor().agreement_violations() +
                            consensus.monitor().validity_violations();
  }
  Table mix("acceptance fault mix: 20% drop + 5% duplicate + 25% reorder");
  mix.header({"workload", "completed", "violations", "faults injected"});
  mix.row({"ABD write+read (6 seeds)", mix_all_done ? "yes" : "NO",
           Table::fmt(static_cast<unsigned long long>(mix_violations)),
           Table::fmt(static_cast<unsigned long long>(mix_injected))});
  mix.row({"consensus n=3 (3 seeds)", consensus_all_decided ? "yes" : "NO",
           Table::fmt(static_cast<unsigned long long>(consensus_violations)),
           "-"});
  mix.print(rec.out());
  rec.metric("mix.safety_violations",
             static_cast<double>(mix_violations + consensus_violations));
  rec.metric("mix.duplicate_acks_suppressed",
             static_cast<double>(mix_duplicate_acks));
  rec.expect(mix_all_done && mix_violations == 0,
             "ABD completes all operations safely under the acceptance mix");
  rec.expect(consensus_all_decided && consensus_violations == 0,
             "message consensus decides safely under the acceptance mix");

  // (c) partition heal: stalled operations converge within the bound.
  bool heal_ok = true;
  bool heal_retried = false;
  double worst_lag_steps = 0;
  const sim::Time heal = 2'000 * kStep;
  const sim::Duration bound = 1'000 * kStep;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    msg::Partition partition;
    partition.begin = 0;
    partition.heal = heal;
    partition.group = {0, 3 + 0};  // node 0's client+server endpoints
    const AbdRun r = run_abd({}, /*net_seed=*/21, seed, &partition, bound);
    heal_ok &= r.all_done && r.report.ok() && r.report.anchor >= heal;
    heal_retried |= r.retries > 0;
    if (r.report.worst_lag / static_cast<double>(kStep) > worst_lag_steps)
      worst_lag_steps = r.report.worst_lag / static_cast<double>(kStep);
  }
  Table part("partition heal (node 0 cut for 2000 steps, bound 1000 steps)");
  part.header({"converged within bound", "worst lag / step"});
  part.row({heal_ok ? "yes" : "NO", Table::fmt(worst_lag_steps, 2)});
  part.print(rec.out());
  rec.metric("heal.worst_lag_steps", worst_lag_steps);
  rec.expect(heal_ok,
             "after the heal every stalled operation completes within the "
             "convergence bound");
  rec.expect(heal_retried,
             "the partitioned node had to retry (the cut was real)");
}
