// E8 — Theorems 3.2 / 3.3 (the paper's key ablation): Algorithm 3
// converges after timing failures cease iff the inner algorithm A is
// starvation-free.  With A = Lamport's fast mutex (deadlock-free only) a
// legal post-failure schedule can bypass a slow process forever; with A =
// starvation-free(Lamport fast) every post-failure wait is bounded.
//
// Workload: 4 processes; process 0 runs at the legal speed limit (every
// access costs exactly Delta) while the rest are fast; a failure burst
// first pushes several processes past Fischer's filter into A.  The run
// then continues failure-free to a growing horizon.  Series: the longest
// post-burst wait (completed or still pending at the horizon) for each
// instantiation.  Expected shape: starvation-free rows constant in the
// horizon; deadlock-free rows grow linearly with it (the slow process is
// starved for the entire run).
//
// Unlike E6, E7, E9, E15 and E21, this experiment still runs the coroutine
// ports (mutex_sim.hpp), not the shipped rt locks.  On the rt tfr(sf) lock
// the same schedule starves two *fast* processes at the filter for the
// whole horizon, with or without the burst, so the A=sf row reads like the
// A=df row.  Algorithm 3's filter (lines 1-4) is Fischer's, which is not
// starvation-free; whether a per-process wait measures Theorem 3.3 is an
// open item (ROADMAP).

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "tfr/mutex/mutex_sim.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;
using mutex::WorkloadConfig;

namespace {
constexpr sim::Duration kDelta = 100;

sim::Duration post_failure_wait(bool starvation_free, sim::Time horizon,
                                std::uint64_t seed) {
  auto base = std::make_unique<sim::PerProcessTiming>(
      std::vector<sim::Duration>{kDelta, 1, 1, 1}, 1);
  auto injector =
      std::make_unique<sim::FailureInjector>(std::move(base), kDelta);
  const sim::Time failure_end = 40 * kDelta;
  injector->add_window(
      {.begin = 0, .end = failure_end, .stretched = 5 * kDelta});

  sim::Simulation s(std::move(injector), {.seed = seed});
  auto algorithm =
      starvation_free
          ? mutex::make_tfr_mutex_starvation_free(s.space(), 4, kDelta)
          : mutex::make_tfr_mutex_deadlock_free_only(s.space(), 4, kDelta);
  sim::MutexMonitor monitor;
  const WorkloadConfig config{
      .processes = 4, .sessions = 0, .cs_time = 10, .ncs_time = 0};
  for (int i = 0; i < 4; ++i) {
    s.spawn([&, i](sim::Env env) {
      return mutex::mutex_sessions(env, *algorithm, monitor, i, config);
    });
  }
  s.run(horizon);
  return std::max(monitor.max_wait_starting_at(failure_end + 6 * kDelta),
                  monitor.longest_pending_wait(horizon));
}

}  // namespace

TFR_BENCH_EXPERIMENT(E8, "Theorems 3.2/3.3", bench::Tier::kSmoke,
                     "convergence after failures: A deadlock-free "
                     "(Theorem 3.2) vs A starvation-free (Theorem 3.3)") {
  Table table;
  table.header({"horizon / Delta", "post-burst wait / Delta, A=sf",
                "post-burst wait / Delta, A=df"});

  std::vector<double> sf_waits, df_waits, horizons;
  for (const sim::Time horizon_factor : {1000, 2000, 4000, 8000}) {
    const sim::Time horizon = horizon_factor * kDelta;
    double sf_worst = 0, df_worst = 0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      sf_worst = std::max(sf_worst, static_cast<double>(post_failure_wait(
                                        true, horizon, seed)));
      df_worst = std::max(df_worst, static_cast<double>(post_failure_wait(
                                        false, horizon, seed)));
    }
    horizons.push_back(static_cast<double>(horizon_factor));
    sf_waits.push_back(sf_worst / kDelta);
    df_waits.push_back(df_worst / kDelta);
    table.row({Table::fmt(static_cast<long long>(horizon_factor)),
               Table::fmt(sf_worst / kDelta, 1),
               Table::fmt(df_worst / kDelta, 1)});
  }
  table.print(rec.out());

  const double sf_spread = *std::max_element(sf_waits.begin(), sf_waits.end()) -
                           *std::min_element(sf_waits.begin(), sf_waits.end());
  rec.metric("sf.wait.worst", sf_waits.back(), "delta");
  rec.metric("df.wait.at_largest_horizon", df_waits.back(), "delta");
  rec.expect(sf_spread == 0.0,
             "starvation-free wait is horizon-independent (converged)");
  rec.expect(df_waits.back() >= 0.9 * horizons.back(),
             "deadlock-free wait tracks the horizon (starvation: the "
             "slow process never re-enters)");
  rec.expect(df_waits.back() > 10 * sf_waits.back(),
             "deadlock-free inner algorithm is >10x worse at the "
             "largest horizon");
}
