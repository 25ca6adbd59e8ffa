// E18 — systematic exploration at a glance: throughput of the mcheck
// engine, its partial-order reduction (source-set DPOR over sleep sets),
// the work-sharing parallel mode, and the real-thread scenarios explored
// through the atomic interposition seam.
//
// Workload: the mcheck::catalog() entries for the flagship small
// configurations (Algorithm 1 n=2 round bound 2, bare Fischer n=2,
// Algorithm 3 n=2), each explored with the default source-set DPOR and
// the entry's own bounds; the consensus scenario additionally with
// naive DFS to measure the pruning factor, the naive run once more with
// four forked workers (--jobs 4 equivalent) to measure parallel scaling,
// and the four rt checks (real Fischer / Algorithm 3 / AtomicMutex code
// instantiated over ShimAtomics, plus the EventCount torn-epoch
// lost-wakeup hunt).  Series: executions, explored states,
// executions/second, parallel speedup.  Expected shape: DPOR < naive DFS
// on the same (clean) verdict, bare Fischer yields a violation while
// Algorithm 3 does not — through the seam exactly as in the simulator
// transcription
// — the torn epoch loses a wakeup while the documented order does not,
// and the parallel run reproduces the serial counters exactly (its
// speedup is asserted only on hosts with >= 4 cores; the counters are
// asserted everywhere).  Exploration counters (executions, states,
// sleep_blocked, races, source_pruned) are exactly reproducible and
// baseline-gated with zero tolerance, for the sim and rt rows alike.

#include <chrono>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "tfr/mcheck/catalog.hpp"
#include "tfr/mcheck/explorer.hpp"

using namespace tfr;

namespace {

struct Timed {
  mcheck::CheckResult result;
  double seconds = 0;
};

/// Explores the catalog entry `name` under its own bounds, with the given
/// reduction and worker count.
Timed timed_entry(const char* name,
                  mcheck::Reduction reduction = mcheck::Reduction::kSourceDpor,
                  int jobs = 1) {
  mcheck::NamedCheck check = mcheck::catalog_entry(name);
  check.config.reduction = reduction;
  check.config.jobs = jobs;
  const auto begin = std::chrono::steady_clock::now();
  Timed timed;
  timed.result = mcheck::check(check.scenario, check.config);
  timed.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return timed;
}

double rate(const Timed& timed) {
  return timed.seconds > 0
             ? static_cast<double>(timed.result.stats.executions) /
                   timed.seconds
             : 0.0;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E18, "systematic exploration", bench::Tier::kFull,
                     "mcheck exploration throughput and partial-order "
                     "reduction") {
  const Timed consensus_reduced = timed_entry("consensus-n2");
  const Timed consensus_naive =
      timed_entry("consensus-n2", mcheck::Reduction::kNone);
  const Timed naive_jobs4 =
      timed_entry("consensus-n2", mcheck::Reduction::kNone, /*jobs=*/4);
  const Timed fischer_run = timed_entry("fischer-n2");
  const Timed tfr_run = timed_entry("tfr-mutex-n2");
  const Timed rt_fischer_run = timed_entry("fischer-rt-n2");
  const Timed rt_tfr_run = timed_entry("tfr-mutex-rt-n2");
  const Timed rt_lock_run = timed_entry("atomic-lock-rt-n2");
  const Timed ec_torn_run = timed_entry("eventcount-torn-epoch");
  const Timed ec_fixed_run = timed_entry("eventcount-write-then-advance");

  Table table;
  table.header({"check", "executions", "states", "violation", "exec/s"});
  const auto row = [&table](const char* name, const Timed& timed) {
    table.row({name,
               Table::fmt(static_cast<double>(timed.result.stats.executions), 0),
               Table::fmt(static_cast<double>(timed.result.stats.states), 0),
               timed.result.violation ? "yes" : "no",
               Table::fmt(rate(timed), 0)});
  };
  row("consensus n=2 (source DPOR)", consensus_reduced);
  row("consensus n=2 (naive DFS)", consensus_naive);
  row("naive DFS, 4 workers", naive_jobs4);
  row("fischer n=2 (1 failure)", fischer_run);
  row("tfr-mutex n=2 (1 failure)", tfr_run);
  row("rt fischer n=2 (shim)", rt_fischer_run);
  row("rt tfr-mutex n=2 (shim)", rt_tfr_run);
  row("rt atomic-lock n=2 (shim)", rt_lock_run);
  row("rt eventcount torn (shim)", ec_torn_run);
  row("rt eventcount fixed (shim)", ec_fixed_run);
  table.print(rec.out());

  const double reduction =
      consensus_reduced.result.stats.executions > 0
          ? static_cast<double>(consensus_naive.result.stats.executions) /
                static_cast<double>(consensus_reduced.result.stats.executions)
          : 0.0;
  rec.metric("consensus.executions",
             static_cast<double>(consensus_reduced.result.stats.executions));
  rec.metric("consensus.states",
             static_cast<double>(consensus_reduced.result.stats.states));
  rec.metric("consensus.sleep_blocked",
             static_cast<double>(consensus_reduced.result.stats.sleep_blocked));
  rec.metric("consensus.races",
             static_cast<double>(consensus_reduced.result.stats.races_detected));
  rec.metric("consensus.source_pruned",
             static_cast<double>(consensus_reduced.result.stats.source_pruned));
  rec.metric("consensus.reduction_factor", reduction, "x");
  rec.metric("consensus.exec_per_sec", rate(consensus_reduced), "1/s");
  rec.metric("consensus_naive.executions",
             static_cast<double>(consensus_naive.result.stats.executions));
  rec.metric("fischer.executions_to_violation",
             static_cast<double>(fischer_run.result.stats.executions));
  rec.metric("tfr_mutex.executions",
             static_cast<double>(tfr_run.result.stats.executions));
  rec.metric("rt_fischer.executions_to_violation",
             static_cast<double>(rt_fischer_run.result.stats.executions));
  rec.metric("rt_fischer.races",
             static_cast<double>(rt_fischer_run.result.stats.races_detected));
  rec.metric("rt_tfr_mutex.executions",
             static_cast<double>(rt_tfr_run.result.stats.executions));
  rec.metric("rt_tfr_mutex.states",
             static_cast<double>(rt_tfr_run.result.stats.states));
  rec.metric("rt_atomic_lock.executions",
             static_cast<double>(rt_lock_run.result.stats.executions));
  rec.metric("rt_eventcount_torn.executions",
             static_cast<double>(ec_torn_run.result.stats.executions));
  rec.metric("rt_eventcount_fixed.executions",
             static_cast<double>(ec_fixed_run.result.stats.executions));

  // Parallel scaling is a property of the host (and meaningless on a
  // single core), so the wall-clock series is tracked but never gated.
  const double speedup = naive_jobs4.seconds > 0
                             ? consensus_naive.seconds / naive_jobs4.seconds
                             : 0.0;
  rec.metric("parallel.naive_serial_wall_s", consensus_naive.seconds, "s");
  rec.metric("parallel.naive_jobs4_wall_s", naive_jobs4.seconds, "s");
  rec.metric("parallel.naive_jobs4_speedup", speedup, "x");

  rec.expect(!consensus_reduced.result.violation &&
                 consensus_reduced.result.stats.complete,
             "Algorithm 1 n=2 verifies clean with source-set DPOR");
  rec.expect(!consensus_naive.result.violation &&
                 consensus_naive.result.stats.complete,
             "naive DFS reaches the same clean verdict");
  rec.expect(consensus_reduced.result.stats.executions <
                 consensus_naive.result.stats.executions,
             "the reduction explores strictly fewer executions than naive DFS");
  rec.expect(reduction >= 2.0, "the reduction factor is at least 2x");
  rec.expect(fischer_run.result.violation,
             "bare Fischer yields a mutual-exclusion violation");
  rec.expect(!tfr_run.result.violation && tfr_run.result.stats.complete,
             "Algorithm 3 n=2 verifies clean under the same failure budget");
  rec.expect(rt_fischer_run.result.violation,
             "real-thread Fischer violates through the interposition seam");
  rec.expect(!rt_tfr_run.result.violation && rt_tfr_run.result.stats.complete,
             "real-thread Algorithm 3 verifies clean through the seam");
  rec.expect(!rt_lock_run.result.violation &&
                 rt_lock_run.result.stats.complete,
             "AtomicMutex wait/notify protocol verifies clean through the seam");
  rec.expect(ec_torn_run.result.violation,
             "the torn-epoch EventCount loses a wakeup");
  rec.expect(!ec_fixed_run.result.violation &&
                 ec_fixed_run.result.stats.complete,
             "the documented EventCount publication order verifies clean");
  rec.expect(naive_jobs4.result.stats.executions ==
                     consensus_naive.result.stats.executions &&
                 naive_jobs4.result.stats.states ==
                     consensus_naive.result.stats.states &&
                 naive_jobs4.result.stats.transitions ==
                     consensus_naive.result.stats.transitions &&
                 !naive_jobs4.result.violation &&
                 naive_jobs4.result.stats.complete,
             "4 forked workers reproduce the serial counters exactly");
  if (std::thread::hardware_concurrency() >= 4) {
    rec.expect(speedup >= 2.0,
               "4 workers explore the naive tree at least 2x faster");
  }
}
