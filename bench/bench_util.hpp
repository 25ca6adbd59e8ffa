// Shared scaffolding for the experiment harnesses (E1-E19).
//
// Each experiment reproduces one claim of the paper's evaluation
// (DESIGN.md §3 maps claims to experiments) and registers itself with
// the benchkit registry via TFR_BENCH_EXPERIMENT; the `tfr_bench` driver
// runs the selected tier in parallel workers, prints the aligned tables
// plus the machine-greppable "EXPECT …: PASS|FAIL" / "METRIC <name> =
// <value>[ <unit>]" lines, and emits the structured BENCH_*.json report
// (docs/BENCHMARKS.md documents the schema and workflows).
//
// Expect/metric state lives in the per-experiment benchkit::Recorder the
// registry passes to every run function (`rec` inside the macro body) —
// there is no process-global failure counter, so experiments are free to
// run concurrently in one process (and do run concurrently as forked
// workers).  EXPERIMENTS.md records paper-vs-measured for every table;
// its metric blocks are generated from bench/baseline.json by
// scripts/gen_experiments.py.

#pragma once

#include <cstdint>
#include <string>

#include "tfr/benchkit/recorder.hpp"
#include "tfr/benchkit/registry.hpp"
#include "tfr/common/stats.hpp"
#include "tfr/common/table.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/obs/metrics.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::bench {

using benchkit::Recorder;
using benchkit::Tier;

/// Records the standard derived quantities of a recorded trace under
/// `prefix` (fast-path hit rate, per-run RMR, convergence after failures
/// in Δ units when `delta` > 0).  Metric names are experiment-relative;
/// the report qualifies them with the experiment id.
inline void trace_metrics(Recorder& rec, const std::string& prefix,
                          const obs::TraceMetrics& m,
                          std::int64_t delta = 0) {
  rec.metric(prefix + ".accesses", static_cast<double>(m.reads + m.writes));
  rec.metric(prefix + ".rmr", static_cast<double>(m.rmr));
  rec.metric(prefix + ".delays", static_cast<double>(m.delays));
  if (m.decides > 0) {
    rec.metric(prefix + ".decides", static_cast<double>(m.decides));
    rec.metric(prefix + ".fast_path_hit_rate", m.fast_path_hit_rate());
    rec.metric(prefix + ".max_round", static_cast<double>(m.max_round));
  }
  if (m.timing_failures > 0)
    rec.metric(prefix + ".timing_failures",
               static_cast<double>(m.timing_failures));
  if (m.violations > 0)
    rec.metric(prefix + ".violations", static_cast<double>(m.violations));
  if (delta > 0 && m.timing_failures > 0 && m.last_decision >= 0)
    rec.metric(prefix + ".convergence_after_failures",
               m.convergence_after_failures_in_delta(delta), "delta");
}

/// The hardened retry discipline of E19–E22: ABD ack windows and client
/// backoff in units of the per-channel access cost bound `step`.  Callers
/// change only what differs (an adaptive first window, a pessimistic one).
inline msg::RetryPolicy hardened_retry(sim::Duration step) {
  return {.timeout = 40 * step,
          .timeout_growth = 2.0,
          .max_timeout = 320 * step,
          .backoff = 2 * step,
          .backoff_growth = 2.0,
          .max_backoff = 40 * step,
          .jitter = step,
          .poll_every = 5};
}

/// Formats a Samples summary as "mean (min..max)" in the given unit.
inline std::string summarize(const Samples& samples, double unit = 1.0,
                             int precision = 2) {
  if (samples.empty()) return "-";
  return Table::fmt(samples.mean() / unit, precision) + " (" +
         Table::fmt(samples.min() / unit, precision) + ".." +
         Table::fmt(samples.max() / unit, precision) + ")";
}

}  // namespace tfr::bench
