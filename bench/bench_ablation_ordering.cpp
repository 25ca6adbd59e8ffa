// E13 — design ablation: why Algorithm 1 is written the way it is.
//
// Two plausible-looking simplifications of Algorithm 1, measured against
// the faithful version under identical schedules:
//   (a) y-first: publish/read the round proposal y[r] before raising the
//       flag x[r, v] (lines 2 and 3 swapped).  The flag-first order is the
//       linchpin of the agreement argument — once some process decides v
//       in round r, any v̄-process must raise its flag (visible to the
//       decider) before reading y[r], hence reads y[r] = v.  Swapped, a
//       straggler's late y-write can poison the next round.
//   (b) no-delay: drop line 5's delay(Δ).  Safety is untouched, but the
//       delay is what lets every in-flight y-write land before preferences
//       are re-read; without it rounds keep splitting even on legal
//       schedules and the 15·Δ bound evaporates.
//
// Expected shape: faithful — zero agreement violations, rounds <= 2
// without failures; y-first — agreement violations at a substantial rate
// under timing failures (and zero only when timing holds); no-delay —
// zero violations but a round-count tail even without failures.

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;
using core::AblationVariant;

namespace {
constexpr sim::Duration kDelta = 100;
constexpr std::uint64_t kSeeds = 200;

struct Row {
  std::uint64_t violating_runs = 0;
  std::uint64_t undecided_runs = 0;
  std::size_t worst_rounds = 0;
};

Row sweep(AblationVariant variant, double failure_p) {
  Row row;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::unique_ptr<sim::TimingModel> timing =
        sim::make_uniform_timing(1, kDelta);
    if (failure_p > 0) {
      auto injector = std::make_unique<sim::FailureInjector>(
          std::move(timing), kDelta);
      injector->set_random_failures(failure_p, 10 * kDelta);
      timing = std::move(injector);
    }
    const auto out = core::run_ablation(variant, {0, 1, 0, 1}, kDelta,
                                        std::move(timing), seed, 10'000'000);
    row.violating_runs += (out.agreement_violations > 0);
    row.undecided_runs += !out.all_decided;
    row.worst_rounds = std::max(row.worst_rounds, out.max_round + 1);
  }
  return row;
}

const char* variant_name(AblationVariant v) {
  switch (v) {
    case AblationVariant::kFaithful: return "faithful";
    case AblationVariant::kYFirst: return "y-first (lines 2/3 swapped)";
    default: return "no-delay (line 5 removed)";
  }
}

}  // namespace

TFR_BENCH_EXPERIMENT(E13, "Algorithm 1 design", bench::Tier::kSmoke,
                     "ablating Algorithm 1: flag-first ordering and "
                     "delay(Δ) are load-bearing") {
  Table table;
  table.header({"variant", "failure prob", "runs violating agreement",
                "undecided runs", "worst rounds"});

  Row faithful_clean, faithful_faulty, yfirst_clean, yfirst_faulty,
      nodelay_clean, nodelay_faulty;

  for (const auto variant :
       {AblationVariant::kFaithful, AblationVariant::kYFirst,
        AblationVariant::kNoDelay}) {
    for (const double p : {0.0, 0.15}) {
      const Row row = sweep(variant, p);
      if (variant == AblationVariant::kFaithful)
        (p == 0 ? faithful_clean : faithful_faulty) = row;
      if (variant == AblationVariant::kYFirst)
        (p == 0 ? yfirst_clean : yfirst_faulty) = row;
      if (variant == AblationVariant::kNoDelay)
        (p == 0 ? nodelay_clean : nodelay_faulty) = row;
      table.row({variant_name(variant), Table::fmt(p, 2),
                 Table::fmt(static_cast<unsigned long long>(
                     row.violating_runs)),
                 Table::fmt(static_cast<unsigned long long>(
                     row.undecided_runs)),
                 Table::fmt(static_cast<long long>(row.worst_rounds))});
    }
  }
  table.print(rec.out());

  rec.metric("yfirst.violating_runs.faulty",
             static_cast<double>(yfirst_faulty.violating_runs));
  rec.metric("faithful.worst_rounds.clean",
             static_cast<double>(faithful_clean.worst_rounds));
  rec.metric("nodelay.worst_rounds.clean",
             static_cast<double>(nodelay_clean.worst_rounds));
  rec.expect(faithful_clean.violating_runs == 0 &&
                 faithful_faulty.violating_runs == 0,
             "faithful Algorithm 1 never violates agreement");
  rec.expect(faithful_clean.worst_rounds <= 2,
             "faithful Algorithm 1 uses <= 2 rounds without failures");
  rec.expect(yfirst_faulty.violating_runs > 0,
             "y-first variant loses agreement under timing failures "
             "(the flag-first order is load-bearing)");
  rec.expect(nodelay_clean.violating_runs == 0 &&
                 nodelay_faulty.violating_runs == 0,
             "no-delay variant stays safe (delay is liveness-only)");
  rec.expect(nodelay_clean.worst_rounds > 2,
             "no-delay variant exceeds two rounds even without "
             "failures (the 15 Delta bound is gone)");
}
