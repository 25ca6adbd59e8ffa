// E6 — §3.1 vs §3.3: Fischer's algorithm (Algorithm 2) loses mutual
// exclusion under timing failures; the time-resilient mutex (Algorithm 3)
// never does, under the very same failure injection.
//
// Workload: 4 processes, long critical sections, random per-access timing
// failures with probability p (stretch up to 12 Delta), p swept from 0 to
// 0.2.  Series: mutual-exclusion violations per 1000 CS entries.
// Expected shape: Fischer's violation rate is 0 at p=0 and grows with p;
// Algorithm 3's row is identically 0.
//
// Both locks are the shipped rt templates (mutex_rt.hpp), run as shim
// threads under the simulated timing model (mutex/workload_sim.hpp).

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;
using mutex::WorkloadConfig;

namespace {
constexpr sim::Duration kDelta = 100;
constexpr std::uint64_t kSeeds = 20;

struct Cell {
  std::uint64_t violations = 0;
  std::uint64_t entries = 0;
};

Cell measure(bool fischer, double p) {
  Cell cell;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    std::unique_ptr<sim::TimingModel> timing =
        sim::make_uniform_timing(1, kDelta);
    if (p > 0) {
      auto injector = std::make_unique<sim::FailureInjector>(
          std::move(timing), kDelta);
      injector->set_random_failures(p, 12 * kDelta);
      timing = std::move(injector);
    }
    const auto result = mutex::run_mutex_workload(
        [fischer] {
          return mutex::make_shim_lock(fischer ? "fischer" : "tfr(sf)", 4,
                                       kDelta);
        },
        WorkloadConfig{.processes = 4,
                       .sessions = 25,
                       .cs_time = 10 * kDelta,
                       .ncs_time = 50,
                       .randomize_ncs = true,
                       .tolerate_violations = true},
        std::move(timing), seed, 200'000'000);
    cell.violations += result.violations;
    cell.entries += result.cs_entries;
  }
  return cell;
}

double per_mille(const Cell& cell) {
  return cell.entries == 0
             ? 0.0
             : 1000.0 * static_cast<double>(cell.violations) /
                   static_cast<double>(cell.entries);
}

}  // namespace

TFR_BENCH_EXPERIMENT(E6, "section 3.1/3.3", bench::Tier::kSmoke,
                     "mutual-exclusion violations under timing failures: "
                     "Fischer (Algorithm 2) vs time-resilient "
                     "(Algorithm 3)") {
  Table table;
  table.header({"failure prob p", "fischer violations / 1000 CS",
                "tfr(A=sf) violations / 1000 CS"});

  std::uint64_t fischer_total = 0;
  std::uint64_t tfr_total = 0;
  double fischer_at_zero = -1;
  double fischer_at_max = -1;

  for (const double p : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    const Cell fischer = measure(true, p);
    const Cell resilient = measure(false, p);
    fischer_total += fischer.violations;
    tfr_total += resilient.violations;
    if (p == 0.0) fischer_at_zero = per_mille(fischer);
    fischer_at_max = per_mille(fischer);
    table.row({Table::fmt(p, 2), Table::fmt(per_mille(fischer), 2),
               Table::fmt(per_mille(resilient), 2)});
  }
  table.print(rec.out());

  rec.metric("fischer.violations.total", static_cast<double>(fischer_total));
  rec.metric("fischer.per_mille_at_max_p", fischer_at_max);
  rec.metric("tfr.violations.total", static_cast<double>(tfr_total));
  rec.expect(fischer_at_zero == 0.0,
             "Fischer is safe when timing holds (p=0 row is 0)");
  rec.expect(fischer_total > 0,
             "Fischer violates mutual exclusion under timing failures");
  rec.expect(fischer_at_max > 0,
             "Fischer's violation rate is positive at the highest p");
  rec.expect(tfr_total == 0,
             "Algorithm 3 never violates mutual exclusion "
             "(identically zero across the sweep)");
}
