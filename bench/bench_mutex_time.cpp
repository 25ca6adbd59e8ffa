// E7 — §3 efficiency: in the absence of timing failures Algorithm 3 has
// O(Delta) time complexity (the paper's metric: the longest interval with
// someone in entry code while the CS is empty), independent of n, while
// purely asynchronous starvation-free algorithms pay Θ(n·Delta).
//
// Workload: n processes cycling through short critical sections under
// lockstep timing at Delta (the adversary's slowest legal schedule), n and
// Delta swept.  Series: time complexity / Delta, and the solo entry
// latency / Delta.  Expected shape: tfr rows flat in n (small constant);
// bakery rows grow ~linearly with n; everything scales linearly in Delta
// (the /Delta column is Delta-invariant).
//
// Every lock is the shipped rt template (mutex_rt.hpp) run as shim threads
// under the timing model (mutex/workload_sim.hpp).  Its await loops park on
// an EventCount, and each await loads the epoch before testing its
// predicate: one step more per await than the paper's pseudocode.

#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;
using mutex::WorkloadConfig;

namespace {

double solo_entry_latency(const std::string& name, int n,
                          sim::Duration delta) {
  const auto result = mutex::run_mutex_workload(
      [&] { return mutex::make_shim_lock(name, n, delta); },
      WorkloadConfig{.processes = 1, .sessions = 3, .cs_time = 1,
                     .ncs_time = 1},
      sim::make_fixed_timing(delta), 1, 1'000'000'000);
  return static_cast<double>(result.max_wait) / static_cast<double>(delta);
}

double contended_time_complexity(const std::string& name, int n,
                                 sim::Duration delta, std::uint64_t seed) {
  const auto result = mutex::run_mutex_workload(
      [&] { return mutex::make_shim_lock(name, n, delta); },
      WorkloadConfig{.processes = n, .sessions = 6, .cs_time = delta,
                     .ncs_time = delta, .randomize_ncs = true},
      sim::make_fixed_timing(delta), seed, 1'000'000'000);
  return static_cast<double>(result.time_complexity) /
         static_cast<double>(delta);
}

}  // namespace

TFR_BENCH_EXPERIMENT(E7, "section 3 efficiency", bench::Tier::kSmoke,
                     "time complexity without failures: O(Delta) for "
                     "Algorithm 3 vs Θ(n·Delta) for asynchronous "
                     "baselines") {
  const char* names[] = {"tfr(sf)", "fischer", "bakery", "bw-bakery"};

  Table solo("solo entry latency (time units of Delta), Delta = 100");
  solo.header({"algorithm", "n=2", "n=8", "n=32", "n=128"});
  double tfr_n2 = 0, tfr_n128 = 0, bakery_n2 = 0, bakery_n128 = 0;
  for (const auto* name : names) {
    std::vector<std::string> row{name};
    for (const int n : {2, 8, 32, 128}) {
      const double latency = solo_entry_latency(name, n, 100);
      row.push_back(Table::fmt(latency, 1));
      if (std::string(name) == "tfr(sf)") {
        if (n == 2) tfr_n2 = latency;
        if (n == 128) tfr_n128 = latency;
      }
      if (std::string(name) == "bakery") {
        if (n == 2) bakery_n2 = latency;
        if (n == 128) bakery_n128 = latency;
      }
    }
    solo.row(std::move(row));
  }
  solo.print(rec.out());

  Table contended("contended time complexity / Delta (worst over seeds)");
  contended.header({"algorithm", "Delta", "n=2", "n=4", "n=8", "n=16"});
  double tfr_worst_any_n = 0;
  double bakery_n16_best_delta = 1e18;
  for (const auto* name : names) {
    for (const sim::Duration delta : {10, 100, 1000}) {
      std::vector<std::string> row{name, Table::fmt(static_cast<long long>(delta))};
      for (const int n : {2, 4, 8, 16}) {
        double worst = 0;
        for (std::uint64_t seed = 0; seed < 5; ++seed)
          worst = std::max(worst,
                           contended_time_complexity(name, n, delta, seed));
        row.push_back(Table::fmt(worst, 1));
        if (std::string(name) == "tfr(sf)")
          tfr_worst_any_n = std::max(tfr_worst_any_n, worst);
        if (std::string(name) == "bakery" && n == 16)
          bakery_n16_best_delta = std::min(bakery_n16_best_delta, worst);
      }
      contended.row(std::move(row));
    }
  }
  contended.print(rec.out());

  rec.metric("tfr.solo_latency.n2", tfr_n2, "delta");
  rec.metric("tfr.solo_latency.n128", tfr_n128, "delta");
  rec.metric("bakery.solo_latency.n2", bakery_n2, "delta");
  rec.metric("bakery.solo_latency.n128", bakery_n128, "delta");
  rec.metric("tfr.contended.worst", tfr_worst_any_n, "delta");
  rec.metric("bakery.contended.n16_best", bakery_n16_best_delta, "delta");
  rec.expect(tfr_n128 == tfr_n2, "Algorithm 3 solo latency independent of n");
  // The solo entry path of the shipped tfr(sf) lock, one Delta per step
  // (a later session, when the doorway's turn names another process):
  //   filter   epoch load, read x, write x, delay(Delta), read x     5
  //   doorway  write flag[i], epoch load, read turn, read flag[turn] 4
  //   Lamport  write b[i], write x, read y, write y, read x          5
  // Each await of an rt lock loads its EventCount epoch before it tests
  // the predicate, hence two more steps than the 12 of the paper's path.
  rec.expect(tfr_n2 <= 14.0,
             "Algorithm 3 solo latency a small multiple of Delta");
  rec.expect(bakery_n128 >= 10 * bakery_n2,
             "bakery solo latency grows ~linearly with n");
  rec.expect(tfr_worst_any_n <= 40.0,
             "Algorithm 3 contended time complexity stays O(Delta) "
             "(measured max " + Table::fmt(tfr_worst_any_n) + " Delta)");
  rec.expect(bakery_n16_best_delta > tfr_worst_any_n,
             "bakery at n=16 exceeds Algorithm 3's worst cell");
}
