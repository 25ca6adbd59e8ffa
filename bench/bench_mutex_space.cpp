// E9 — Theorem 3.1 (space lower bound): any n-process mutual-exclusion
// algorithm that is resilient to timing failures must use at least n
// shared registers.
//
// Audit: count the cells each shipped rt lock (mutex_rt.hpp, built on the
// shim, whose every cell is a simulated register) allocates as n grows,
// against the lower-bound line.  Each lock layer also owns one EventCount
// epoch word — blocking machinery, not an algorithm register — so the
// table reports cells and EventCount words apart, and the bound applies
// to their difference.  Expected shape: Algorithm 3
// instantiations sit at Θ(n) (>= n, within a small constant factor);
// Fischer alone sits below the line — consistent with the theorem, since
// Fischer alone is *not* resilient to timing failures (see E6).

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/rt/shim/rt_exec.hpp"

using namespace tfr;

namespace {
constexpr sim::Duration kDelta = 100;

struct Cells {
  std::uint64_t total = 0;        ///< shim cells the lock allocates
  std::uint64_t eventcounts = 0;  ///< of which EventCount epoch words
  /// The algorithm's own registers, the quantity Theorem 3.1 bounds.
  std::uint64_t registers() const { return total - eventcounts; }
};

/// Counts the cells of the shipped rt lock `name` built for n processes.
/// Every lock layer owns one EventCount (one epoch word), and name() nests
/// one layer per parenthesis: "tfr(starvation-free(lamport-fast))".
Cells cells_for(const char* name, int n) {
  sim::Simulation simulation(sim::make_fixed_timing(1));
  rtshim::RtExecution exec(simulation);
  const auto lock = mutex::make_shim_lock(name, n, kDelta);
  const std::string nested = lock->name();
  const auto layers = std::count(nested.begin(), nested.end(), '(') + 1;
  return {simulation.space().allocated(), static_cast<std::uint64_t>(layers)};
}

}  // namespace

TFR_BENCH_EXPERIMENT(E9, "Theorem 3.1", bench::Tier::kSmoke,
                     "register counts vs the Theorem 3.1 lower bound "
                     "(n registers for n processes)") {
  const char* names[] = {"tfr(sf)", "tfr(df)", "bakery", "bw-bakery",
                         "fischer"};
  const int sizes[] = {2, 4, 8, 16, 32, 64};
  Table table("shim cells per lock (algorithm registers = cells - "
              "EventCount words)");
  table.header({"algorithm", "EventCount words", "cells n=2", "n=4", "n=8",
                "n=16", "n=32", "n=64"});
  std::vector<std::string> bound{"lower bound (registers)", "-"};
  for (const int n : sizes)
    bound.push_back(Table::fmt(static_cast<long long>(n)));
  table.row(std::move(bound));

  bool resilient_meet_bound = true;
  bool resilient_linear = true;
  std::uint64_t sf_n64 = 0;
  std::uint64_t fischer_n64 = 0;
  for (const char* name : names) {
    const std::string which(name);
    std::vector<std::string> row{which, ""};
    for (const int n : sizes) {
      const Cells cells = cells_for(name, n);
      const std::uint64_t regs = cells.registers();
      if (which == "tfr(sf)" || which == "tfr(df)")
        resilient_meet_bound &= regs >= static_cast<std::uint64_t>(n);
      if (which == "tfr(sf)")
        resilient_linear &= regs <= static_cast<std::uint64_t>(3 * n + 8);
      if (n == 64 && which == "tfr(sf)") sf_n64 = regs;
      if (n == 64 && which == "fischer") fischer_n64 = regs;
      row[1] = Table::fmt(static_cast<unsigned long long>(cells.eventcounts));
      row.push_back(Table::fmt(static_cast<unsigned long long>(cells.total)));
    }
    if (which == "fischer") row[0] = "fischer (not resilient)";
    table.row(std::move(row));
  }
  table.print(rec.out());

  rec.metric("tfr_sf.registers.n64", static_cast<double>(sf_n64));
  rec.metric("fischer.registers.n64", static_cast<double>(fischer_n64));
  rec.expect(resilient_meet_bound,
             "time-resilient algorithms allocate >= n registers "
             "(Theorem 3.1 lower bound respected)");
  rec.expect(resilient_linear,
             "Algorithm 3 (A = starvation-free) stays within 3n + 8 "
             "registers: the bound is asymptotically tight");
  rec.expect(fischer_n64 == 1,
             "Fischer alone uses one register — and is exactly the "
             "algorithm that is NOT resilient (cf. E6)");
}
