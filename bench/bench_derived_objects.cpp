// E11 — §1.4: consensus as a universal building block.  Cost of the
// derived wait-free objects (leader election, test-and-set, n-renaming,
// universal-construction operations) built from Algorithm 1, with and
// without timing failures.
//
// The objects are the shipped rt sources (derived/derived_rt.hpp) on the
// ShimAtomics policy: each process is a shim thread, and an ordinary
// Simulation times every shared access under E11's TimingModel, so the
// table measures in virtual time the code real threads run.
//
// Series: per-operation shared-memory steps and completion time (Delta
// units), plus registers allocated, as n grows.  Expected shape: costs
// scale with the bit-width of the agreement (elections/TAS ~constant in
// n), renaming ~n slots worst case, and timing failures slow things down
// without ever breaking agreement/uniqueness (safety columns implicit:
// the audits throw on violation, so completing the table is the check).

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <vector>

#include "bench_util.hpp"
#include "tfr/common/contracts.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"

using namespace tfr;

namespace {

using rtshim::Holder;
using Shim = rtshim::ShimAtomics;

constexpr sim::Duration kDelta = 100;
constexpr std::uint64_t kSeeds = 8;

std::unique_ptr<sim::TimingModel> timing(bool failures) {
  if (!failures) return sim::make_uniform_timing(1, kDelta);
  auto injector = std::make_unique<sim::FailureInjector>(
      sim::make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(0.1, 8 * kDelta);
  return injector;
}

struct Measured {
  Samples steps;   ///< per process
  Samples time;    ///< completion time
  std::uint64_t registers = 0;
};

Measured measure(const std::string& object, int n, bool failures) {
  Measured m;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    sim::Simulation s(timing(failures), {.seed = seed});
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), -1);
    const auto at = [&out](int i) -> std::int64_t& {
      return out[static_cast<std::size_t>(i)];
    };
    const auto run = [&s, failures] {
      s.run(failures ? 5'000'000'000 : 500'000'000);
    };

    // Safety audits per object.
    if (object == "election") {
      const auto h = Holder<rt::BasicRtElection<Shim>>::make(s, kDelta);
      h->spawn_each(n, [&at](auto& e, int i) { at(i) = e.elect(i); });
      run();
      TFR_ENSURE(std::set(out.begin(), out.end()).size() == 1);
    } else if (object == "test-and-set") {
      const auto h = Holder<rt::BasicRtTestAndSet<Shim>>::make(s, kDelta);
      h->spawn_each(n, [&at](auto& t, int i) { at(i) = t.test_and_set(i); });
      run();
      TFR_ENSURE(std::count(out.begin(), out.end(), 0) == 1);
    } else if (object == "renaming") {
      const auto h = Holder<rt::BasicRtRenaming<Shim>>::make(s, kDelta, n);
      h->spawn_each(n, [&at](auto& r, int i) { at(i) = r.acquire(i); });
      run();
      TFR_ENSURE(std::set(out.begin(), out.end()).size() ==
                 static_cast<std::size_t>(n));
    } else if (object == "set-consensus(k=2)") {
      const auto h =
          Holder<rt::BasicRtSetConsensus<Shim>>::make(s, kDelta, 2);
      h->spawn_each(n,
                    [&at](auto& sc, int i) { at(i) = sc.propose(i, 100 + i); });
      run();
      TFR_ENSURE(std::set(out.begin(), out.end()).size() <= 2);
    } else if (object == "long-lived-tas") {
      // Each thread holds the bit from its winning test_and_set to its
      // reset's release write; the execution's occupancy probe counts
      // overlaps of those spans (marks take no step and no time).
      const auto h =
          Holder<rt::BasicRtLongLivedTestAndSet<Shim>>::make(s, kDelta, n);
      h->spawn_each(n, [exec = h->exec.get()](auto& tas, int i) {
        for (int session = 0; session < 2; ++session) {
          while (tas.test_and_set(i) != 0) Shim::delay(10);
          exec->mark_enter();
          tas.reset(i);
          exec->mark_exit();
        }
      });
      run();
      TFR_ENSURE(h->exec->me_violations() == 0);
      TFR_ENSURE(h->algo->generations() >= static_cast<std::size_t>(2 * n));
    } else {
      // 2n increments of 1: the log holds each once, and the caller whose
      // increment landed last observed the total.
      const auto h = Holder<rt::BasicRtUniversal<Shim>>::make(
          s, kDelta, n,
          [] { return std::make_unique<derived::CounterReplica>(); });
      h->spawn_each(n, [&at](auto& u, int i) {
        for (int k = 0; k < 2; ++k)
          at(i) = u.invoke(i, derived::CounterReplica::kAdd, 1);
      });
      run();
      TFR_ENSURE(*std::max_element(out.begin(), out.end()) == 2 * n);
      TFR_ENSURE(h->algo->log_length() == static_cast<std::size_t>(2 * n));
    }

    for (int i = 0; i < n; ++i)
      m.steps.add(static_cast<double>(s.stats(i).accesses()));
    m.time.add(static_cast<double>(s.now()));
    m.registers = std::max(m.registers, s.space().allocated());
  }
  return m;
}

}  // namespace

TFR_BENCH_EXPERIMENT(E11, "section 1.4", bench::Tier::kSmoke,
                     "derived wait-free objects built from consensus "
                     "(§1.4)") {
  for (const bool failures : {false, true}) {
    Table table(failures ? "with 10% timing failures" : "without failures");
    table.header({"object", "n", "steps / process (mean)",
                  "completion / Delta (mean)", "registers"});
    for (const auto* object :
         {"election", "test-and-set", "set-consensus(k=2)", "renaming",
          "long-lived-tas", "universal-counter"}) {
      for (const int n : {2, 4, 8}) {
        const auto m = measure(object, n, failures);
        table.row({object, Table::fmt(static_cast<long long>(n)),
                   Table::fmt(m.steps.mean(), 0),
                   Table::fmt(m.time.mean() / kDelta, 1),
                   Table::fmt(static_cast<unsigned long long>(m.registers))});
      }
    }
    table.print(rec.out());
  }

  // Shape checks: election cost ~independent of n; renaming grows with n.
  const auto e2 = measure("election", 2, false);
  const auto e8 = measure("election", 8, false);
  const auto r2 = measure("renaming", 2, false);
  const auto r8 = measure("renaming", 8, false);
  rec.metric("election.steps.n2", e2.steps.mean());
  rec.metric("election.steps.n8", e8.steps.mean());
  rec.metric("renaming.steps.n2", r2.steps.mean());
  rec.metric("renaming.steps.n8", r8.steps.mean());
  rec.expect(e8.steps.mean() < 3 * e2.steps.mean(),
             "election cost roughly independent of n "
             "(bit-width bound, not participant bound)");
  rec.expect(r8.steps.mean() > 2 * r2.steps.mean(),
             "renaming cost grows with n (up to n slots contested)");
  rec.expect(true, "all safety audits passed (monitors/ENSUREs held)");
}
