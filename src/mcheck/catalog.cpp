#include "tfr/mcheck/catalog.hpp"

#include <algorithm>
#include <utility>

#include "tfr/common/contracts.hpp"
#include "tfr/mcheck/rt_scenarios.hpp"
#include "tfr/mcheck/scenarios.hpp"

namespace tfr::mcheck {

namespace {

/// Δ = 2 makes the cost menu {1, Δ} cover every legal integer cost, so
/// each check is exhaustive over legal timings within the slow budget.
ExploreConfig base_config() {
  ExploreConfig config;
  config.delta = 2;
  config.failure_cost = 5;
  config.max_failures = 1;
  config.slow_budget = 1;
  return config;
}

/// For checks whose fault is not timing: no failures, no slow accesses.
ExploreConfig untimed_config() {
  ExploreConfig config = base_config();
  config.max_failures = 0;
  config.slow_budget = 0;
  return config;
}

}  // namespace

std::vector<NamedCheck> catalog() {
  using Mutex = MutexScenarioConfig::Algorithm;
  using RtMutex = RtMutexScenarioConfig::Algorithm;
  constexpr CheckGroup kSim = CheckGroup::kSim;
  constexpr CheckGroup kRt = CheckGroup::kRt;

  ExploreConfig full_menu = base_config();
  full_menu.slow_budget = -1;  // few accesses: afford the full menu
  // The crash is the fault under exploration; timing stays minimal so the
  // schedule space (many channel registers) remains tractable.
  ExploreConfig abd = untimed_config();
  abd.max_steps = 600;
  // Two bits chain two binary instances: on top of the timing failure, a
  // Δ-cost access budget multiplies the schedules about 40× (50,497
  // executions, 1.4 s), so the check keeps the failure alone.
  ExploreConfig multi_consensus = base_config();
  multi_consensus.slow_budget = 0;

  return {
      {"consensus-n2", "Algorithm 1, n=2, inputs {0,1}, round bound 2", kSim,
       make_consensus_scenario({}), base_config(), false},
      {"fischer-n2",
       "bare Fischer (Algorithm 2), n=2, one timing failure allowed", kSim,
       make_mutex_scenario({.algorithm = Mutex::kFischer}), full_menu, true},
      {"tfr-mutex-n2",
       "Algorithm 3 over starvation-free A, n=2, one timing failure allowed",
       kSim, make_mutex_scenario({.algorithm = Mutex::kTfrStarvationFree}),
       base_config(), false},
      {"tfr-mutex-mistuned-n2",
       "Algorithm 3 with the adaptive Δ estimate pinned at the floor: "
       "safety must not depend on the estimate",
       kSim,
       make_mutex_scenario({.algorithm = Mutex::kTfrStarvationFree,
                            .mistuned_controller = true}),
       base_config(), false},
      {"abd-n3-minority-down",
       "ABD register, n=3, one server crashed: reads/writes linearize", kSim,
       make_abd_scenario({}), abd, false},
      // The production rt code (mutex_rt.hpp, atomic_mutex.hpp,
      // consensus_rt.hpp, derived_rt.hpp) instantiated with ShimAtomics
      // and driven through the interposition seam: the checker explores
      // the source production runs, not a transcription.
      {"fischer-rt-n2",
       "real-thread Fischer through the shim: one timing failure breaks ME",
       kRt, make_rt_mutex_scenario({.algorithm = RtMutex::kFischer}),
       base_config(), true},
      {"tfr-mutex-rt-n2",
       "real-thread Algorithm 3 (starvation-free A) through the shim", kRt,
       make_rt_mutex_scenario({.algorithm = RtMutex::kTfrStarvationFree}),
       base_config(), false},
      {"atomic-lock-rt-n2",
       "futex-class AtomicMutex through the shim: wait/notify protocol", kRt,
       make_rt_mutex_scenario({.algorithm = RtMutex::kAtomicLock}),
       base_config(), false},
      {"consensus-rt-n2",
       "real-thread Algorithm 1 through the shim, n=2, inputs {0,1}", kRt,
       make_rt_consensus_scenario(), base_config(), false},
      {"multi-consensus-rt-n2",
       "real-thread bitwise multi-valued consensus through the shim, n=2, "
       "2 bits, inputs {0b01,0b10}",
       kRt, make_rt_multi_consensus_scenario(), multi_consensus, false},
      // The lost wakeup is a pure ordering race; no timing failures are
      // needed to find it.
      {"eventcount-torn-epoch",
       "EventCount with advance() before the state write: lost wakeup", kRt,
       make_rt_eventcount_scenario({.torn_epoch = true}), untimed_config(),
       true},
      {"eventcount-write-then-advance",
       "EventCount with the documented publication order: no lost wakeup",
       kRt, make_rt_eventcount_scenario({.torn_epoch = false}),
       untimed_config(), false},
  };
}

NamedCheck catalog_entry(std::string_view name) {
  std::vector<NamedCheck> checks = catalog();
  const auto it = std::find_if(
      checks.begin(), checks.end(),
      [name](const NamedCheck& check) { return check.name == name; });
  TFR_REQUIRE(it != checks.end());
  return std::move(*it);
}

}  // namespace tfr::mcheck
