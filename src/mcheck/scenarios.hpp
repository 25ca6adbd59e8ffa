// Ready-made mcheck scenarios for the paper's algorithms.
//
// Each factory returns a CheckScenario that builds the algorithm and its
// monitor inside the fresh per-execution Simulation, spawns the
// processes, and hands the explorer a cutoff plus a safety verdict wired
// to the existing monitors (DecisionMonitor, MutexMonitor) with
// throw_on_violation(false) — the verdict, not an exception, reports
// violations so the explorer can emit a replayable counterexample.

#pragma once

#include <cstddef>
#include <vector>

#include "tfr/mcheck/explorer.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::mcheck {

/// Algorithm 1 (binary consensus).  Safety — agreement and validity — is
/// checked on every explored execution, truncated or not.  The liveness
/// claim is the round cutoff itself: a failure-free execution that is
/// still undecided when some process enters round `round_cutoff` is
/// reported as a violation (Theorem 2.2's bounded termination); runs
/// with an injected timing failure may legitimately need more rounds and
/// are merely truncated there.
struct ConsensusScenarioConfig {
  std::vector<int> inputs{0, 1};
  /// The bound Δ the algorithm's delay statements assume.
  sim::Duration delta = 2;
  /// Stop an execution once any process enters this round.
  std::size_t round_cutoff = 2;
};

CheckScenario make_consensus_scenario(ConsensusScenarioConfig config = {});

/// Mutual exclusion under exploration: n session loops (one CS each by
/// default) over a chosen algorithm, with the MutexMonitor's
/// mutual-exclusion invariant as the safety predicate.
struct MutexScenarioConfig {
  enum class Algorithm {
    kFischer,              ///< Algorithm 2 alone: ME breaks under failures
    kTfrStarvationFree,    ///< Algorithm 3 over starvation-free A
    kTfrDeadlockFreeOnly,  ///< Algorithm 3 over deadlock-free-only A
  };

  Algorithm algorithm = Algorithm::kFischer;
  int processes = 2;
  sim::Duration delta = 2;
  sim::Duration cs_time = 6;  ///< long enough that a late Fischer write
                              ///< overlaps a critical section in progress
  int sessions = 1;

  /// Attach an adversarially mistuned adaptive controller: the Δ estimate
  /// is pinned at 1 tick (the floor) no matter what failure costs the
  /// explorer injects, so every explored delay(Δ) is maximally optimistic.
  /// With kTfrStarvationFree this machine-verifies the tentpole claim that
  /// Algorithm 3's safety is estimate-independent — the filter admits more
  /// processes, but the inner A still excludes them.  With kFischer it
  /// widens the known unsafety (expect violations).
  bool mistuned_controller = false;
};

CheckScenario make_mutex_scenario(MutexScenarioConfig config = {});

/// ABD atomic-register emulation with a crashed minority: n nodes, one
/// server never spawned (its requests are simply never answered), one
/// writer and one reader client issuing a single operation each.  Safety —
/// every explored interleaving of the completed operations must be
/// linearizable against the atomic-register spec — is checked on every
/// execution, truncated or not; executions stop once both clients finish.
/// Interleavings where the read quorum sees uniform tags take the
/// one-round fast read; mixed-tag quorums take the write-back round.
struct AbdScenarioConfig {
  int nodes = 3;
  int crashed_server = 2;  ///< this replica never runs (minority down)
  std::int64_t written = 7;
};

CheckScenario make_abd_scenario(AbdScenarioConfig config = {});

}  // namespace tfr::mcheck
