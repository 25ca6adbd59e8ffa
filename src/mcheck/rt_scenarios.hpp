// mcheck scenarios that drive the *real* rt code — the same templated
// sources production compiles against std::atomic — through the atomic
// interposition seam (rt/shim/).  Each factory builds an RtExecution
// inside the fresh per-execution Simulation, spawns the algorithm bodies
// as shim threads, and wires the verdict to the algorithm's safety
// property (critical-section occupancy, consensus agreement and validity)
// plus a parked-at-idle deadlock check (a run that goes idle with threads
// still parked in atomic::wait is exactly a lost wakeup).

#pragma once

#include "tfr/mcheck/explorer.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::mcheck {

/// Mutual exclusion on real-thread lock code under the seam: n shim
/// threads cycling lock → mark_enter → CS dwell → mark_exit → unlock.
struct RtMutexScenarioConfig {
  enum class Algorithm {
    kFischer,            ///< BasicFischerRt: ME breaks under one timing failure
    kTfrStarvationFree,  ///< Algorithm 3 over starvation-free(lamport-fast)
    kAtomicLock,         ///< the futex-class AtomicMutex via its adapter
  };

  Algorithm algorithm = Algorithm::kFischer;
  int threads = 2;
  sim::Duration delta = 2;
  sim::Duration cs_time = 6;  ///< CS dwell; long enough that a late Fischer
                              ///< write lands inside a CS in progress
  int sessions = 1;
};

CheckScenario make_rt_mutex_scenario(RtMutexScenarioConfig config = {});

/// Algorithm 1 on the real-thread source (BasicRtConsensus with a small
/// segment geometry, Δ = 2): two shim threads proposing 0 and 1.  Safety —
/// agreement and validity, via sim::DecisionMonitor — is checked on every
/// execution.  Liveness mirrors consensus-n2's round cutoff: an execution
/// with no injected failure that runs to completion must see every thread
/// decide by round 1 (0-based).
CheckScenario make_rt_consensus_scenario();

/// The derived tower's base, BasicRtMultiConsensus (derived/derived_rt.hpp),
/// on two bits with Δ = 2: two shim threads proposing 0b01 and 0b10, which
/// differ at every bit, so each bit's loser adopts the winner's witness.
/// Agreement and validity (via sim::DecisionMonitor) are checked on every
/// execution.
CheckScenario make_rt_multi_consensus_scenario();

/// The EventCount publication protocol in isolation: one producer sets a
/// register and bumps the epoch, one consumer awaits the register via
/// wait_until_changed.  With `torn_epoch` the producer advances *before*
/// the register write — the classic torn publication whose lost-wakeup
/// interleaving (consumer snapshots the bumped epoch, sees the stale
/// register, parks forever) the checker must find; with the correct
/// write-then-advance order exploration must complete clean.
struct RtEventCountScenarioConfig {
  bool torn_epoch = true;
};

CheckScenario make_rt_eventcount_scenario(
    RtEventCountScenarioConfig config = {});

}  // namespace tfr::mcheck
