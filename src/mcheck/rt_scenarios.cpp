#include "tfr/mcheck/rt_scenarios.hpp"

#include <cstdint>
#include <memory>
#include <utility>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/mutex/lock_adapters.hpp"
#include "tfr/mutex/mutex_rt.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/rt/atomic_mutex.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/monitor.hpp"

namespace tfr::mcheck {

namespace {

using ShimAtomics = rtshim::ShimAtomics;

// Ownership protocol (load-bearing — see RtExecution's teardown contract):
// the verdict closure solely owns a Holder, so the RtExecution is
// destroyed exactly when the explorer drops the harness, on the
// simulation thread.  Thread bodies own only the algorithm state (plus a
// raw RtExecution pointer for the occupancy probe).
using rtshim::Holder;

/// A run that goes idle with unfinished threads means every one of them
/// is parked in atomic::wait with no wakeup in flight: a lost wakeup (or
/// outright deadlock).  Replay-stable — the recorded schedule reaches the
/// same idle state.
CheckOutcome check_parked_at_idle(const sim::Simulation& sim) {
  if (sim.pending_events().empty() && !sim.all_done())
    return {false, "lost wakeup: threads parked with the simulation idle"};
  return {};
}

}  // namespace

CheckScenario make_rt_mutex_scenario(RtMutexScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    struct Algo {
      std::unique_ptr<rt::BasicRtMutex<ShimAtomics>> lock;
    };
    auto holder = Holder<Algo>::make(simulation);
    switch (config.algorithm) {
      case RtMutexScenarioConfig::Algorithm::kFischer:
        holder->algo->lock =
            std::make_unique<rt::BasicFischerRt<ShimAtomics>>(config.delta);
        break;
      case RtMutexScenarioConfig::Algorithm::kTfrStarvationFree:
        holder->algo->lock =
            rt::make_basic_tfr_mutex<ShimAtomics>(config.threads,
                                                  config.delta);
        break;
      case RtMutexScenarioConfig::Algorithm::kAtomicLock:
        holder->algo->lock =
            std::make_unique<rt::BasicAtomicMutexLock<ShimAtomics>>();
        break;
    }
    for (int id = 0; id < config.threads; ++id) {
      holder->exec->spawn_thread(
          [algo = holder->algo, exec = holder->exec.get(), id, config] {
            for (int s = 0; s < config.sessions; ++s) {
              algo->lock->lock(id);
              exec->mark_enter();
              if (config.cs_time > 0) ShimAtomics::delay(config.cs_time);
              exec->mark_exit();
              algo->lock->unlock(id);
            }
          });
    }

    RunHarness harness;
    harness.verdict = [holder,
                       sim = &simulation](const RunInfo&) -> CheckOutcome {
      if (holder->exec->me_violations() > 0)
        return {false, "mutual exclusion violated (CS occupancy overlap)"};
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

CheckScenario make_rt_consensus_scenario() {
  return [](sim::Simulation& simulation) -> RunHarness {
    // Four-cell segments: the first touch of every fourth round publishes
    // a segment from inside a shim thread.
    using Consensus = rt::BasicRtConsensus<ShimAtomics, 4, 16>;
    struct Algo {
      Consensus consensus{{.delta = 2}};
      sim::DecisionMonitor monitor;
      std::uint64_t rounds[2] = {0, 0};  ///< [thread]; 0 = not decided
    };
    auto holder = Holder<Algo>::make(simulation);
    holder->algo->monitor.throw_on_violation(false);
    for (int id = 0; id < 2; ++id) {  // thread `id` proposes `id`
      holder->algo->monitor.set_input(id, id);
      holder->exec->spawn_thread([algo = holder->algo, sim = &simulation, id] {
        const Consensus::Result result = algo->consensus.propose(id);
        algo->monitor.on_decide(id, result.value, sim->now());
        algo->rounds[id] = result.rounds;
      });
    }

    RunHarness harness;
    harness.verdict = [holder,
                       sim = &simulation](const RunInfo& info) -> CheckOutcome {
      const Algo& algo = *holder->algo;
      if (!algo.monitor.agreement_holds())
        return {false, "consensus agreement violated"};
      if (!algo.monitor.validity_holds())
        return {false, "consensus validity violated"};
      if (info.failures_injected == 0 && !info.truncated) {
        for (const std::uint64_t rounds : algo.rounds) {
          if (rounds == 0 || rounds > 2)
            return {false, "failure-free execution did not decide by round 1"};
        }
      }
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

CheckScenario make_rt_multi_consensus_scenario() {
  return [](sim::Simulation& simulation) -> RunHarness {
    // Two bits, inputs 0b01 and 0b10: the threads disagree at every bit
    // position, so whichever wins bit 0 makes the other adopt a witness.
    using MultiConsensus = rt::BasicRtMultiConsensus<ShimAtomics>;
    constexpr int kInputs[2] = {1, 2};
    struct Algo {
      MultiConsensus consensus{{.delta = 2, .bits = 2}};
      sim::DecisionMonitor monitor;
    };
    auto holder = Holder<Algo>::make(simulation);
    holder->algo->monitor.throw_on_violation(false);
    for (int id = 0; id < 2; ++id) {
      holder->algo->monitor.set_input(id, kInputs[id]);
      holder->exec->spawn_thread(
          [algo = holder->algo, sim = &simulation, id, input = kInputs[id]] {
            const auto decided = algo->consensus.propose(input);
            algo->monitor.on_decide(id, static_cast<int>(decided), sim->now());
          });
    }

    RunHarness harness;
    harness.verdict = [holder,
                       sim = &simulation](const RunInfo&) -> CheckOutcome {
      const Algo& algo = *holder->algo;
      if (!algo.monitor.agreement_holds())
        return {false, "multi-valued agreement violated"};
      if (!algo.monitor.validity_holds())
        return {false, "multi-valued validity violated"};
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

CheckScenario make_rt_eventcount_scenario(RtEventCountScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    struct Algo {
      std::unique_ptr<rt::BasicAtomicRegister<int, ShimAtomics>> ready;
      std::unique_ptr<rt::BasicEventCount<ShimAtomics>> events;
    };
    auto holder = Holder<Algo>::make(simulation);
    holder->algo->ready =
        std::make_unique<rt::BasicAtomicRegister<int, ShimAtomics>>();
    holder->algo->events = std::make_unique<rt::BasicEventCount<ShimAtomics>>();

    holder->exec->spawn_thread(
        [algo = holder->algo, torn = config.torn_epoch] {
          if (torn) {
            // The bug under test: publishing the epoch before the state
            // write lets a waiter snapshot the new epoch, read the old
            // state, and park on an epoch that will never move again.
            algo->events->advance();
            algo->ready->write(1);
          } else {
            algo->ready->write(1);
            algo->events->advance();
          }
        });
    holder->exec->spawn_thread([algo = holder->algo] {
      rt::wait_until_changed(*algo->events,
                             [&] { return algo->ready->read() == 1; });
    });

    RunHarness harness;
    harness.verdict = [holder,
                       sim = &simulation](const RunInfo&) -> CheckOutcome {
      return check_parked_at_idle(*sim);
    };
    return harness;
  };
}

}  // namespace tfr::mcheck
