#include "tfr/mcheck/scenarios.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/core/consensus_sim.hpp"
#include "tfr/msg/abd.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/msg/network.hpp"
#include "tfr/mutex/mutex_sim.hpp"
#include "tfr/mutex/workload_sim.hpp"
#include "tfr/sim/monitor.hpp"

namespace tfr::mcheck {

CheckScenario make_consensus_scenario(ConsensusScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    auto consensus = std::make_shared<core::SimConsensus>(simulation.space(),
                                                          config.delta);
    consensus->monitor().throw_on_violation(false);
    for (int input : config.inputs) {
      simulation.spawn([consensus, input](sim::Env env) {
        return consensus->participant(env, input);
      });
    }

    RunHarness harness;
    harness.stop = [consensus, cutoff = config.round_cutoff] {
      return consensus->max_round() >= cutoff;
    };
    harness.verdict = [consensus, config](const RunInfo& info) -> CheckOutcome {
      const sim::DecisionMonitor& monitor = consensus->monitor();
      if (!monitor.agreement_holds())
        return {false, "consensus agreement violated"};
      if (!monitor.validity_holds())
        return {false, "consensus validity violated"};
      if (info.failures_injected == 0 &&
          consensus->max_round() >= config.round_cutoff) {
        return {false, "failure-free execution exceeded the round bound"};
      }
      return {};
    };
    return harness;
  };
}

CheckScenario make_mutex_scenario(MutexScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    struct State {
      std::unique_ptr<mutex::SimMutex> algorithm;
      sim::MutexMonitor monitor;
      // The mistuned adaptive controller: pinned at the floor, so every
      // explored delay(Δ) waits 1 tick while the explorer injects costs
      // far beyond it.  Per-execution, like the algorithm itself.
      adapt::ManualDelta pinned{1};
    };
    auto state = std::make_shared<State>();
    adapt::DeltaController* controller =
        config.mistuned_controller ? &state->pinned : nullptr;
    switch (config.algorithm) {
      case MutexScenarioConfig::Algorithm::kFischer: {
        auto fischer = std::make_unique<mutex::FischerMutex>(
            simulation.space(), config.delta);
        fischer->set_delta_controller(controller);
        state->algorithm = std::move(fischer);
        break;
      }
      case MutexScenarioConfig::Algorithm::kTfrStarvationFree: {
        auto tfr = mutex::make_tfr_mutex_starvation_free(
            simulation.space(), config.processes, config.delta);
        tfr->set_delta_controller(controller);
        state->algorithm = std::move(tfr);
        break;
      }
      case MutexScenarioConfig::Algorithm::kTfrDeadlockFreeOnly: {
        auto tfr = mutex::make_tfr_mutex_deadlock_free_only(
            simulation.space(), config.processes, config.delta);
        tfr->set_delta_controller(controller);
        state->algorithm = std::move(tfr);
        break;
      }
    }
    state->monitor.throw_on_violation(false);

    mutex::WorkloadConfig workload;
    workload.processes = config.processes;
    workload.sessions = config.sessions;
    workload.cs_time = config.cs_time;
    workload.ncs_time = 0;
    workload.randomize_ncs = false;
    workload.tolerate_violations = true;
    for (int id = 0; id < config.processes; ++id) {
      simulation.spawn([state, id, workload](sim::Env env) {
        return mutex::mutex_sessions(env, *state->algorithm, state->monitor,
                                     id, workload);
      });
    }

    RunHarness harness;
    harness.verdict = [state](const RunInfo&) -> CheckOutcome {
      if (!state->monitor.mutual_exclusion_holds())
        return {false, "mutual exclusion violated"};
      return {};
    };
    return harness;
  };
}

namespace {

struct AbdState {
  std::unique_ptr<msg::Network> net;
  msg::ConvergenceMonitor monitor;
  std::vector<std::unique_ptr<msg::AbdClient>> clients;
  int done = 0;
};

sim::Process abd_write_once(sim::Env env, std::shared_ptr<AbdState> state,
                            std::size_t client, std::int64_t value) {
  co_await state->clients[client]->write(env, /*reg=*/0, value);
  ++state->done;
}

sim::Process abd_read_once(sim::Env env, std::shared_ptr<AbdState> state,
                           std::size_t client) {
  co_await state->clients[client]->read(env, /*reg=*/0);
  ++state->done;
}

}  // namespace

CheckScenario make_abd_scenario(AbdScenarioConfig config) {
  return [config](sim::Simulation& simulation) -> RunHarness {
    const int n = config.nodes;
    auto state = std::make_shared<AbdState>();
    state->net = std::make_unique<msg::Network>(simulation.space(), 2 * n);
    for (int node = 0; node < n; ++node) {
      if (node == config.crashed_server) continue;
      simulation.spawn([state, node, n](sim::Env env) {
        return msg::abd_server(env, *state->net, node, n);
      });
    }
    for (int node : {0, 1}) {
      state->clients.push_back(
          std::make_unique<msg::AbdClient>(*state->net, node, n));
      state->clients.back()->set_monitor(&state->monitor);
    }
    simulation.spawn([state, value = config.written](sim::Env env) {
      return abd_write_once(env, state, 0, value);
    });
    simulation.spawn([state](sim::Env env) {
      return abd_read_once(env, state, 1);
    });

    RunHarness harness;
    harness.stop = [state] { return state->done >= 2; };
    harness.verdict = [state](const RunInfo&) -> CheckOutcome {
      // Safety only: the completed prefix must linearize; truncated
      // executions with unfinished operations are fine (the crashed
      // replica's silence may stall an op past the step bound).
      if (!state->monitor.check().linearizable)
        return {false, "ABD history not linearizable"};
      if (state->net->lost_wakeups() != 0)
        return {false, "a parked receiver missed a send"};
      return {};
    };
    return harness;
  };
}

}  // namespace tfr::mcheck
