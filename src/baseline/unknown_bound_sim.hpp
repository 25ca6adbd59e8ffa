// Baseline: consensus for the *unknown-bound* model, after Alur, Attiya
// and Taubenfeld, "Time-adaptive algorithms for synchronization" (SIAM J.
// Comput. 1997) — the comparator the paper's §1.5 discusses.
//
// Same round structure as Algorithm 1, but the algorithm does not know Δ:
// round r waits estimate·2^r instead of Δ.  Once the inflated estimate
// reaches the system's true bound, a round behaves failure-free and the
// protocol decides.  The lower bound proved in [3] says no algorithm in
// this model can achieve c·Δ time complexity — which is exactly what the
// paper's known-bound, timing-failure-resilient Algorithm 1 achieves.
// Experiment E5 measures the gap.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/sim/monitor.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"

namespace tfr::baseline {

class SimUnknownBoundConsensus {
 public:
  /// `initial_estimate` is the starting guess for the unknown bound.
  SimUnknownBoundConsensus(sim::RegisterSpace& space,
                           sim::Duration initial_estimate);

  /// Proposes `input` (0/1); co_returns the decision.
  sim::Task<int> propose(sim::Env env, int input);

  sim::Process participant(sim::Env env, int input);

  sim::DecisionMonitor& monitor() { return monitor_; }
  std::size_t max_round() const { return max_round_; }
  int decided_value() const {
    return decide_.peek();  // untimed-ok: post-run observer view
  }
  /// The delay a process waits in round r.
  sim::Duration round_delay(std::size_t r) const;

 private:
  sim::Register<int>& flag(int value, std::size_t round);

  sim::Duration initial_estimate_;
  sim::RegisterArray<int> x0_;
  sim::RegisterArray<int> x1_;
  sim::RegisterArray<int> y_;
  sim::Register<int> decide_;
  sim::DecisionMonitor monitor_;
  std::size_t max_round_ = 0;
};

/// Outcome summary mirroring core::run_consensus for comparisons.
struct UnknownBoundOutcome {
  bool all_decided = false;
  int value = sim::kBot;
  sim::Time last_decision = -1;
  std::size_t max_round = 0;
  std::vector<std::uint64_t> steps;
};

UnknownBoundOutcome run_unknown_bound_consensus(
    const std::vector<int>& inputs, sim::Duration initial_estimate,
    std::unique_ptr<sim::TimingModel> timing, std::uint64_t seed = 1,
    sim::Time limit = sim::kTimeNever);

}  // namespace tfr::baseline
