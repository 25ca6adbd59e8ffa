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
// Experiment E5 measures the gap.  The loop is core::RoundLoop's; the
// register seam supplies only the doubled delay, round_delay(r).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/core/round_loop.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"

namespace tfr::baseline {

class SimUnknownBoundConsensus : private core::RoundLoop {
 public:
  /// `initial_estimate` is the starting guess for the unknown bound.
  SimUnknownBoundConsensus(sim::RegisterSpace& space,
                           sim::Duration initial_estimate);

  /// Proposes `input` (0/1); co_returns the decision.
  sim::Task<int> propose(sim::Env env, int input) {
    return run(env, Registers{{}, this}, input);
  }

  sim::Process participant(sim::Env env, int input);

  using RoundLoop::max_round;
  using RoundLoop::monitor;
  int decided_value() const {
    return decide_.peek();  // untimed-ok: post-run observer view
  }
  /// The delay a process waits in round r.
  sim::Duration round_delay(std::size_t r) const;

 private:
  /// The round loop's register seam, plus the estimate-doubling delay.
  struct Registers : core::SimAccess {
    SimUnknownBoundConsensus* self;
    sim::Register<int>& decide() const { return self->decide_; }
    sim::Register<int>& flag(std::size_t r, int v) const {
      return self->flag(v, r);
    }
    sim::Register<int>& proposal(std::size_t r) const {
      return self->y_.at(r);
    }
    sim::Duration round_delay(std::size_t r) const {
      return self->round_delay(r);
    }
  };

  sim::Register<int>& flag(int value, std::size_t round);

  sim::RegisterArray<int> x0_;
  sim::RegisterArray<int> x1_;
  sim::RegisterArray<int> y_;
  sim::Register<int> decide_;
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
