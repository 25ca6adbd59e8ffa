// Algorithm 1 on real threads: wait-free binary consensus resilient to
// timing failures, built from atomic registers only.
//
// Mirrors core/consensus_sim.hpp line for line; see that header for the
// round structure and the theorem list.  Here Δ is wall-clock
// (nanoseconds) and should be an optimistic(Δ) for the host (§3.3): safety
// never depends on it, a too-small value only costs extra rounds.
//
// Like the rt locks, the algorithm is a template over the Atomics policy
// (rt/atomics_policy.hpp): RtConsensus is the StdAtomics instantiation and
// tfr_mcheck's consensus-rt-n2 explores the same source on ShimAtomics.
// It is the one rt transcription of the round loop: BasicRtMultiConsensus
// (derived/derived_rt.hpp) runs one lane per bit through it, with round r
// of lane k at index r·lanes + k of one set of x0/x1/y arrays.
//
// An optional FaultInjector stalls the caller at named points, emulating
// preemption-induced timing failures:
//   "consensus.after_flag"      — between line 2 and line 3
//   "consensus.after_read_y"    — between reading and writing y[r]
//   "consensus.before_decide"   — before line 4's decide write

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "tfr/common/contracts.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/registers/fault_injector.hpp"
#include "tfr/registers/register_array.hpp"
#include "tfr/rt/atomics_policy.hpp"

namespace tfr::rt {

template <class Atomics>
class BasicRtMultiConsensus;

template <class Atomics, std::size_t SegmentSize = 1024,
          std::size_t MaxSegments = 4096>
class BasicRtConsensus {
 public:
  static constexpr int kBot = -1;

  struct Config {
    typename Atomics::duration delta{1000};  ///< optimistic(Δ) for delay()
    FaultInjector* faults = nullptr;  ///< optional failure injection
  };

  explicit BasicRtConsensus(Config config) : BasicRtConsensus(config, 1) {}

  BasicRtConsensus(const BasicRtConsensus&) = delete;
  BasicRtConsensus& operator=(const BasicRtConsensus&) = delete;

  struct Result {
    int value = kBot;
    std::uint64_t rounds = 0;  ///< rounds entered by this caller (>= 1)
    std::uint64_t steps = 0;   ///< shared accesses by this caller
    std::uint64_t delays = 0;  ///< delay statements executed
  };

  /// Proposes `input` (0/1) on behalf of the calling thread and blocks
  /// until a decision is reached.  Wait-free once timing holds: progress
  /// does not depend on any other thread taking steps.
  Result propose(int input) { return propose(0, input); }

  /// Convenience wrapper returning only the decision.
  int propose_value(int input) { return propose(input).value; }

  /// Snapshot of the decide register (kBot while undecided).
  int decided() const { return decided(0); }

 private:
  friend class BasicRtMultiConsensus<Atomics>;
  using Register = BasicAtomicRegister<int, Atomics>;
  using Array = RegisterArray<int, SegmentSize, MaxSegments, Atomics>;

  /// Each decide cell is constructed holding ⊥: under the shim a write
  /// after construction, on an algorithm thread that builds the instance
  /// lazily, would be an explored access.
  struct DecideCell : Register {
    DecideCell() : Register(kBot) {}
  };

  /// `lanes` independent instances over one set of arrays.
  BasicRtConsensus(Config config, std::size_t lanes)
      : config_(config),
        lanes_(lanes),
        x0_(0),
        x1_(0),
        y_(kBot),
        decide_(std::make_unique<DecideCell[]>(lanes)) {
    TFR_REQUIRE(Atomics::count(config.delta) >= 0);
    TFR_REQUIRE(lanes >= 1);
  }

  Result propose(std::size_t lane, int input) {
    TFR_REQUIRE(lane < lanes_);
    TFR_REQUIRE(input == 0 || input == 1);
    Register& decide = decide_[lane];
    Result result;
    int v = input;
    std::size_t r = 0;
    for (;;) {
      const std::size_t cell = r * lanes_ + lane;
      // Line 1: while decide = ⊥ (also completes the 7-step fast path).
      ++result.steps;
      const int decided = decide.read();
      if (decided != kBot) {
        result.value = decided;
        result.rounds = r + 1;
        return result;
      }
      // Line 2: flag our preference for round r.
      ++result.steps;
      (v == 0 ? x0_ : x1_).at(cell).write(1);
      maybe_stall(config_.faults, "consensus.after_flag");
      // Line 3: publish v as the round's proposal if none is there yet.
      ++result.steps;
      const int proposal = y_.at(cell).read();
      maybe_stall(config_.faults, "consensus.after_read_y");
      if (proposal == kBot) {
        ++result.steps;
        y_.at(cell).write(v);
      }
      // Line 4: if nobody flagged the conflicting preference, decide.
      ++result.steps;
      const int conflicting = (v == 0 ? x1_ : x0_).at(cell).read();
      if (conflicting == 0) {
        maybe_stall(config_.faults, "consensus.before_decide");
        ++result.steps;
        decide.write(v);
      } else {
        // Lines 5-7: wait out the bound, adopt the proposal, retry.
        ++result.delays;
        Atomics::delay(config_.delta);
        ++result.steps;
        v = y_.at(cell).read();
        TFR_INVARIANT(v != kBot);
        r += 1;
      }
    }
  }

  int decided(std::size_t lane) const {
    TFR_REQUIRE(lane < lanes_);
    return decide_[lane].read();
  }

  Config config_;
  std::size_t lanes_;
  Array x0_;
  Array x1_;
  Array y_;
  std::unique_ptr<DecideCell[]> decide_;  ///< one per lane
};

using RtConsensus = BasicRtConsensus<StdAtomics>;

// The production instantiation lives in consensus_rt.cpp.
extern template class BasicRtConsensus<StdAtomics>;

}  // namespace tfr::rt
