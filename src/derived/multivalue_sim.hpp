// Multi-valued consensus from the paper's binary consensus.
//
// §1.4 uses Algorithm 1 as a building block for election, renaming, etc.,
// which need agreement on values larger than one bit.  This is the classic
// bitwise prefix-agreement reduction: agree on the value bit by bit using
// one binary instance per position.  Before proposing bit b at position k,
// a process publishes its full current candidate in witness[k][b]; a
// process whose bit loses adopts the witness for the winning bit, which is
// guaranteed (a) to have been written before that bit could win, (b) to
// match the agreed prefix through position k, and (c) to be some process's
// input (inductively).  After all positions the agreed bit string *is* the
// decided value, so agreement and validity follow, and every property of
// the underlying instances (wait-freedom, resilience to timing failures,
// unbounded participation) is inherited.
//
// The reduction is written once, as agree_bitwise() over a register seam
// (the round loop's, core/round_loop.hpp): SimMultiConsensus runs it on
// simulated registers, msg::MsgElection on ABD-emulated ones.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/core/consensus_sim.hpp"

namespace tfr::derived {

/// Agrees on a `bits`-bit non-negative `value` through `regs`, which
/// provides witness(k, b) cells (reading -1 until written), read/write
/// access as in the round loop's seam, and propose(env, k, b) — the binary
/// instance of bit k.  co_returns the agreed value (some process's input).
template <class Value, class Registers>
sim::Task<Value> agree_bitwise(sim::Env env, Registers regs, int bits,
                               Value value) {
  TFR_REQUIRE(value >= 0);
  TFR_REQUIRE(bits >= 62 || value < (Value{1} << bits));
  Value candidate = value;
  for (int k = 0; k < bits; ++k) {
    const int b = static_cast<int>((candidate >> k) & 1);
    // Publish the full candidate before proposing its bit: if bit b wins,
    // some witness with that bit (and the agreed prefix) exists.
    co_await regs.write(env, regs.witness(k, b), candidate);
    const int decided = co_await regs.propose(env, k, b);
    if (decided != b) {
      const Value adopted = co_await regs.read(env, regs.witness(k, decided));
      TFR_INVARIANT(adopted >= 0);
      // The adopted witness agrees with our candidate on bits 0..k-1 (both
      // match the agreed prefix) and carries the winning bit at k.
      TFR_INVARIANT(((adopted ^ candidate) & ((Value{1} << k) - 1)) == 0);
      TFR_INVARIANT(((adopted >> k) & 1) == decided);
      candidate = adopted;
    }
  }
  co_return candidate;
}

class SimMultiConsensus {
 public:
  /// Values must be non-negative and fit in `bits` bits (max 62).
  SimMultiConsensus(sim::RegisterSpace& space, sim::Duration delta,
                    int bits = 31);

  SimMultiConsensus(const SimMultiConsensus&) = delete;
  SimMultiConsensus& operator=(const SimMultiConsensus&) = delete;

  /// Proposes `value`; co_returns the agreed value (some process's input).
  sim::Task<std::int64_t> propose(sim::Env env, std::int64_t value) {
    return agree_bitwise(env, Registers{{}, this}, bits_, value);
  }

  int bits() const { return bits_; }
  /// Decided value if every bit instance has decided, else -1 (untimed).
  std::int64_t decided_value() const;

 private:
  /// The reduction's seam: this object's witnesses and bit instances.
  struct Registers : core::SimAccess {
    SimMultiConsensus* self;
    sim::Register<std::int64_t>& witness(int k, int b) const {
      return (b == 0 ? self->witness0_ : self->witness1_)
          .at(static_cast<std::size_t>(k));
    }
    sim::Task<int> propose(sim::Env env, int k, int b) const {
      return self->bit_[static_cast<std::size_t>(k)]->propose(env, b);
    }
  };

  int bits_;
  std::vector<std::unique_ptr<core::SimConsensus>> bit_;
  sim::RegisterArray<std::int64_t> witness0_;
  sim::RegisterArray<std::int64_t> witness1_;
};

}  // namespace tfr::derived
