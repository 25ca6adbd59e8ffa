// Leader election over message passing: the timing-dependent baseline and
// the time-resilient construction, side by side (§4 extension; the
// message-passing twins of Fischer vs Algorithm 3).
//
// TimedElection — the classic timing-based protocol: broadcast your id,
// wait out the assumed delivery bound W, elect the smallest id heard
// (including your own).  Fast and correct while every message arrives
// within W; a single late HELLO splits the leadership — the exact
// message-passing analogue of Fischer's gate failure.  Violations are the
// point: E16 measures them.
//
// MsgElection — resilient: agree on the leader id with the bitwise
// multi-valued construction (agree_bitwise below, the reduction
// rt::BasicRtMultiConsensus runs on shared memory) over MsgConsensus
// instances (one per id bit, witnesses in ABD registers).  Ids lie in
// [0, n), so ⌈log₂ n⌉ = bit_width(n - 1) bits suffice: every candidate,
// adopted ones included, is < n, so at any higher bit all of them would
// propose 0, validity would decide 0 and nobody would adopt.  Safety never
// depends on delivery times; late messages only delay the outcome.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/msg/consensus_msg.hpp"

namespace tfr::msg {

/// Agrees on a `bits`-bit non-negative `value` by bitwise prefix
/// agreement (derived/derived_rt.hpp has the argument) through `regs`,
/// which provides witness(k, b) cells (reading -1 until written),
/// read/write access as in the round loop's seam, and propose(env, k, b) —
/// the binary instance of bit k.  co_returns the agreed value (some
/// process's input).
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

/// Message type used by TimedElection's announcements.
inline constexpr std::int32_t kHello = 100;

class TimedElection {
 public:
  /// `wait` is the assumed bound W on announcement delivery.
  TimedElection(Network& net, int n, sim::Duration wait);

  /// Announce, wait W, elect min id heard.  Reports to the monitor (which
  /// records an agreement violation when leaders split).
  sim::Process participant(sim::Env env, int node);

  sim::DecisionMonitor& monitor() { return monitor_; }

 private:
  Network* net_;
  int n_;
  sim::Duration wait_;
  sim::DecisionMonitor monitor_;
};

/// Resilient election: bitwise agreement on the leader id over
/// bit_width(n - 1) MsgConsensus instances sharing one ABD register space.
class MsgElection {
 public:
  /// Cap on the id width: up to 1024 node ids.  The register layout
  /// reserves room for this many bits whatever n is.
  static constexpr int kIdBits = 10;

  /// `policy` is handed to the AbdClients of participant() and to the
  /// per-bit MsgConsensus instances (no window by default).
  MsgElection(Network& net, int n, sim::Duration delta,
              RetryPolicy policy = {});

  /// Full participant: elect and report to the monitor.  The node's
  /// abd_server must be running.
  sim::Process participant(sim::Env env, int node);

  /// Composable core: agrees on one of the proposed ids, each in [0, n).
  sim::Task<int> elect(sim::Env env, AbdClient& client, int id) {
    TFR_REQUIRE(id >= 0 && id < n_);
    return agree_bitwise(env, Registers{AbdAccess(client), this}, bits(),
                         id);
  }

  /// Id bits agreed on (one MsgConsensus instance each): bit_width(n - 1).
  int bits() const { return static_cast<int>(bits_.size()); }

  sim::DecisionMonitor& monitor() { return monitor_; }

 private:
  // Register-id layout inside the shared ABD space:
  //   [0, 2*kIdBits)                      witness registers (bit, value)
  //   bit k's MsgConsensus: base 2*kIdBits + k*kRegsPerBit
  static constexpr int kRegsPerBit = 1 << 14;  // ~5400 rounds per bit
  int bit_base(int bit) const { return 2 * kIdBits + bit * kRegsPerBit; }

  /// The reduction's seam: witnesses (bit, b) at id 2*bit+b, holding
  /// candidate + 1 (0 = none), and the per-bit instances, via `client`.
  struct Registers : AbdAccess {
    MsgElection* self;
    AbdCell witness(int bit, int b) const { return {2 * bit + b, -1}; }
    sim::Task<int> propose(sim::Env env, int bit, int b) const {
      return self->bits_[static_cast<std::size_t>(bit)]->propose(
          env, client(), b);
    }
  };

  Network* net_;
  int n_;
  RetryPolicy policy_;
  std::vector<std::unique_ptr<MsgConsensus>> bits_;
  sim::DecisionMonitor monitor_;
};

}  // namespace tfr::msg
