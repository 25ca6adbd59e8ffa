// Algorithm 1 over message passing: the paper's time-resilient consensus
// running on ABD-emulated registers (§4 extension).
//
// The reduction is the whole point: Algorithm 1's safety uses nothing but
// register atomicity, which ABD provides over an asynchronous,
// crash-minority message system with NO timing assumption; Algorithm 1's
// liveness needs steps (here: message round-trips) to complete within the
// assumed bound.  Composing the two yields message-passing consensus that
// is safe under arbitrary message delays and decides once delays respect
// the bound — the message-passing analogue of the paper's headline, and a
// cousin of the partially-synchronous protocols of [19, 21].
//
// Logical register layout (all defaults are 0):
//   reg 0:        decide   (0 = ⊥, else v + 1)
//   reg 3r+1..3:  x[r,0], x[r,1] (flags, 0/1), y[r] (0 = ⊥, else v + 1)
//
// The assumed bound `delta` here should cover one ABD operation (four
// message one-way delays): exceeding it is exactly a timing failure.

#pragma once

#include <cstdint>

#include "tfr/msg/abd.hpp"
#include "tfr/sim/monitor.hpp"

namespace tfr::msg {

class MsgConsensus {
 public:
  /// `n` nodes (each contributing a client+server endpoint pair to `net`).
  /// `reg_base` offsets this instance's logical register ids so multiple
  /// instances (e.g. the bitwise multi-valued construction) can share one
  /// ABD register space; an instance uses ids [reg_base, reg_base+3R+1)
  /// for R rounds.  `policy` is the retry discipline given to the
  /// AbdClients that participant() constructs (default: no window, for
  /// reliable networks; pass timeouts when a NetAdversary is on).
  MsgConsensus(Network& net, int n, sim::Duration delta, int reg_base = 0,
               RetryPolicy policy = {});

  /// The full node-client process: propose, then report to the monitor.
  /// Spawn at endpoint client(node) = node; the matching abd_server must
  /// be spawned at endpoint n + node (crash it to crash the node).
  sim::Process participant(sim::Env env, int node, int input);

  /// Composable core.
  sim::Task<int> propose(sim::Env env, AbdClient& client, int input);

  sim::DecisionMonitor& monitor() { return monitor_; }
  std::size_t max_round() const { return max_round_; }

 private:
  int reg_decide() const { return reg_base_; }
  int reg_flag(std::size_t r, int v) const {
    return reg_base_ + static_cast<int>(3 * r) + 1 + v;
  }
  int reg_y(std::size_t r) const {
    return reg_base_ + static_cast<int>(3 * r) + 3;
  }

  Network* net_;
  int n_;
  sim::Duration delta_;
  int reg_base_;
  RetryPolicy policy_;
  sim::DecisionMonitor monitor_;
  std::size_t max_round_ = 0;
};

}  // namespace tfr::msg
