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
// cousin of the partially-synchronous protocols of [19, 21].  The round
// loop is core/round_loop.hpp's, the one the simulator runs; only the
// register seam differs.
//
// Logical register layout (ABD registers all start at 0, so a value v of
// a register whose initial value is `initial` is stored as v - initial):
//   reg base:          decide   (initial ⊥: 0 = ⊥, else v + 1)
//   reg base+3r+1..3:  x[r,0], x[r,1] (flags, 0/1), y[r] (0 = ⊥, else v + 1)
//
// The assumed bound `delta` here should cover one ABD operation (four
// message one-way delays): exceeding it is exactly a timing failure.

#pragma once

#include <coroutine>
#include <cstdint>

#include "tfr/core/round_loop.hpp"
#include "tfr/msg/abd.hpp"

namespace tfr::msg {

/// A logical ABD register holding values stored as `v - initial`, so the
/// register reads `initial` until its first write.
struct AbdCell {
  int id;
  std::int64_t initial;
};

/// Register access over ABD: each access is the AbdClient's operation,
/// read back through the cell's encoding.
class AbdAccess {
 public:
  explicit AbdAccess(AbdClient& client) : client_(&client) {}

  /// The client's read task, resumed with the decoded value.
  struct Read {
    sim::Task<std::int64_t> op;
    std::int64_t initial;

    bool await_ready() const noexcept {
      return op.operator co_await().await_ready();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      return op.operator co_await().await_suspend(h);
    }
    std::int64_t await_resume() {
      return op.operator co_await().await_resume() + initial;
    }
  };

  Read read(sim::Env env, AbdCell cell) const {
    return {client_->read(env, cell.id), cell.initial};
  }
  sim::Task<void> write(sim::Env env, AbdCell cell, std::int64_t value) const {
    return client_->write(env, cell.id, value - cell.initial);
  }
  AbdClient& client() const { return *client_; }

 private:
  AbdClient* client_;
};

class MsgConsensus : private core::RoundLoop {
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
  sim::Task<int> propose(sim::Env env, AbdClient& client, int input) {
    return run(env, Registers{AbdAccess(client), reg_base_}, input);
  }

  using RoundLoop::max_round;
  using RoundLoop::monitor;

 private:
  /// The round loop's register seam: this instance's ids, via `client`.
  struct Registers : AbdAccess {
    int base;
    AbdCell decide() const { return {base, sim::kBot}; }
    AbdCell flag(std::size_t r, int v) const {
      return {base + static_cast<int>(3 * r) + 1 + v, 0};
    }
    AbdCell proposal(std::size_t r) const {
      return {base + static_cast<int>(3 * r) + 3, sim::kBot};
    }
  };

  Network* net_;
  int n_;
  int reg_base_;
  RetryPolicy policy_;
};

}  // namespace tfr::msg
