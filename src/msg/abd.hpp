// ABD: atomic multi-writer multi-reader registers emulated over message
// passing with majority quorums (after Attiya–Bar-Noy–Dolev), tolerating
// crashes of any minority of nodes.
//
// This is the bridge that carries the paper's register-based algorithms
// into the message-passing world (§4): a logical register's write queries
// a majority for the highest tag, then stores a higher one at a majority;
// a read collects a majority of (tag, value) pairs, adopts the maximum,
// and writes it back to a majority before returning (the write-back is
// what makes reads atomic rather than merely regular) — unless every ack
// of the quorum carried the same tag, in which case that tag is already
// stored at a majority and the read returns after one round (the
// Mostéfaoui–Raynal fast read).  Any two majorities intersect, so a
// completed operation is visible to every later one — with NO timing
// assumption; late messages (timing failures on channel registers) delay
// operations but never unorder them.
//
// Under a NetAdversary requests and acks can also be lost or duplicated,
// so the client is hardened: each majority phase collects acks inside a
// timeout window, de-duplicates acks per server (a duplicated ack must
// not fake a quorum), and on expiry re-multicasts the same request —
// servers are idempotent, so re-asking is always safe — after an
// exponentially growing backoff pause with deterministic jitter (a pure
// function of node, rid and attempt, keeping adversarial runs
// replayable).  With a DeltaController attached the first window derives
// from per-server channel estimates (per_peer_window); the default
// RetryPolicy{} has timeout 0 = a window that never expires, which suits
// reliable networks.
//
// Each node contributes two endpoints to the Network:
//   client(i) = i        — runs the node's algorithm and issues ops;
//   server(i) = n + i    — the replica: stores (tag, value) per logical
//                          register and answers queries forever.
//
// Tags are (counter << 16 | writer) so concurrent writers never tie.
// Logical register ids are arbitrary non-negative ints; unknown ids read
// as (tag 0, value 0), so protocols encode their "initial value" as 0.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/msg/network.hpp"

namespace tfr::msg {

class ConvergenceMonitor;

/// Message types of the ABD protocol.
enum AbdMessageType : std::int32_t {
  kTagReq = 1,   ///< -> server: what is your tag for reg?
  kTagAck = 2,   ///< <- server: my tag
  kWriteReq = 3, ///< -> server: store (tag, value) if tag is higher
  kWriteAck = 4, ///< <- server: stored (or already newer)
  kReadReq = 5,  ///< -> server: what is your (tag, value)?
  kReadAck = 6,  ///< <- server: my (tag, value)
};

/// Retry/backoff discipline for one majority phase.  The zero-initialised
/// policy (timeout 0) multicasts once and waits until a majority answers.
struct RetryPolicy {
  sim::Duration timeout = 0;      ///< ack-collection window; 0 = no retries
  double timeout_growth = 2.0;    ///< window multiplier per retry
  sim::Duration max_timeout = 0;  ///< window cap (0 = uncapped)
  sim::Duration backoff = 0;      ///< base pause before a retry
  double backoff_growth = 2.0;    ///< pause multiplier per retry
  sim::Duration max_backoff = 0;  ///< pause cap (0 = uncapped)
  sim::Duration jitter = 0;       ///< max deterministic jitter added to pause
  sim::Duration poll_every = 1;   ///< poll period while waiting for acks

  /// Adaptive timeouts: with a DeltaController attached to the client and
  /// this factor > 0, each phase's first ack window is per_peer_window()
  /// over the controller's per-server estimates instead of `timeout`
  /// (per-retry growth and the caps still apply on top).  0 keeps the
  /// static window even when a controller is attached.
  double timeout_per_delta = 0.0;
};

/// Exponential growth with a saturation guard: value * growth clamped to
/// `cap` (0 = no configured cap) and, before the double -> Duration cast,
/// to a far-below-overflow limit — at high attempt counts the uncapped
/// legacy arithmetic overflowed sim::Duration, which is UB on the cast and
/// turned the pause negative.  Monotone: never returns less than a
/// growth >= 1 input, and a positive input under growth > 1 grows by at
/// least 1 until it saturates.
sim::Duration grow_saturating(sim::Duration value, double growth,
                              sim::Duration cap);

/// The per-peer first ack window for one majority phase over `n` servers:
/// server s would need w_s = ceil(estimate_for(s) * per_delta), and a
/// quorum only needs the fastest majority of servers, so the phase waits
/// the majority-th smallest w_s — stragglers never size the window.
/// Clamped to [1, max_timeout] (max_timeout 0 = uncapped).  A controller
/// without per-channel state answers estimate_for() with current(), so
/// its window is ceil(current() * per_delta).  `scratch` is caller-owned
/// storage so the hot path allocates nothing.
sim::Duration per_peer_window(const adapt::DeltaController& controller, int n,
                              double per_delta, sim::Duration max_timeout,
                              std::vector<sim::Duration>& scratch);

/// The replica role of node `node`: answers ABD requests forever.  Spawn
/// with endpoint id server(node) = n + node.  Crash it to fault the node.
/// Requests are idempotent (reads are pure; writes compare tags), so
/// re-delivered or re-sent requests are harmless.
sim::Process abd_server(sim::Env env, Network& net, int node, int n);

/// The client role: issues linearizable reads/writes of logical
/// registers.  One instance per node; must be driven by the coroutine
/// running at endpoint client(node) = node.
class AbdClient {
 public:
  AbdClient(Network& net, int node, int n, RetryPolicy policy = {});

  /// Linearizable write of logical register `reg` (two majority phases).
  sim::Task<void> write(sim::Env env, int reg, std::int64_t value);

  /// Linearizable read of logical register `reg`: one majority phase,
  /// plus a write-back phase unless the quorum's tags were uniform.
  sim::Task<std::int64_t> read(sim::Env env, int reg);

  /// Attaches a monitor; every subsequent read/write is recorded as an
  /// invoke/response pair for linearizability + convergence checking.
  void set_monitor(ConvergenceMonitor* monitor) { monitor_ = monitor; }

  /// Attaches an adaptive optimistic(Δ) controller: ack windows derive
  /// from its per-server estimates (see RetryPolicy::timeout_per_delta),
  /// every window expiry reports on_failure(), a quorum inside the first
  /// window reports on_clean(), and each server's first-window round trip
  /// — late acks included — is fed to observe() on that server's channel.
  /// Advisory only — ABD linearizability needs no timing assumption at
  /// all, so a mistuned estimate costs retries, never atomicity.
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

  const RetryPolicy& policy() const { return policy_; }

  std::uint64_t operations() const { return operations_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t duplicate_acks() const { return duplicate_acks_; }
  std::uint64_t stale_acks() const { return stale_acks_; }
  /// Reads that skipped the write-back round.
  std::uint64_t fast_reads() const { return fast_reads_; }
  /// Reads that saw disagreeing tags and fell back to two rounds.
  std::uint64_t fast_read_misses() const { return fast_read_misses_; }
  /// Stale acks matched to a recently completed phase and fed back to the
  /// controller as late per-peer RTT observations.
  std::uint64_t late_observations() const { return late_observations_; }

 private:
  struct Quorum {
    std::int64_t max_tag = 0;
    std::int64_t value_of_max = 0;
    bool tags_uniform = true;  ///< every counted ack carried the same tag
  };

  /// A recently completed majority phase, kept so a straggler's ack that
  /// arrives after the quorum closed can still teach the controller that
  /// server's true round-trip time.
  struct RecentPhase {
    std::int64_t rid = 0;
    std::int32_t ack_type = 0;
    sim::Time started = 0;         ///< first multicast of the phase
    std::uint32_t observed = ~0u;  ///< servers already counted/observed
  };

  /// Multicasts `request` to all servers and collects a majority of acks
  /// of type `ack_type` carrying the current rid, de-duplicated per
  /// server; re-multicasts per the RetryPolicy when the window expires.
  /// Returns the highest (tag, value) seen among the acks.
  sim::Task<Quorum> majority(sim::Env env, Message request,
                             std::int32_t ack_type);

  static std::int64_t make_tag(std::int64_t counter, int writer) {
    return (counter << 16) | static_cast<std::int64_t>(writer & 0xffff);
  }
  static std::int64_t tag_counter(std::int64_t tag) { return tag >> 16; }

  /// Deterministic jitter in [0, policy_.jitter] for this retry — a pure
  /// function of (node, rid, attempt), so runs replay byte-identically.
  sim::Duration jitter_for(std::int64_t rid, int attempt) const;

  const char* phase_name(std::int32_t ack_type) const;

  /// Matches a stale ack against the recent-phase ring and feeds the
  /// server's late RTT to the controller.
  void note_late_ack(const Message& m, sim::Time now);

  /// Emits the per-peer estimate counter tracks (`abd.est.<peer>`) when
  /// tracing; label ids are interned once and cached.
  void emit_estimates(sim::Env& env);

  Network* net_;
  int node_;
  int n_;
  RetryPolicy policy_;
  ConvergenceMonitor* monitor_ = nullptr;
  adapt::DeltaController* controller_ = nullptr;
  std::int64_t next_rid_ = 1;
  std::uint64_t operations_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t duplicate_acks_ = 0;
  std::uint64_t stale_acks_ = 0;
  std::uint64_t fast_reads_ = 0;
  std::uint64_t fast_read_misses_ = 0;
  std::uint64_t late_observations_ = 0;
  /// Per-phase ack-dedup scratch, reused so the quorum loop allocates
  /// nothing per phase (sized n_ once, reset with assign()).
  std::vector<char> acked_scratch_;
  /// Scratch for per_peer_window's order statistic, same reuse story.
  std::vector<sim::Duration> window_scratch_;
  /// Ring of recently completed phases for late-ack attribution.
  static constexpr std::size_t kRecentPhases = 4;
  RecentPhase recent_[kRecentPhases];
  std::size_t recent_next_ = 0;
  /// Cached interned labels for the abd.est.<peer> counter tracks.
  std::vector<std::uint32_t> est_labels_;
  std::uint32_t fast_label_ = 0;
};

}  // namespace tfr::msg
