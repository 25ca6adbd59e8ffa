// Message passing for the simulator (paper §4: "to consider message
// passing systems").
//
// The network is built from the same primitive the paper allows — atomic
// registers under the timing model — so every existing capability applies
// unchanged: a timing failure on a channel register *is* a late message,
// the adversary schedules delivery, crashes silence a node, and RMR
// accounting covers polling.  Each ordered pair (sender, receiver) gets an
// SPSC channel: an unbounded slot array plus a tail register; send writes
// the slot then bumps the tail (2 shared accesses, each <= Δ when timing
// holds, so a message "arrives" within 2Δ + the receiver's polling step);
// the receiver polls tails (cache-local while nothing changes) and
// consumes slots in order.  Polling sweeps start at a rotating per-caller
// index so no inbound channel can be starved by sustained load on a
// lower-numbered one.
//
// All three receive calls run one private receive loop: a sweep over the
// receiver's row of a flat [receiver * endpoints + sender] table of
// inbound state, built once by the constructor, then a pause between
// empty sweeps until a deadline.  try_recv is one sweep, recv sweeps
// without pause until a hit, recv_until pauses poll_every ticks.  A
// receive call allocates its coroutine frame once; idle sweeps allocate
// nothing.
//
// A NetAdversary attached via set_adversary() makes delivery unreliable:
// each message's verdict (drop / duplicate / extra delay) is decided at
// send time from a per-channel deterministic stream; the receiver's sweep
// skips dropped slots, holds delayed slots until their delivery instant
// (later slots may overtake — reordering), and re-delivers duplicated
// slots once more.  Slot delivery metadata is substrate bookkeeping like
// the read cursors: it models the link, not algorithm state, so it is
// untimed by design.
//
// Endpoints are small integers in [0, endpoints); the ABD layer maps a
// node to two endpoints (client + server).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tfr/msg/adversary.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"

namespace tfr::msg {

/// Fixed-shape message; meaning of the payload fields is protocol-defined.
struct Message {
  std::int32_t type = 0;
  std::int32_t from = -1;   ///< sending endpoint
  std::int32_t reg = 0;     ///< logical register id (ABD)
  std::int64_t rid = 0;     ///< request id (matching acks to requests)
  std::int64_t tag = 0;     ///< logical timestamp
  std::int64_t value = 0;
};

class Network {
 public:
  Network(sim::RegisterSpace& space, int endpoints);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int endpoints() const { return endpoints_; }

  /// Attaches the fault adversary (null detaches).  Attach before traffic
  /// flows; verdicts apply to messages sent while attached.
  void set_adversary(NetAdversary* adversary) { adversary_ = adversary; }
  NetAdversary* adversary() const { return adversary_; }

  /// Sends `m` to endpoint `to` (2 shared accesses).  m.from is stamped
  /// with `self`.
  sim::Task<void> send(sim::Env env, int self, int to, Message m);

  /// Sends `m` to every endpoint in [first, last) (including self if in
  /// range).
  sim::Task<void> multicast(sim::Env env, int self, int first, int last,
                            Message m);

  /// One polling sweep over all inbound channels of `self`, starting at a
  /// rotating per-caller index; returns the first deliverable message
  /// found, or nullopt.  Costs one tail read per sender polled
  /// (cache-local when idle) plus one slot read on a hit.
  sim::Task<std::optional<Message>> try_recv(sim::Env env, int self);

  /// Polls until a message arrives.
  sim::Task<Message> recv(sim::Env env, int self);

  /// Polls until a message arrives or `deadline` passes; between empty
  /// sweeps waits `poll_every` ticks so the caller does not spin.
  sim::Task<std::optional<Message>> recv_until(sim::Env env, int self,
                                               sim::Time deadline,
                                               sim::Duration poll_every = 1);

  std::uint64_t messages_sent() const { return sent_; }

 private:
  /// Delivery metadata for one sent slot, written by the sender at send
  /// time (adversary verdict) and consumed by the receiver's sweep —
  /// substrate bookkeeping, same status as the read cursors.
  struct SlotMeta {
    sim::Time deliver_at = 0;  ///< earliest delivery instant
    int copies = 1;            ///< 0 = dropped
  };

  struct Channel {
    Channel(sim::RegisterSpace& space, const std::string& name)
        : slots(space, Message{}, name + ".slot"),
          tail(space, 0, name + ".tail") {}
    sim::RegisterArray<Message> slots;
    sim::Register<int> tail;
    int sender_next = 0;  ///< sender-local: slots written so far
    std::vector<SlotMeta> meta;  ///< sender-appended adversary verdicts
  };

  /// Receiver-local state of one inbound channel.
  struct Inbound {
    Channel* channel = nullptr;
    /// Reliable-path read cursor (with an adversary the scanned/ready
    /// state supersedes it).
    int consumed = 0;
    int scanned = 0;  ///< slots classified so far (<= observed tail)
    struct Held {
      int slot = 0;
      sim::Time deliver_at = 0;
      int copies = 1;
    };
    std::vector<Held> ready;  ///< published, undelivered, not dropped
  };

  /// The receive loop behind try_recv, recv and recv_until: sweeps every
  /// inbound channel of `self` once from the rotating start; on an empty
  /// sweep returns nullopt once now >= deadline, otherwise pauses
  /// `poll_every` ticks (0 = sweep again at once) and sweeps again.
  sim::Task<std::optional<Message>> receive(sim::Env env, int self,
                                            sim::Time deadline,
                                            sim::Duration poll_every);

  Channel& channel(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(endpoints_) +
                      static_cast<std::size_t>(to)];
  }

  int endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// inbound_[receiver * endpoints + sender]: each receiver's row is the
  /// table its sweeps walk.
  std::vector<Inbound> inbound_;
  /// poll_start_[receiver]: rotating sweep start (fairness under load).
  std::vector<int> poll_start_;
  NetAdversary* adversary_ = nullptr;
  std::uint64_t sent_ = 0;
};

}  // namespace tfr::msg
