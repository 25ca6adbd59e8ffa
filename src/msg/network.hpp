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
// the receiver polls tails (cache-local while nothing changes, so an
// idle receiver parks instead of re-reading them) and consumes the
// published slots.  Polling sweeps start at a rotating per-caller index
// so no inbound channel can be starved by sustained load on a
// lower-numbered one.
//
// All three receive calls run one private receive loop: a sweep over the
// receiver's row of a flat [receiver * endpoints + sender] table of
// inbound channels, built once by the constructor.  try_recv is one sweep;
// recv and recv_until sweep until a hit (or the deadline) and park
// between empty sweeps.  A receive call allocates its coroutine frame
// once; idle sweeps allocate nothing.
//
// Check-and-park.  After an empty sweep the receiver holds a cached copy
// of every inbound tail, so re-reading them changes nothing until a
// sender writes one.  Instead of sweeping again it re-checks each tail
// against the count its sweep observed — an untimed compare, the
// substrate's part like a futex's in-kernel compare — and sweeps again
// (after the poll pause) from the first tail that moved, or else parks
// (sim::Simulation::park).  The park ends at the earliest of
//   * a send to this endpoint, right after its tail write linearizes;
//   * the earliest adversary-held slot's delivery instant;
//   * the recv_until deadline;
// but never before the park instant + poll_every, so poll_every stays
// the least gap between sweeps (recv's 0 wakes at the write instant).
// The woken sweep starts at the sender whose send (or held slot) woke
// it: the invalidated line is its first remote read.  Under load a
// receiver never parks, and the rotating start keeps it fair.  Since the
// check and the park happen at one instant, a tail write that lands after
// the sweep read that tail is either seen by the check or finds the
// receiver parked and wakes it; lost_wakeups() audits that.

// One delivery path.  Every sent slot has an entry in its channel's
// in-flight window: the verdict of the NetAdversary attached via
// set_adversary() (drop / duplicate / extra delay, decided at send time
// from a per-channel deterministic stream), or "deliverable at once, one
// copy" with none attached — a reliable channel is the fault-free
// adversary.  Each sweep of a channel reads its tail and delivers the
// published copy with the earliest delivery instant that has arrived
// (ties go to the older slot), so with no faults it consumes slots in
// order; a delayed slot is held until its instant (later slots may
// overtake — reordering), a duplicated one is delivered once more and a
// dropped one never.  The window is substrate bookkeeping like the scan
// cursor: it models the link, not algorithm state, so it is untimed by
// design.
//
// Bounded storage.  A channel is logically x[1..∞], but a slot the
// receiver can never read again is dead state.  After each sweep of a
// channel the receiver pops the window's dead prefix below its scan
// cursor, so the window's front is the channel's low-water mark: the
// lowest published slot still owing a copy, else the scan cursor.  It
// releases the slot chunks below that mark
// (sim::RegisterArray::release_below), so a channel's storage follows its
// in-flight window; only a receiver that stops consuming (crashed, or
// never scheduled) keeps every slot.  live_slot_chunks() audits it.
// Uids, names and every timed access are those of the unbounded array.
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

  /// Polls until a message arrives, parking between empty sweeps.
  sim::Task<Message> recv(sim::Env env, int self);

  /// Polls until a message arrives or `deadline` passes; between empty
  /// sweeps parks at least `poll_every` ticks so the caller does not
  /// spin.
  sim::Task<std::optional<Message>> recv_until(sim::Env env, int self,
                                               sim::Time deadline,
                                               sim::Duration poll_every = 1);

  std::uint64_t messages_sent() const { return sent_; }

  /// Untimed audit: receivers parked while a published slot they have
  /// not scanned waits and no send reached them since they parked.
  /// Always 0 unless the check-and-park is broken.
  std::size_t lost_wakeups() const;

  /// Untimed audit: slot chunks (sim::RegisterArray::kChunkCells slots
  /// each) the channel from -> to keeps live.  Bounded by the channel's
  /// in-flight window: sent slots from its receiver's low-water mark on.
  std::size_t live_slot_chunks(int from, int to) const;

 private:
  /// A sent slot's delivery state: the adversary's verdict, or {0, 1}
  /// with none attached.  Substrate bookkeeping, same status as the scan
  /// cursor.
  struct SlotMeta {
    sim::Time deliver_at = 0;  ///< earliest delivery instant
    int copies = 1;            ///< copies still to deliver; 0 = dead
  };

  /// One SPSC channel: the sender appends to its window, the receiver
  /// sweeps it.
  struct Channel {
    Channel(sim::RegisterSpace& space, const std::string& name)
        : slots(space, Message{}, name + ".slot"),
          tail(space, 0, name + ".tail") {}

    /// The slot the sender writes next.
    int next_slot() const {
      return low + static_cast<int>(window.size() - front);
    }
    SlotMeta& entry(int slot) {
      return window[front + static_cast<std::size_t>(slot - low)];
    }
    /// Receiver side: pops the dead entries at the window's front below
    /// the scan cursor and releases the slot chunks below the new front.
    void pop_dead();

    sim::RegisterArray<Message> slots;
    sim::Register<int> tail;
    /// The in-flight window: window[front + i] is slot low + i's entry,
    /// from the low-water mark to the newest slot sent; entries before
    /// `front` are popped and await compaction.
    std::vector<SlotMeta> window;
    std::size_t front = 0;
    int low = 0;      ///< low-water mark: slots below it are dead
    int scanned = 0;  ///< scan cursor: the tail the receiver last read
  };

  /// A receiver's park on its endpoint (see the header's check-and-park).
  struct Parked {
    sim::Pid pid = -1;         ///< the parked receiver; -1 = none
    sim::Time not_before = 0;  ///< park instant + poll_every
    int first = -1;            ///< sender the woken sweep reads first
    bool signalled = false;    ///< a send has reached it since it parked
  };

  /// The receive loop behind try_recv, recv and recv_until: sweeps every
  /// inbound channel of `self` once from the rotating start; on an empty
  /// sweep returns nullopt once now >= deadline, otherwise check-and-parks
  /// (at least `poll_every` ticks) and sweeps again.
  sim::Task<std::optional<Message>> receive(sim::Env env, int self,
                                            sim::Time deadline,
                                            sim::Duration poll_every);

  Channel& channel(int from, int to) const {
    return *channels_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(endpoints_) +
                      static_cast<std::size_t>(to)];
  }

  int endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;
  /// inbound_[receiver * endpoints + sender]: each receiver's row is the
  /// table its sweeps walk.
  std::vector<Channel*> inbound_;
  /// poll_start_[receiver]: rotating sweep start (fairness under load).
  std::vector<int> poll_start_;
  /// parked_[receiver]: its park, while it sleeps in receive().
  std::vector<Parked> parked_;
  NetAdversary* adversary_ = nullptr;
  std::uint64_t sent_ = 0;
};

}  // namespace tfr::msg
