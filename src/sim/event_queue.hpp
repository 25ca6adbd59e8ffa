// The simulator's pending-event queue: a bucket queue over virtual time
// that pops events in (when, seq) order, where seq is push order.
//
// In the paper's model every shared access costs an integer time of at
// most Δ, so nearly every pending event is due a few ticks after `now`.
// The queue is built for that:
//
//  - A ring of kWindow per-instant FIFO slots covers [now, now + kWindow).
//    A push due inside the window is appended to its instant's slot, so
//    same-instant events keep push order without a comparison.  A 64-bit
//    occupancy mask plus a count-trailing-zeros finds the earliest
//    non-empty slot.
//  - Events due at now + kWindow or later wait in a (when, seq) binary
//    heap.  advance(now) moves every heap event whose instant has entered
//    the window into its slot, in heap order.  That happens before any
//    direct push can reach the instant (a direct push needs the instant
//    in the window), so each slot stays in seq order.
//  - Every pending event, in a slot or in the heap, is a node of one
//    vector with a free list.  A slot is a head/tail index pair; the heap
//    is an array of node indices stored in the nodes themselves (entry i
//    in node i, which exists because the heap never holds more entries
//    than there are nodes).  So the node vector is the queue's only
//    storage: it grows exactly as a vector holding the pending events
//    would, and clear() keeps it, so a queue that is cleared and refilled
//    (Simulation::reset) stops allocating once it has held its peak
//    number of pending events.
//
// The window follows the simulation clock: the owner calls advance() at
// every clock update, not at every pop.  The simulator's FIFO loop pops
// crashed events without moving the clock, and a later push due at `now`
// must still come out before every event due after `now`.
//
// Requirements: Event has integer `when` and `seq` members, pushes are
// due at or after the last advance() instant, and advance() never moves
// the clock past a pending event.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "tfr/sim/types.hpp"

namespace tfr::sim {

template <class Event>
class EventQueue {
 public:
  /// Instants the ring covers; a power of two no wider than the mask.
  static constexpr Time kWindow = 64;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The earliest (when, seq) event.  Requires !empty().  The reference
  /// is invalidated by the next emplace().
  const Event& top() const {
    return nodes_[mask_ != 0 ? head_[front_slot()] : heap_at(0)].event;
  }

  /// Adds Event{args...}, built in place in its node.
  template <class... Args>
  void emplace(Args&&... args) {
    ++size_;
    std::uint32_t index = free_;
    if (index != kNil) {
      free_ = nodes_[index].next;
    } else {
      index = new_node();
    }
    // Constructed in place: a copy from a temporary would be built on the
    // stack and reloaded in wider words than it was stored in.
    const Event& event =
        *::new (&nodes_[index].event) Event{std::forward<Args>(args)...};
    if (event.when - base_ < kWindow) {
      append(index);
    } else {
      push_overflow(index);
    }
  }

  /// Removes top().  Requires !empty().
  void pop() {
    --size_;
    std::uint32_t index;
    if (mask_ != 0) {
      const unsigned slot = front_slot();
      index = head_[slot];
      head_[slot] = nodes_[index].next;
      if (head_[slot] == kNil) mask_ &= ~(std::uint64_t{1} << slot);
    } else {
      index = pop_overflow();
    }
    nodes_[index].next = free_;
    free_ = index;
  }

  /// Moves the window to start at `now` (the clock's new value).
  void advance(Time now) {
    if (now == base_) return;
    base_ = now;
    while (overflow_size_ != 0 &&
           nodes_[heap_at(0)].event.when - base_ < kWindow)
      append(pop_overflow());
  }

  /// Drops every event and restarts the window at 0; keeps all storage.
  void clear() {
    nodes_.clear();
    free_ = kNil;
    mask_ = 0;
    base_ = 0;
    size_ = 0;
    overflow_size_ = 0;
  }

  /// Calls f(event) for every pending event, in no particular order.
  template <class F>
  void for_each(F&& f) const {
    for (std::uint64_t bits = mask_; bits != 0; bits &= bits - 1) {
      const auto slot = static_cast<unsigned>(std::countr_zero(bits));
      for (std::uint32_t i = head_[slot]; i != kNil; i = nodes_[i].next)
        f(nodes_[i].event);
    }
    for (std::size_t i = 0; i < overflow_size_; ++i)
      f(nodes_[heap_at(i)].event);
  }

 private:
  static_assert((kWindow & (kWindow - 1)) == 0 && kWindow <= 64);
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr auto kSlotMask = static_cast<unsigned>(kWindow - 1);

  struct Node {
    Event event;
    std::uint32_t next;  ///< next node in its slot, or in the free list
    std::uint32_t heap;  ///< heap array entry i lives in nodes_[i].heap
  };

  /// Slot of the earliest occupied instant: rotate the mask so bit 0 is
  /// the slot of `base_`, then count trailing zeros.  Requires mask_ != 0.
  unsigned front_slot() const {
    const unsigned shift = static_cast<unsigned>(base_) & kSlotMask;
    const auto offset =
        static_cast<unsigned>(std::countr_zero(std::rotr(mask_, shift)));
    return (shift + offset) & kSlotMask;
  }

  /// Appends node `index` to the FIFO slot of its instant.
  void append(std::uint32_t index) {
    nodes_[index].next = kNil;
    const unsigned slot =
        static_cast<unsigned>(nodes_[index].event.when) & kSlotMask;
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if ((mask_ & bit) != 0) {
      nodes_[tail_[slot]].next = index;
    } else {
      head_[slot] = index;
      mask_ |= bit;
    }
    tail_[slot] = index;
  }

  // The overflow heap: a binary min-heap over (when, seq) whose array
  // entry i is nodes_[i].heap.
  std::uint32_t& heap_at(std::size_t i) { return nodes_[i].heap; }
  std::uint32_t heap_at(std::size_t i) const { return nodes_[i].heap; }
  bool earlier(std::uint32_t a, std::uint32_t b) const {
    const Event& x = nodes_[a].event;
    const Event& y = nodes_[b].event;
    return x.when != y.when ? x.when < y.when : x.seq < y.seq;
  }

  /// Out of line, like the heap paths below, so emplace() stays small
  /// enough to inline where the event is built.
  [[gnu::noinline]] std::uint32_t new_node() {
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  [[gnu::noinline]] void push_overflow(std::uint32_t index) {
    std::size_t i = overflow_size_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(index, heap_at(parent))) break;
      heap_at(i) = heap_at(parent);
      i = parent;
    }
    heap_at(i) = index;
  }

  /// Removes and returns the heap's earliest node.  Requires a non-empty
  /// heap.
  [[gnu::noinline]] std::uint32_t pop_overflow() {
    const std::uint32_t earliest = heap_at(0);
    const std::uint32_t last = heap_at(--overflow_size_);
    std::size_t i = 0;
    for (std::size_t child = 1; child < overflow_size_; child = 2 * i + 1) {
      if (child + 1 < overflow_size_ && earlier(heap_at(child + 1),
                                                heap_at(child)))
        ++child;
      if (!earlier(heap_at(child), last)) break;
      heap_at(i) = heap_at(child);
      i = child;
    }
    heap_at(i) = last;
    return earliest;
  }

  std::vector<Node> nodes_;
  std::uint32_t head_[kWindow] = {};
  std::uint32_t tail_[kWindow] = {};
  std::uint32_t free_ = kNil;
  std::uint64_t mask_ = 0;  ///< bit s set iff slot s is non-empty
  Time base_ = 0;           ///< first instant of the window (= the clock)
  std::size_t size_ = 0;
  std::size_t overflow_size_ = 0;  ///< entries in the heap array
};

}  // namespace tfr::sim
