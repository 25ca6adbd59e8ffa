// Futex-class blocking primitives for the real-thread runtime.
//
// Every rt wait loop used to be an unbounded yield-spin: each waiter kept
// a core busy, so oversubscribed runs (threads > cores) burned CPU
// proportional to the thread count — exactly the regime where the paper's
// timing failures live, and exactly where a measurement harness must not
// perturb the system it measures.  This header provides the two blocking
// substrates that replace those spins:
//
//   * AtomicMutex — a 4-byte std::mutex-compatible lock on C++20
//     std::atomic::wait/notify_one (futex on Linux), with a tunable
//     spin-then-wait budget.  Three states: free, locked, locked with
//     (possible) waiters; unlock syscalls only in the contended case.
//
//   * EventCount + wait_until_changed() — a condition-variable-style
//     eventcount for the algorithms' await-loops, whose predicates read
//     *registers* (often several of them: the black-white bakery waits on
//     ticket_[j] AND color_).  Waiters snapshot the epoch, re-check the
//     predicate, and block until the epoch moves; state writers bump the
//     epoch after any write that can turn a predicate true.  The
//     epoch-before-predicate order (all seq_cst) makes lost wakeups
//     impossible: a writer's state change is visible to any waiter that
//     observed the pre-bump epoch.
//
// The spin budget bridges the two regimes: short critical sections are
// won within a few hundred PAUSE iterations without touching the kernel;
// past the budget the waiter parks and costs nothing until notified.
// Algorithm 3's Δ reasoning is untouched — delay(Δ) is still the precise
// busy-wait spin_for(); only *unbounded* waits (await x = 0, bakery
// scans, turn waits) block.
//
// Both primitives are templates over the Atomics policy (atomics_policy.hpp):
// BasicAtomicMutex<StdAtomics> is the production lock (the AtomicMutex
// alias below — one futex word, identical codegen to the pre-seam class);
// BasicAtomicMutex<ShimAtomics> is the same source code with every atomic
// access routed through the mcheck interposition seam.

#pragma once

#include <atomic>
#include <cstdint>

#include "tfr/rt/atomics_policy.hpp"

namespace tfr::rt {

/// A 4-byte mutex on atomic wait/notify_one (the atomic_sync design).
/// States: kFree, kLocked (no waiter has ever blocked during this hold),
/// kContended (a waiter may be parked: unlock must notify).  Satisfies
/// Lockable, so std::lock_guard / std::unique_lock work.
template <class Atomics>
class BasicAtomicMutex {
 public:
  BasicAtomicMutex() = default;
  BasicAtomicMutex(const BasicAtomicMutex&) = delete;
  BasicAtomicMutex& operator=(const BasicAtomicMutex&) = delete;

  void lock() noexcept(Atomics::kNoexceptOps) {
    spin_lock(Atomics::kSpinBudget);
  }

  /// lock() with an explicit spin budget: try the fast path, spin up to
  /// `spin_budget` relax iterations, then park until notified.
  void spin_lock(unsigned spin_budget) noexcept(Atomics::kNoexceptOps) {
    std::uint32_t expected = kFree;
    if (state_.compare_exchange_strong(
            expected, kLocked,
            std::memory_order_acquire,   // mo-ok: pairs with unlock's release
            std::memory_order_relaxed))  // mo-ok: failed CAS publishes nothing
      return;
    for (unsigned i = 0; i < spin_budget; ++i) {
      Atomics::pause();
      // mo-ok: advisory spin probe; the acquiring CAS below synchronizes
      if (state_.load(std::memory_order_relaxed) == kFree) {
        expected = kFree;
        if (state_.compare_exchange_weak(
                expected, kLocked,
                std::memory_order_acquire,   // mo-ok: pairs with release unlock
                std::memory_order_relaxed))  // mo-ok: failure publishes nothing
          return;
      }
    }
    // Blocking phase.  Claim the lock and advertise contention in one
    // exchange; whoever finds kFree here owns the lock but must leave
    // kContended behind — another waiter may already be parked.
    // mo-ok: acquire on the winning exchange pairs with release unlock
    while (state_.exchange(kContended, std::memory_order_acquire) != kFree)
      state_.wait(kContended, std::memory_order_relaxed);  // mo-ok: advisory futex check; the exchange above synchronizes
  }

  bool try_lock() noexcept(Atomics::kNoexceptOps) {
    std::uint32_t expected = kFree;
    return state_.compare_exchange_strong(
        expected, kLocked,
        std::memory_order_acquire,    // mo-ok: pairs with unlock's release
        std::memory_order_relaxed);
  }

  void unlock() noexcept(Atomics::kNoexceptOps) {
    // mo-ok: release publishes the critical section to the next acquirer
    if (state_.exchange(kFree, std::memory_order_release) == kContended)
      state_.notify_one();
  }

  /// True while any thread holds the lock (diagnostic; racy by nature).
  bool is_locked() const noexcept(Atomics::kNoexceptOps) {
    return state_.load(std::memory_order_relaxed) != kFree;  // mo-ok: diagnostic
  }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kLocked = 1;
  static constexpr std::uint32_t kContended = 2;

  typename Atomics::template atomic<std::uint32_t> state_{kFree};
};

/// The production lock: one futex word, nothing else.
using AtomicMutex = BasicAtomicMutex<StdAtomics>;

static_assert(sizeof(AtomicMutex) == 4,
              "the whole point: one futex word, nothing else");

/// Eventcount: a 4-byte epoch that waiters block on and state writers
/// bump.  The protocol (wait side in wait_until_changed below):
///
///   writer:  write the registers, then advance()
///   waiter:  seen = epoch(); if (!pred()) wait_changed(seen)
///
/// advance() uses notify_all because distinct waiters wait on distinct
/// predicates (different bakery tickets, different turn values); a
/// notify_one could wake only a waiter whose predicate is still false.
template <class Atomics>
class BasicEventCount {
 public:
  BasicEventCount() = default;
  BasicEventCount(const BasicEventCount&) = delete;
  BasicEventCount& operator=(const BasicEventCount&) = delete;

  std::uint32_t epoch() const noexcept(Atomics::kNoexceptOps) {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Publishes "state changed": epoch moves, parked waiters re-check.
  /// Call after the register write(s) the waiters' predicates read.
  void advance() noexcept(Atomics::kNoexceptOps) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
  }

  /// advance() waking a single parked waiter, for an eventcount whose
  /// waiters all await one predicate that the first of them to pass
  /// falsifies again (the Fischer gate's x = 0): waking the rest would
  /// only send them back to sleep.  Progress still holds — whoever
  /// falsifies the predicate will advance again when it turns true.
  void advance_one() noexcept(Atomics::kNoexceptOps) {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_one();
  }

  /// Blocks until the epoch differs from `seen` (wraps are harmless: any
  /// change wakes).  Returns on spurious wakeups too — callers re-check.
  void wait_changed(std::uint32_t seen) const noexcept(Atomics::kNoexceptOps) {
    epoch_.wait(seen, std::memory_order_seq_cst);
  }

 private:
  typename Atomics::template atomic<std::uint32_t> epoch_{0};
};

using EventCount = BasicEventCount<StdAtomics>;

static_assert(sizeof(EventCount) == 4, "one futex word, nothing else");

/// The shared await-loop: spins `spin_budget` relax iterations re-checking
/// `pred`, then parks on `events` until an advance().  `pred` may read any
/// number of registers; correctness only requires that every write that
/// can flip it true is followed by events.advance().
template <class Atomics, class Pred>
inline void wait_until_changed(const BasicEventCount<Atomics>& events,
                               Pred&& pred,
                               unsigned spin_budget = Atomics::kSpinBudget) {
  for (unsigned i = 0; i < spin_budget; ++i) {
    if (pred()) return;
    Atomics::pause();
  }
  for (;;) {
    const std::uint32_t seen = events.epoch();
    if (pred()) return;
    events.wait_changed(seen);
  }
}

}  // namespace tfr::rt
