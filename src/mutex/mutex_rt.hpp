// Mutual-exclusion algorithms — real-thread edition (atomic registers).
//
// Same algorithm set as mutex_sim.hpp; see that header for the catalogue
// and the role each plays in the paper.  Every unbounded await-loop
// blocks on the lock's eventcount (rt/atomic_mutex.hpp) after a short
// spin budget instead of yield-spinning, so waiters cost no CPU on
// machines with fewer cores than threads — delay(Δ) itself stays a
// precise busy-wait, which is all the Δ reasoning needs (docs/MODEL.md
// "Blocking lock substrate").  Protocol: any register write that can
// turn some waiter's predicate true is followed by events_.advance().
//
// Every algorithm is a template over the Atomics policy
// (rt/atomics_policy.hpp).  The Basic*<StdAtomics> instantiations — the
// unsuffixed aliases below, explicitly instantiated in mutex_rt.cpp —
// are the production locks and compile to exactly the pre-seam code
// (std::atomic cells, real busy-waits, noexcept-able ops).  The same
// source instantiated with ShimAtomics (rt/shim/shim_atomic.hpp) runs
// under the mcheck interposition seam, where the explorer owns every
// interleaving and access duration; that is how the model checker checks
// the *real* rt code instead of a parallel transcription of it.
//
// Injection points (see registers/fault_injector.hpp):
//   "fischer.gate"  — between reading x = 0 and writing x := i; stalling
//                     here longer than Δ reproduces the classic mutual-
//                     exclusion violation of §3.1.  (Under the shim the
//                     explorer's failure-cost menu plays this role and
//                     `faults` stays null.)

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tfr/adapt/controller.hpp"
#include "tfr/common/contracts.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/registers/fault_injector.hpp"
#include "tfr/rt/atomic_mutex.hpp"
#include "tfr/rt/atomics_policy.hpp"

namespace tfr::rt {

template <class Atomics>
class BasicRtMutex {
 public:
  virtual ~BasicRtMutex() = default;
  virtual void lock(int id) = 0;
  virtual void unlock(int id) = 0;
  virtual std::string name() const = 0;
};

using RtMutex = BasicRtMutex<StdAtomics>;

namespace detail {

template <class Atomics>
std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> make_int_registers(
    int n, int init) {
  auto regs = std::make_unique<BasicAtomicRegister<int, Atomics>[]>(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) regs[static_cast<std::size_t>(i)].write(init);
  return regs;
}

/// Raises a ticket statistic to `ticket` (a relaxed max: the statistic
/// orders nothing).
template <class Counter>
void note_ticket(Counter& max_ticket, int ticket) {
  int seen = max_ticket.load(std::memory_order_relaxed);  // mo-ok: statistic
  while (seen < ticket &&
         !max_ticket.compare_exchange_weak(
             seen, ticket, std::memory_order_relaxed)) {  // mo-ok: statistic
  }
}

}  // namespace detail

// --------------------------------------------------------------------------
// Fischer
//
// Wait/notify protocol (shared by every algorithm below): waiters park on
// the lock's eventcount via wait_until_changed; every write that can turn
// some waiter's predicate true is followed by events_.advance().  Writes
// that only *falsify* predicates (x := me, flag := 1, choosing := 1, the
// doorway's ticket grab) never need an advance — nobody waits for them.

/// Algorithm 2 — Fischer's timing-based mutex on real threads.  `delta`
/// should be optimistic(Δ); ME holds only while no step outlasts it.
template <class Atomics>
class BasicFischerRt final : public BasicRtMutex<Atomics> {
 public:
  using Duration = typename Atomics::duration;

  explicit BasicFischerRt(Duration delta, FaultInjector* faults = nullptr)
      : delta_(delta), faults_(faults) {
    TFR_REQUIRE(Atomics::count(delta) >= 0);
  }

  void lock(int id) override {
    const int me = id + 1;
    bool first_attempt = true;
    for (;;) {
      wait_until_changed(events_, [&] { return x_.read() == 0; });  // await (x = 0)
      // The gate's vulnerable window: a stall here longer than Δ is exactly
      // the timing failure that breaks mutual exclusion (§3.1).
      maybe_stall(faults_, "fischer.gate");
      x_.write(me);
      Atomics::delay(current_delta());
      if (x_.read() == me) {
        if (controller_ != nullptr && first_attempt) controller_->on_clean();
        return;
      }
      first_attempt = false;
      if (controller_ != nullptr) controller_->on_failure();
    }
  }

  void unlock(int /*id*/) override {
    x_.write(0);
    events_.advance();
  }

  std::string name() const override { return "fischer"; }

  /// Attaches an adaptive Δ controller: delay(Δ) waits the controller's
  /// current estimate, losing the Fischer check reports on_failure() and a
  /// first-try admission reports on_clean().  Share one controller across
  /// threads only if it is thread-safe (adapt::Aimd).  NOT advisory
  /// here: Fischer's ME genuinely depends on the bound, so an optimistic
  /// estimate makes violations more likely — exactly the exposure
  /// Algorithm 3 (BasicTfrMutexRt) exists to remove.
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

 private:
  Duration current_delta() const {
    return controller_ != nullptr ? Duration(controller_->current()) : delta_;
  }

  Duration delta_;
  FaultInjector* faults_;
  adapt::DeltaController* controller_ = nullptr;
  BasicAtomicRegister<int, Atomics> x_{0};
  BasicEventCount<Atomics> events_;
};

using FischerRt = BasicFischerRt<StdAtomics>;

// --------------------------------------------------------------------------
// Lamport's fast mutex

/// Lamport's fast mutex (deadlock-free, not starvation-free).
template <class Atomics>
class BasicLamportFastRt final : public BasicRtMutex<Atomics> {
 public:
  explicit BasicLamportFastRt(int n)
      : n_(n), b_(detail::make_int_registers<Atomics>(n, 0)) {
    TFR_REQUIRE(n >= 1);
  }

  void lock(int id) override {
    TFR_REQUIRE(id >= 0 && id < n_);
    const int me = id + 1;
    for (;;) {  // start:
      b_[static_cast<std::size_t>(id)].write(1);
      x_.write(me);
      if (y_.read() != 0) {
        b_[static_cast<std::size_t>(id)].write(0);
        events_.advance();
        wait_until_changed(events_, [&] { return y_.read() == 0; });
        continue;
      }
      y_.write(me);
      if (x_.read() != me) {
        b_[static_cast<std::size_t>(id)].write(0);
        events_.advance();
        for (int j = 0; j < n_; ++j) {
          wait_until_changed(events_, [&, j] {
            return b_[static_cast<std::size_t>(j)].read() == 0;
          });
        }
        if (y_.read() != me) {
          wait_until_changed(events_, [&] { return y_.read() == 0; });
          continue;
        }
      }
      return;
    }
  }

  void unlock(int id) override {
    y_.write(0);
    b_[static_cast<std::size_t>(id)].write(0);
    events_.advance();
  }

  std::string name() const override { return "lamport-fast"; }

 private:
  int n_;
  BasicAtomicRegister<int, Atomics> x_{0};
  BasicAtomicRegister<int, Atomics> y_{0};
  std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> b_;
  BasicEventCount<Atomics> events_;
};

using LamportFastRt = BasicLamportFastRt<StdAtomics>;

// --------------------------------------------------------------------------
// Bakery

/// Lamport's bakery (starvation-free, FIFO, unbounded tickets).
template <class Atomics>
class BasicBakeryRt final : public BasicRtMutex<Atomics> {
 public:
  explicit BasicBakeryRt(int n)
      : n_(n),
        choosing_(detail::make_int_registers<Atomics>(n, 0)),
        number_(detail::make_int_registers<Atomics>(n, 0)) {
    TFR_REQUIRE(n >= 1);
  }

  void lock(int id) override {
    TFR_REQUIRE(id >= 0 && id < n_);
    choosing_[static_cast<std::size_t>(id)].write(1);
    int max_seen = 0;
    for (int j = 0; j < n_; ++j) {
      if (j == id) continue;
      max_seen =
          std::max(max_seen, number_[static_cast<std::size_t>(j)].read());
    }
    const int mine = max_seen + 1;
    detail::note_ticket(max_ticket_, mine);
    number_[static_cast<std::size_t>(id)].write(mine);
    choosing_[static_cast<std::size_t>(id)].write(0);
    events_.advance();
    for (int j = 0; j < n_; ++j) {
      if (j == id) continue;
      wait_until_changed(events_, [&, j] {
        return choosing_[static_cast<std::size_t>(j)].read() == 0;
      });
      wait_until_changed(events_, [&, j, mine] {
        const int nj = number_[static_cast<std::size_t>(j)].read();
        return nj == 0 || nj > mine || (nj == mine && j > id);
      });
    }
  }

  void unlock(int id) override {
    number_[static_cast<std::size_t>(id)].write(0);
    events_.advance();
  }

  std::string name() const override { return "bakery"; }

  /// Largest ticket ever taken (the boundedness contrast with the
  /// black-white bakery).
  int max_ticket() const {
    return max_ticket_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }

 private:
  int n_;
  std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> choosing_;
  std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> number_;
  BasicEventCount<Atomics> events_;
  typename Atomics::template counter<int> max_ticket_{0};
};

using BakeryRt = BasicBakeryRt<StdAtomics>;

// --------------------------------------------------------------------------
// Black-white bakery

/// Taubenfeld's black-white bakery (starvation-free, bounded tickets).
template <class Atomics>
class BasicBlackWhiteBakeryRt final : public BasicRtMutex<Atomics> {
 public:
  explicit BasicBlackWhiteBakeryRt(int n)
      : n_(n),
        choosing_(detail::make_int_registers<Atomics>(n, 0)),
        ticket_(std::make_unique<BasicAtomicRegister<Ticket, Atomics>[]>(
            static_cast<std::size_t>(n))),
        mycolor_(static_cast<std::size_t>(n), 0) {
    TFR_REQUIRE(n >= 1);
    for (int i = 0; i < n; ++i)
      ticket_[static_cast<std::size_t>(i)].write(Ticket{});
  }

  void lock(int id) override {
    TFR_REQUIRE(id >= 0 && id < n_);
    choosing_[static_cast<std::size_t>(id)].write(1);
    const int mycolor = color_.read();
    mycolor_[static_cast<std::size_t>(id)] = mycolor;
    int max_seen = 0;
    for (int j = 0; j < n_; ++j) {
      if (j == id) continue;
      const Ticket t = ticket_[static_cast<std::size_t>(j)].read();
      if (t.num != 0 && t.color == mycolor)
        max_seen = std::max(max_seen, t.num);
    }
    const int mine = max_seen + 1;
    detail::note_ticket(max_ticket_, mine);
    ticket_[static_cast<std::size_t>(id)].write(
        Ticket{static_cast<std::int32_t>(mycolor),
               static_cast<std::int32_t>(mine)});
    choosing_[static_cast<std::size_t>(id)].write(0);
    events_.advance();
    for (int j = 0; j < n_; ++j) {
      if (j == id) continue;
      wait_until_changed(events_, [&, j] {
        return choosing_[static_cast<std::size_t>(j)].read() == 0;
      });
      // Multi-register predicate (ticket_[j] AND color_): both unblocking
      // transitions — j clearing its ticket, the generation color flipping —
      // happen in some unlock(), which advances the shared eventcount.
      wait_until_changed(events_, [&, j, mine, mycolor] {
        const Ticket t = ticket_[static_cast<std::size_t>(j)].read();
        if (t.num == 0) return true;
        if (t.color == mycolor)
          return t.num > mine || (t.num == mine && j > id);
        return color_.read() != mycolor;  // we are the old generation
      });
    }
  }

  void unlock(int id) override {
    color_.write(1 - mycolor_[static_cast<std::size_t>(id)]);
    ticket_[static_cast<std::size_t>(id)].write(Ticket{});
    events_.advance();
  }

  std::string name() const override { return "bw-bakery"; }

  /// Largest ticket ever taken: at most n, the point of the colours.
  int max_ticket() const {
    return max_ticket_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }

 private:
  struct Ticket {
    std::int32_t color = 0;
    std::int32_t num = 0;  ///< 0 = not competing
  };

  int n_;
  BasicAtomicRegister<int, Atomics> color_{0};
  std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> choosing_;
  std::unique_ptr<BasicAtomicRegister<Ticket, Atomics>[]> ticket_;
  std::vector<int> mycolor_;
  BasicEventCount<Atomics> events_;
  typename Atomics::template counter<int> max_ticket_{0};
};

using BlackWhiteBakeryRt = BasicBlackWhiteBakeryRt<StdAtomics>;

// --------------------------------------------------------------------------
// Starvation-free doorway

/// Deadlock-free → starvation-free doorway transformation (see
/// mutex/starvation_free_sim.cpp for the argument).
template <class Atomics>
class BasicStarvationFreeRt final : public BasicRtMutex<Atomics> {
 public:
  BasicStarvationFreeRt(int n, std::unique_ptr<BasicRtMutex<Atomics>> inner)
      : n_(n),
        inner_(std::move(inner)),
        flag_(detail::make_int_registers<Atomics>(n, 0)) {
    TFR_REQUIRE(n >= 1);
    TFR_REQUIRE(inner_ != nullptr);
  }

  void lock(int id) override {
    TFR_REQUIRE(id >= 0 && id < n_);
    flag_[static_cast<std::size_t>(id)].write(1);
    wait_until_changed(events_, [&] {
      const int t = turn_.read();
      return t == id || flag_[static_cast<std::size_t>(t)].read() == 0;
    });
    inner_->lock(id);
  }

  void unlock(int id) override {
    flag_[static_cast<std::size_t>(id)].write(0);
    const int t = turn_.read();
    if (flag_[static_cast<std::size_t>(t)].read() == 0)
      turn_.write((t + 1) % n_);
    events_.advance();
    inner_->unlock(id);
  }

  std::string name() const override {
    return "starvation-free(" + inner_->name() + ")";
  }

 private:
  int n_;
  std::unique_ptr<BasicRtMutex<Atomics>> inner_;
  std::unique_ptr<BasicAtomicRegister<int, Atomics>[]> flag_;
  BasicAtomicRegister<int, Atomics> turn_{0};
  BasicEventCount<Atomics> events_;
};

using StarvationFreeRt = BasicStarvationFreeRt<StdAtomics>;

// --------------------------------------------------------------------------
// Algorithm 3

/// Algorithm 3 — the time-resilient mutex: Fischer filter around an inner
/// asynchronous algorithm A.
template <class Atomics>
class BasicTfrMutexRt final : public BasicRtMutex<Atomics> {
 public:
  using Duration = typename Atomics::duration;

  BasicTfrMutexRt(Duration delta,
                  std::unique_ptr<BasicRtMutex<Atomics>> inner,
                  FaultInjector* faults = nullptr)
      : delta_(delta), inner_(std::move(inner)), faults_(faults) {
    TFR_REQUIRE(Atomics::count(delta) >= 0);
    TFR_REQUIRE(inner_ != nullptr);
  }

  void lock(int id) override {
    const int me = id + 1;
    bool first_attempt = true;
    for (;;) {
      wait_until_changed(events_, [&] { return x_.read() == 0; });
      maybe_stall(faults_, "fischer.gate");
      x_.write(me);
      // delay(Δ) stays a precise busy-wait; with a controller attached the
      // wait is its current estimate instead of the static bound.
      Atomics::delay(controller_ != nullptr ? Duration(controller_->current())
                                            : delta_);
      if (x_.read() == me) break;
      first_attempt = false;
      if (controller_ != nullptr) controller_->on_failure();
    }
    (first_attempt ? first_try_ : retried_)
        .fetch_add(1, std::memory_order_relaxed);  // mo-ok: statistics counter
    if (controller_ != nullptr && first_attempt) controller_->on_clean();
    inner_->lock(id);
  }

  void unlock(int id) override {
    inner_->unlock(id);
    if (x_.read() == id + 1) {
      x_.write(0);
      // Every gate waiter awaits x = 0 and the first to pass rewrites x,
      // so one wakeup suffices; waking all of them on every handoff is a
      // thundering herd that bills oversubscribed runs a context switch
      // per parked waiter.
      events_.advance_one();
    }
  }

  std::string name() const override { return "tfr(" + inner_->name() + ")"; }

  std::uint64_t first_try_admissions() const {
    return first_try_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }
  std::uint64_t retried_admissions() const {
    return retried_.load(std::memory_order_relaxed);  // mo-ok: statistic
  }

  /// Attaches an adaptive Δ controller: the Fischer filter's delay waits
  /// the controller's current estimate, a failed filter check reports
  /// on_failure() and a first-try admission reports on_clean().  Share one
  /// controller across threads only if it is thread-safe
  /// (adapt::Aimd).  Advisory: the inner algorithm A provides mutual
  /// exclusion under ANY timing, so a mistuned estimate costs retries,
  /// never safety — the mcheck mistuned-controller scenario verifies this.
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

 private:
  Duration delta_;
  std::unique_ptr<BasicRtMutex<Atomics>> inner_;
  FaultInjector* faults_;
  adapt::DeltaController* controller_ = nullptr;
  BasicAtomicRegister<int, Atomics> x_{0};
  BasicEventCount<Atomics> events_;
  typename Atomics::template counter<std::uint64_t> first_try_{0};
  typename Atomics::template counter<std::uint64_t> retried_{0};
};

using TfrMutexRt = BasicTfrMutexRt<StdAtomics>;

/// The paper's recommended instantiation of Algorithm 3: A = starvation-
/// free transformation of Lamport's fast mutex.
template <class Atomics>
std::unique_ptr<BasicTfrMutexRt<Atomics>> make_basic_tfr_mutex(
    int n, typename Atomics::duration delta, FaultInjector* faults = nullptr) {
  auto fast = std::make_unique<BasicLamportFastRt<Atomics>>(n);
  auto a = std::make_unique<BasicStarvationFreeRt<Atomics>>(n, std::move(fast));
  return std::make_unique<BasicTfrMutexRt<Atomics>>(delta, std::move(a),
                                                    faults);
}

std::unique_ptr<TfrMutexRt> make_tfr_mutex_rt(int n, Nanos delta,
                                              FaultInjector* faults = nullptr);

// The production instantiations live in mutex_rt.cpp — one definition of
// the StdAtomics codegen for every target that links tfr_mutex.
extern template class BasicFischerRt<StdAtomics>;
extern template class BasicLamportFastRt<StdAtomics>;
extern template class BasicBakeryRt<StdAtomics>;
extern template class BasicBlackWhiteBakeryRt<StdAtomics>;
extern template class BasicStarvationFreeRt<StdAtomics>;
extern template class BasicTfrMutexRt<StdAtomics>;

// ---------------------------------------------------------------------------
// Harness: n threads cycling NCS → lock → CS → unlock with an occupancy
// probe that counts mutual-exclusion violations.  CS/NCS residency uses
// sleep_spin_for, so only the locks' own spin budgets burn CPU; the
// CPU-time/wall-time ratio of the whole run is the core-burning
// detector — ~1 (or below, with sleeping phases) for blocking locks,
// ~min(threads, cores) for spinning ones.

struct RtWorkloadConfig {
  int threads = 2;
  int sessions = 100;
  Nanos cs_time{500};
  Nanos ncs_time{500};
};

struct RtWorkloadResult {
  std::uint64_t violations = 0;   ///< CS occupancy > 1 observations
  std::uint64_t cs_entries = 0;
  Nanos max_wait{0};              ///< longest lock() latency
  Nanos p99_wait{0};              ///< 99th-percentile lock() latency
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;       ///< process CPU time over the run

  /// The core-burning detector: CPU time per unit wall time.
  double cpu_wall_ratio() const {
    return wall_seconds > 0 ? cpu_seconds / wall_seconds : 0.0;
  }
};

RtWorkloadResult run_rt_mutex_workload(RtMutex& mutex,
                                       RtWorkloadConfig config);

}  // namespace tfr::rt
