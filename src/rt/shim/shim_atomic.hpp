// shim::atomic — std::atomic-compatible cells that route every operation
// through the mcheck interposition seam (rt_exec.hpp), plus the
// ShimAtomics policy that plugs them into the templated rt algorithms.
//
// On an algorithm thread each method builds an Op on the caller's stack,
// posts it to the thread's pump and blocks until the explorer linearizes
// it; off-thread (scenario construction, verdict closures) the methods
// fall back to untimed peek/poke, which is the correct semantics for
// initialization and post-run inspection.  RMWs linearize as a single
// write-classified event whose new value is computed at the linearization
// instant — exchange/CAS/fetch_add are atomic at their linearization
// point exactly as on hardware.  A failed CAS performs (and accounts) a
// read instead of a write.
//
// Memory orders are accepted for API compatibility and deliberately
// ignored: the simulation linearizes every access into one total order,
// i.e. everything is modeled seq_cst.  That is sound for the algorithms
// here (whose arguments assume seq_cst, see registers/atomic_register.hpp)
// but means the shim cannot exhibit relaxed-memory-only bugs; the shared
// access lint (scripts/lint_shared_access.py) separately flags non-seq_cst
// orders in rt code for human review.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "tfr/common/contracts.hpp"
#include "tfr/rt/shim/rt_exec.hpp"

namespace tfr::rtshim {

namespace detail {

template <class T>
struct LoadOp final : Op {
  const sim::Register<T>* reg;
  T result{};

  explicit LoadOp(const sim::Register<T>* r) : Op(Kind::kLoad), reg(r) {
    reg_uid = r->uid();
    is_write = false;
  }

  bool apply(sim::Simulation& sim, sim::Pid pid, sim::Time issued) override {
    const bool remote = reg->note_read_rmr(pid);
    sim.note_read(pid, remote);
    if (sim.trace_sink() != nullptr) {
      sim.emit({issued, pid, obs::EventKind::kRead, sim.now() - issued,
                remote ? 1 : 0, sim.trace_label(reg->name())});
    }
    result = reg->load_linearized();
    return false;
  }
};

template <class T>
struct StoreOp final : Op {
  sim::Register<T>* reg;
  T value;

  StoreOp(sim::Register<T>* r, T v)
      : Op(Kind::kStore), reg(r), value(std::move(v)) {
    reg_uid = r->uid();
    is_write = true;
  }

  bool apply(sim::Simulation& sim, sim::Pid pid, sim::Time issued) override {
    sim.note_write(pid);
    reg->note_write_rmr(pid);
    if (sim.trace_sink() != nullptr) {
      std::int64_t traced = 0;
      if constexpr (std::is_convertible_v<T, std::int64_t>)
        traced = static_cast<std::int64_t>(value);
      sim.emit({issued, pid, obs::EventKind::kWrite, sim.now() - issued,
                traced, sim.trace_label(reg->name())});
    }
    reg->store_linearized(std::move(value));
    return false;
  }
};

/// Read-modify-write: `f(prior)` returns the value to store, or nullopt
/// to store nothing (failed CAS).  Scheduled as a write (conservative
/// conflict class either way); accounted by what actually happened.
template <class T, class F>
struct RmwOp final : Op {
  sim::Register<T>* reg;
  F f;
  T prior{};

  RmwOp(sim::Register<T>* r, F fn)
      : Op(Kind::kRmw), reg(r), f(std::move(fn)) {
    reg_uid = r->uid();
    is_write = true;
  }

  bool apply(sim::Simulation& sim, sim::Pid pid, sim::Time issued) override {
    const std::optional<T> next = f(static_cast<const T&>(reg->peek()));
    if (next.has_value()) {
      sim.note_write(pid);
      reg->note_write_rmr(pid);
      prior = reg->peek();
      if (sim.trace_sink() != nullptr) {
        std::int64_t traced = 0;
        if constexpr (std::is_convertible_v<T, std::int64_t>)
          traced = static_cast<std::int64_t>(*next);
        sim.emit({issued, pid, obs::EventKind::kWrite, sim.now() - issued,
                  traced, sim.trace_label(reg->name())});
      }
      reg->store_linearized(*next);
    } else {
      const bool remote = reg->note_read_rmr(pid);
      sim.note_read(pid, remote);
      if (sim.trace_sink() != nullptr) {
        sim.emit({issued, pid, obs::EventKind::kRead, sim.now() - issued,
                  remote ? 1 : 0, sim.trace_label(reg->name())});
      }
      prior = reg->load_linearized();
    }
    return false;
  }
};

/// atomic::wait(old): a scheduled read that parks atomically at its
/// linearization instant iff the value still equals `old`.
template <class T>
struct WaitOp final : Op {
  const sim::Register<T>* reg;
  T old;
  WaitList* list;

  WaitOp(const sim::Register<T>* r, T o, WaitList* l)
      : Op(Kind::kWait), reg(r), old(std::move(o)), list(l) {
    reg_uid = r->uid();
    is_write = false;
  }

  bool apply(sim::Simulation& sim, sim::Pid pid, sim::Time issued) override {
    const bool remote = reg->note_read_rmr(pid);
    sim.note_read(pid, remote);
    if (sim.trace_sink() != nullptr) {
      sim.emit({issued, pid, obs::EventKind::kRead, sim.now() - issued,
                remote ? 1 : 0, sim.trace_label(reg->name())});
    }
    return reg->load_linearized() == old;
  }

  WaitList* wait_list() override { return list; }
};

/// notify_one/notify_all: immediate op; every parked waiter is
/// rescheduled (via a zero-cost callback at the current instant) for a
/// fresh check-and-park read.  Waking "too many" waiters is within the
/// spurious-wakeup license of std::atomic::wait.
struct NotifyOp final : Op {
  WaitList* list;

  explicit NotifyOp(WaitList* l) : Op(Kind::kNotify), list(l) {}

  void immediate(RtExecution&, sim::Simulation& sim) override {
    for (std::coroutine_handle<> h : list->handles)
      sim.schedule_callback(sim.now(), [h] { h.resume(); });
    list->handles.clear();
  }
};

/// delay(d): the paper's delay statement, in simulated ticks.
struct DelayOp final : Op {
  explicit DelayOp(sim::Duration d) : Op(Kind::kDelay) { delay = d; }

  bool apply(sim::Simulation& sim, sim::Pid pid, sim::Time) override {
    sim.note_delay(pid, delay);
    sim.emit({sim.now() - delay, pid, obs::EventKind::kDelay, delay, 0, 0});
    return false;
  }
};

inline sim::RegisterSpace& current_space() {
  RtExecution* exec = RtExecution::current();
  TFR_REQUIRE(exec != nullptr);  // shim cells need a live RtExecution
  return exec->sim().space();
}

}  // namespace detail

/// The shim cell.  API-compatible with the std::atomic<T> subset the rt
/// algorithms use; must be constructed while an RtExecution is live
/// (scenario setup), which binds the cell's register to that simulation.
template <class T>
class atomic {
 public:
  atomic() : atomic(T{}) {}
  atomic(T v) : reg_(detail::current_space(), std::move(v)) {}

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const {
    if (detail::current_slot() == nullptr) return reg_.peek();
    detail::LoadOp<T> op(&reg_);
    detail::post_op(op);
    return op.result;
  }

  void store(T v, std::memory_order = std::memory_order_seq_cst) {
    if (detail::current_slot() == nullptr) {
      reg_.poke(std::move(v));
      return;
    }
    detail::StoreOp<T> op(&reg_, std::move(v));
    detail::post_op(op);
  }

  T exchange(T v, std::memory_order = std::memory_order_seq_cst) {
    return rmw([v](const T&) { return std::optional<T>(v); });
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order = std::memory_order_seq_cst,
      std::memory_order = std::memory_order_seq_cst) {
    const T want = expected;
    const T prior = rmw([want, desired](const T& current) {
      return current == want ? std::optional<T>(desired) : std::nullopt;
    });
    if (prior == want) return true;
    expected = prior;
    return false;
  }

  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    // No spurious failure under the seam: weak == strong.
    return compare_exchange_strong(expected, desired, success, failure);
  }

  T fetch_add(T d, std::memory_order = std::memory_order_seq_cst) {
    return rmw([d](const T& current) {
      return std::optional<T>(static_cast<T>(current + d));
    });
  }

  T fetch_sub(T d, std::memory_order = std::memory_order_seq_cst) {
    return rmw([d](const T& current) {
      return std::optional<T>(static_cast<T>(current - d));
    });
  }

  void wait(T old, std::memory_order = std::memory_order_seq_cst) const {
    TFR_REQUIRE(detail::current_slot() != nullptr);  // wait needs the seam
    detail::WaitOp<T> op(&reg_, std::move(old), &waiters_);
    detail::post_op(op);
  }

  /// Modeled as notify_all — see the header caveat.
  void notify_one() { notify_all(); }

  void notify_all() {
    if (detail::current_slot() == nullptr) {
      TFR_REQUIRE(waiters_.handles.empty());  // nobody to wake off-run
      return;
    }
    detail::NotifyOp op(&waiters_);
    detail::post_op(op);
  }

  bool is_lock_free() const { return true; }

 private:
  template <class F>
  T rmw(F f) {
    if (detail::current_slot() == nullptr) {
      const T prior = reg_.peek();
      if (std::optional<T> next = f(static_cast<const T&>(prior)))
        reg_.poke(*next);
      return prior;
    }
    detail::RmwOp<T, F> op(&reg_, std::move(f));
    detail::post_op(op);
    return op.prior;
  }

  mutable sim::Register<T> reg_;
  mutable detail::WaitList waiters_;
};

/// std::atomic_flag facade on a shim word.
class atomic_flag {
 public:
  atomic_flag() = default;
  atomic_flag(const atomic_flag&) = delete;
  atomic_flag& operator=(const atomic_flag&) = delete;

  bool test_and_set(std::memory_order = std::memory_order_seq_cst) {
    return cell_.exchange(1) != 0;
  }
  void clear(std::memory_order = std::memory_order_seq_cst) {
    cell_.store(0);
  }
  bool test(std::memory_order = std::memory_order_seq_cst) const {
    return cell_.load() != 0;
  }
  void wait(bool old, std::memory_order = std::memory_order_seq_cst) const {
    cell_.wait(old ? 1u : 0u);
  }
  void notify_one() { cell_.notify_one(); }
  void notify_all() { cell_.notify_all(); }

 private:
  atomic<std::uint32_t> cell_{0};
};

/// Statistics counter under the seam: the handshake serializes algorithm
/// threads (with happens-before edges between consecutive runners), so a
/// plain value is race-free and — unlike a shim cell — adds no events to
/// the explored state space.
template <class T>
class serial_counter {
 public:
  serial_counter() = default;
  serial_counter(T v) : value_(v) {}
  serial_counter(const serial_counter&) = delete;
  serial_counter& operator=(const serial_counter&) = delete;

  T fetch_add(T d, std::memory_order = std::memory_order_relaxed) {
    const T prior = value_;
    value_ = static_cast<T>(value_ + d);
    return prior;
  }
  T load(std::memory_order = std::memory_order_relaxed) const {
    return value_;
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order = std::memory_order_relaxed) {
    if (value_ != expected) {
      expected = value_;
      return false;
    }
    value_ = desired;
    return true;
  }

 private:
  T value_{};
};

/// std::thread facade: construction spawns a logical thread in the live
/// RtExecution; the simulation's run-to-idle is the join, so join() is a
/// sim-thread no-op kept for API shape.
class thread {
 public:
  template <class F>
  explicit thread(F&& f) {
    RtExecution* exec = RtExecution::current();
    TFR_REQUIRE(exec != nullptr);
    exec->spawn_thread(std::forward<F>(f));
  }

  void join() { TFR_REQUIRE(detail::current_slot() == nullptr); }
  bool joinable() const { return false; }
};

/// A yield is not a shared-memory step: under the seam it is a no-op (the
/// explorer already owns scheduling).
inline void yield() {}

/// The model-checking Atomics policy (see rt/atomics_policy.hpp for the
/// surface contract and the StdAtomics production twin).
struct ShimAtomics {
  template <class T>
  using atomic = rtshim::atomic<T>;

  template <class T>
  using counter = rtshim::serial_counter<T>;

  using duration = sim::Duration;
  using thread = rtshim::thread;

  /// Spinning is useless when the checker owns time — a spin iteration
  /// would re-read the register without letting anything else move.
  static constexpr unsigned kSpinBudget = 0;
  /// Teardown unwinds AbortExecution through algorithm frames.
  static constexpr bool kNoexceptOps = false;

  static void pause() {}

  static void delay(duration d) {
    detail::DelayOp op(d);
    detail::post_op(op);
  }

  static std::int64_t count(duration d) noexcept { return d; }

  static void yield() { rtshim::yield(); }
};

}  // namespace tfr::rtshim
