// The atomic interposition seam: running real rt thread code under mcheck.
//
// Model checkers usually verify a *transcription* of an algorithm into
// their own modeling language, leaving a gap between the checked model and
// the shipped code.  This seam closes that gap for the rt locks: the same
// templated source (mutex/mutex_rt.hpp, rt/atomic_mutex.hpp) that
// production compiles against std::atomic is instantiated with ShimAtomics
// (shim_atomic.hpp), whose cells forward every load/store/RMW/wait/notify
// into a sim::Simulation that the mcheck explorer drives.
//
// Mechanics (the CDSChecker/relacy switch-to-master design, adapted to the
// coroutine simulator): each logical thread is a fiber — its own pooled
// stack and a saved stack pointer — that runs the unmodified algorithm
// body on the explorer's own OS thread, paired with a sim::Process "pump"
// coroutine inside the simulation.  Control alternates strictly, one
// register swap (fiber_switch.S: callee-saved registers and FP control
// state, no system call) per hand-off —
//
//   fiber:  runs until its next shared-memory op, posts it, switches back
//   pump:   co_awaits the op into the simulation; when the explorer
//           linearizes it (choosing its interleaving and duration), the
//           pump applies it to the shared register, records the reply,
//           and switches into the fiber until it posts its next op
//
// so at every simulation suspension point every algorithm thread is
// suspended: algorithm code is single-threaded in fact (one OS thread, no
// data races, deterministic replay) and the explorer owns every
// interleaving and timing decision, including stretching any access past
// Δ — the paper's timing failures — via its cost menu.  The pool holds
// only memory, so a forked mcheck worker inherits a usable copy.
//
// atomic::wait(old) is modeled as a scheduled read that atomically
// check-and-parks at its linearization instant iff the value still equals
// `old`; notify is an immediate (zero-duration) op that reschedules every
// parked waiter for a fresh check — faithfully modeling the futex
// re-check loop, including the lost-wakeup interleavings the EventCount
// torn-epoch scenario hunts.  A run that goes idle with parked waiters is
// exactly a lost wakeup / deadlock.
//
// Soundness caveats are documented in docs/MODEL.md ("Model-checking the
// rt code"): seq_cst-only modeling, notify_one explored as notify_all
// (legal under the spurious-wakeup license of std::atomic::wait, but a
// single-wakeup loss needs the torn-epoch style scenarios to surface).
// One limit comes from the fibers: the C++ runtime keeps its exception
// state per OS thread, so every fiber shares it, and a shim thread must
// not post an op from inside a `catch` handler.

#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "tfr/sim/simulation.hpp"

namespace tfr::rtshim {

/// Thrown through algorithm code when an execution is torn down mid-run
/// (the explorer prunes most runs early); the fiber's entry catches it
/// and reports the job done, so its stack returns to the pool.  Algorithm
/// code instantiated with ShimAtomics must therefore not be noexcept
/// (Atomics::kNoexceptOps).
struct AbortExecution {};

class RtExecution;

namespace detail {

/// Pump coroutines parked in atomic::wait on one shim cell.
struct WaitList {
  std::vector<std::coroutine_handle<>> handles;
};

/// One shared-memory operation posted by an algorithm thread.  Lives on
/// the posting fiber's stack; the fiber stays suspended until the reply,
/// so the pump may dereference it freely.
struct Op {
  enum class Kind { kLoad, kStore, kRmw, kWait, kDelay, kNotify, kMark };

  Kind kind;
  std::uint64_t reg_uid = 0;  ///< scheduled accesses: the conflict key
  bool is_write = false;      ///< scheduled accesses: dependence class
  sim::Duration delay = 0;    ///< kDelay only

  explicit Op(Kind k) : kind(k) {}
  virtual ~Op() = default;

  /// Immediate ops take no simulated time: they run at the instant the
  /// posting thread's previous scheduled op linearized (sound for notify,
  /// which follows its store program-order; and for the occupancy marks).
  bool scheduled() const {
    return kind != Kind::kNotify && kind != Kind::kMark;
  }

  /// Scheduled ops: runs on the simulation thread at the linearization
  /// instant.  Returns true iff the posting thread must park (a kWait
  /// whose value still equals the expected one — atomic check-and-park).
  virtual bool apply(sim::Simulation&, sim::Pid, sim::Time /*issued*/) {
    return false;
  }

  /// Immediate ops: runs synchronously inside the pump.
  virtual void immediate(RtExecution&, sim::Simulation&) {}

  /// kWait: the cell's park list.
  virtual WaitList* wait_list() { return nullptr; }
};

/// One pooled fiber (stack + saved stack pointers) paired with one pump;
/// defined in rt_exec.cpp.
struct Slot;

/// The slot of the fiber now running, or nullptr outside the seam
/// (scenario construction, verdict closures) — shim cells then fall back
/// to untimed peek/poke, which is exactly right for initialization and
/// post-run inspection.
Slot* current_slot();

/// Posts `op` to this fiber's pump and switches back to it; returns once
/// the op is applied.  Throws AbortExecution when the execution is being
/// torn down.
void post_op(Op& op);

}  // namespace detail

/// One model-checked execution of a set of real-thread bodies.  Construct
/// inside a CheckScenario with the run's Simulation, spawn_thread() each
/// algorithm body, and let the explorer run the simulation; destroy (or
/// let the harness closure drop it) to unwind any still-suspended fibers
/// back into the pool.  Exactly one instance may be live per process at a
/// time (current() is how shim cells find their simulation).
///
/// Ownership contract: the RtExecution must be owned by the harness
/// (verdict closure) alone — never by the thread-body closures — so its
/// destructor runs on the simulation thread when the explorer drops the
/// harness.  Bodies may share-own the algorithm state they touch: a
/// fiber's entry drops the body's closure before reporting its slot done,
/// and ~RtExecution resumes every unfinished fiber until that report, so an
/// algorithm-state reference held alongside the RtExecution is always the
/// last to drop (Holder below).
///
/// No explorer is needed: in an ordinary Simulation the shim threads run
/// under its TimingModel like coroutine processes, one access at a time.
class RtExecution {
 public:
  explicit RtExecution(sim::Simulation& sim);
  ~RtExecution();
  RtExecution(const RtExecution&) = delete;
  RtExecution& operator=(const RtExecution&) = delete;

  /// The live execution, if any (bound for this object's whole lifetime).
  static RtExecution* current();

  sim::Simulation& sim() { return *sim_; }

  /// Spawns one logical thread running `body` under the seam.  Call during
  /// scenario setup, before the simulation runs; the thread's first step
  /// is a kStart event the explorer schedules like any other.
  void spawn_thread(std::function<void()> body);

  // Critical-section occupancy probe: immediate ops posted by algorithm
  // threads; occupancy changes at the linearization instant of the
  // thread's latest shared access, so an overlap in simulated time is
  // exactly two threads inside the CS simultaneously.
  void mark_enter();
  void mark_exit();
  std::uint64_t me_violations() const { return violations_; }

  /// Pump-side bookkeeping for the occupancy marks.
  void note_mark(int delta);

 private:
  sim::Simulation* sim_;
  std::vector<detail::Slot*> slots_;
  int occupancy_ = 0;
  std::uint64_t violations_ = 0;
};

/// The ownership idiom of the contract above: whoever runs the simulation
/// (an mcheck verdict closure, a bench, a test) owns the Holder alone, so
/// the RtExecution dies first, unwinding any unfinished fiber while the
/// algorithm state is still alive, and the state dies last.  make() builds
/// the RtExecution before the state, since every shim cell must be
/// constructed while an RtExecution is live.
template <class Algo>
struct Holder {
  template <class... Args>
  static std::shared_ptr<Holder> make(sim::Simulation& sim, Args&&... args) {
    auto holder = std::make_shared<Holder>();
    holder->exec = std::make_unique<RtExecution>(sim);
    holder->algo = std::make_shared<Algo>(std::forward<Args>(args)...);
    return holder;
  }

  /// Spawns `n` threads, the i-th running body(*algo, i).  The bodies hold
  /// `algo` by plain pointer: this Holder outlives them.
  template <class Body>
  void spawn_each(int n, Body body) {
    for (int i = 0; i < n; ++i)
      exec->spawn_thread([object = algo.get(), body, i] { body(*object, i); });
  }

  std::shared_ptr<Algo> algo;         // destroyed second
  std::unique_ptr<RtExecution> exec;  // destroyed first
};

}  // namespace tfr::rtshim
