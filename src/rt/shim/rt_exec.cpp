#include "tfr/rt/shim/rt_exec.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <exception>
#include <memory>
#include <new>
#include <utility>

#include "tfr/common/contracts.hpp"

// Fiber switches hide a stack change from the sanitizers unless announced:
// ASan would take the fiber's frames for an overflow of the OS thread's
// stack, and TSan would see every fiber's accesses as one thread's.
#if defined(__SANITIZE_ADDRESS__)
#define TFR_SHIM_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define TFR_SHIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TFR_SHIM_ASAN 1
#elif __has_feature(thread_sanitizer)
#define TFR_SHIM_TSAN 1
#endif
#endif

#if defined(TFR_SHIM_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(TFR_SHIM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// The register swap and first-frame builder (fiber_switch.S).
extern "C" {
void tfr_fiber_switch(void** save_sp, void* load_sp);
void* tfr_fiber_init(void* stack_top, void (*entry)(void*), void* arg);
}

namespace tfr::rtshim {

namespace detail {

/// One logical thread's fiber: a pooled stack (mapped once, reused by
/// every execution the slot serves) and the two saved stack pointers the
/// hand-off swaps between.  Everything runs on the explorer's OS thread;
/// `phase` records whose turn it is.
struct Slot {
  enum class Phase {
    kIdle,      ///< in the pool, no job
    kArmed,     ///< job assigned, waiting for the pump's kStart
    kRunnable,  ///< fiber made or op answered; await_op() resumes it
    kRunning,   ///< fiber executing algorithm code between ops
    kOpPosted,  ///< op posted; fiber suspended awaiting the reply
    kJobDone,   ///< job returned (or unwound)
  };

  /// Large enough for the algorithm bodies under ASan's enlarged frames.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  Slot();
  ~Slot();
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

  Phase phase = Phase::kIdle;
  bool abort = false;  ///< reply means: unwind via AbortExecution
  std::function<void()> job;
  Op* op = nullptr;
  std::exception_ptr error;

  void arm(std::function<void()> body);
  void start_job();  // pump side, at kStart
  Op* await_op();    // pump side; nullptr = job finished
  void reply(bool abort_run);
  void finish_teardown();  // RtExecution dtor side

  void resume();                   // pump side: run the fiber to a yield
  void yield();                    // fiber side: back to the pump
  [[noreturn]] void exit_fiber();  // fiber side: final switch, job done
  void entered();                  // fiber side: first step of a job

 private:
  void* mapping_ = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes_ = 0;
  void* stack_ = nullptr;  ///< lowest usable byte, just above the guard
  void* fiber_sp_ = nullptr;   ///< the suspended fiber's saved frame
  void* caller_sp_ = nullptr;  ///< the pump's, while the fiber runs
#if defined(TFR_SHIM_ASAN)
  // The caller's stack, as ASan reports it on each switch in.
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
#endif
#if defined(TFR_SHIM_TSAN)
  // TSan's fibers: this job's, and the caller's at the last switch in.
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
#endif
};

namespace {

/// The slot whose fiber is running; nullptr on the explorer's own stack.
Slot* g_running = nullptr;

/// The fiber's first C++ frame, called by fiber_switch.S's start stub.
void fiber_entry(void* arg) {
  auto* slot = static_cast<Slot*>(arg);
  slot->entered();
  {
    std::function<void()> job = std::move(slot->job);
    slot->job = nullptr;
    try {
      job();
    } catch (const AbortExecution&) {
      slot->error = nullptr;  // teardown unwind: not an error
    } catch (...) {
      slot->error = std::current_exception();
    }
    // The closure dies here, before the slot reports done: it owns the
    // scenario state (shared_ptr captures), whose last reference the
    // harness must hold — see RtExecution's ownership contract.
  }
  slot->phase = Slot::Phase::kJobDone;
  slot->exit_fiber();
}

/// A plain free list of slots.  It holds only memory (stacks and saved
/// stack pointers), so a forked mcheck worker inherits a usable copy.
class SlotPool {
 public:
  static SlotPool& instance() {
    static SlotPool pool;
    return pool;
  }

  Slot* acquire() {
    if (!free_.empty()) {
      Slot* slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.push_back(std::make_unique<Slot>());
    return slots_.back().get();
  }

  void release(Slot* slot) { free_.push_back(slot); }

 private:
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
};

/// Schedules the posted op into the simulation and applies it at its
/// linearization instant.  The awaited value is "must the thread park".
struct OpAwaiter {
  sim::Simulation* sim;
  sim::Pid pid;
  Op* op;
  sim::Time issued = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    issued = sim->now();
    if (op->kind == Op::Kind::kDelay)
      sim->schedule_delay(pid, op->delay, h);
    else
      sim->schedule_access(pid, h, op->reg_uid, op->is_write);
  }
  bool await_resume() { return op->apply(*sim, pid, issued); }
};

/// Parks the pump on the cell's wait list; resumed by a notify's wake
/// callback (zero-duration, so the wake itself is not a scheduling
/// decision — the re-check read it triggers is).
struct ParkAwaiter {
  WaitList* list;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { list->handles.push_back(h); }
  void await_resume() const noexcept {}
};

/// The pump: the simulation-side half of one logical thread.
sim::Process pump(sim::Env env, RtExecution* exec, detail::Slot* slot) {
  slot->start_job();
  for (;;) {
    Op* op = slot->await_op();
    if (op == nullptr) break;
    if (!op->scheduled()) {
      op->immediate(*exec, env.sim());
      slot->reply(false);
      continue;
    }
    bool park = co_await OpAwaiter{&env.sim(), env.pid(), op};
    while (park) {
      co_await ParkAwaiter{op->wait_list()};
      park = co_await OpAwaiter{&env.sim(), env.pid(), op};
    }
    slot->reply(false);
  }
  // Propagate real algorithm failures (contract violations, logic bugs in
  // the code under test) into the simulation's exception channel.
  if (std::exception_ptr error = std::exchange(slot->error, nullptr))
    std::rethrow_exception(error);
}

}  // namespace

Slot::Slot() {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  mapping_bytes_ = kStackBytes + page;
  mapping_ = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping_ == MAP_FAILED) throw std::bad_alloc();
  // The stack grows down: an overflow hits the PROT_NONE page and faults
  // instead of corrupting whatever the allocator placed below.
  if (::mprotect(mapping_, page, PROT_NONE) != 0) {
    ::munmap(mapping_, mapping_bytes_);
    throw std::bad_alloc();
  }
  stack_ = static_cast<char*>(mapping_) + page;
}

Slot::~Slot() { ::munmap(mapping_, mapping_bytes_); }

void Slot::arm(std::function<void()> body) {
  TFR_REQUIRE(phase == Phase::kIdle);
  job = std::move(body);
  op = nullptr;
  abort = false;
  error = nullptr;
  phase = Phase::kArmed;
}

void Slot::start_job() {
  TFR_INVARIANT(phase == Phase::kArmed);
  fiber_sp_ = tfr_fiber_init(static_cast<char*>(stack_) + kStackBytes,
                             &fiber_entry, this);
#if defined(TFR_SHIM_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
  phase = Phase::kRunnable;
}

void Slot::resume() {
  TFR_INVARIANT(g_running == nullptr);
  phase = Phase::kRunning;
  g_running = this;
#if defined(TFR_SHIM_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, kStackBytes);
#endif
#if defined(TFR_SHIM_TSAN)
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  tfr_fiber_switch(&caller_sp_, fiber_sp_);
#if defined(TFR_SHIM_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  g_running = nullptr;
}

void Slot::entered() {
#if defined(TFR_SHIM_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &caller_stack_,
                                  &caller_stack_bytes_);
#endif
}

void Slot::yield() {
#if defined(TFR_SHIM_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, caller_stack_,
                                 caller_stack_bytes_);
#endif
#if defined(TFR_SHIM_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  tfr_fiber_switch(&fiber_sp_, caller_sp_);
#if defined(TFR_SHIM_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, &caller_stack_,
                                  &caller_stack_bytes_);
#endif
}

void Slot::exit_fiber() {
#if defined(TFR_SHIM_ASAN)
  // A null fake-stack slot: this fiber's frames are gone for good.
  __sanitizer_start_switch_fiber(nullptr, caller_stack_, caller_stack_bytes_);
#endif
#if defined(TFR_SHIM_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  // Saves into fiber_sp_, dead from here on: the next start_job
  // overwrites it.  (A local would leave its ASan redzones poisoned on
  // the pooled stack, under the next job's frames.)
  tfr_fiber_switch(&fiber_sp_, caller_sp_);
  __builtin_unreachable();
}

detail::Op* Slot::await_op() {
  TFR_INVARIANT(phase == Phase::kRunnable);
  resume();
  return phase == Phase::kOpPosted ? op : nullptr;
}

void Slot::reply(bool abort_run) {
  TFR_INVARIANT(phase == Phase::kOpPosted);
  abort = abort_run;
  phase = Phase::kRunnable;
}

void Slot::finish_teardown() {
  switch (phase) {
    case Phase::kArmed:
      // The pump's kStart never linearized; the fiber never started.
      job = nullptr;
      break;
    case Phase::kOpPosted:
      // Strict alternation guarantees this is the only mid-run state at a
      // simulation suspension point: resume the fiber with an abort reply
      // and let it unwind to its entry.
      reply(true);
      resume();
      TFR_INVARIANT(phase == Phase::kJobDone);
      break;
    case Phase::kJobDone:
      break;
    case Phase::kIdle:
    case Phase::kRunnable:
    case Phase::kRunning:
      TFR_INVARIANT(false);  // impossible between pump resumptions
      break;
  }
#if defined(TFR_SHIM_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
#endif
  abort = false;
  error = nullptr;
  phase = Phase::kIdle;
}

Slot* current_slot() { return g_running; }

void post_op(Op& op) {
  Slot* slot = g_running;
  TFR_REQUIRE(slot != nullptr);
  TFR_INVARIANT(slot->phase == Slot::Phase::kRunning);
  slot->op = &op;
  slot->phase = Slot::Phase::kOpPosted;
  slot->yield();
  slot->op = nullptr;
  if (slot->abort) throw AbortExecution{};
}

}  // namespace detail

namespace {

RtExecution* g_current = nullptr;

struct MarkOp final : detail::Op {
  int delta;
  explicit MarkOp(int d) : Op(Kind::kMark), delta(d) {}
  void immediate(RtExecution& exec, sim::Simulation&) override {
    exec.note_mark(delta);
  }
};

}  // namespace

RtExecution::RtExecution(sim::Simulation& sim) : sim_(&sim) {
  TFR_REQUIRE(g_current == nullptr);
  g_current = this;
}

RtExecution::~RtExecution() {
  for (detail::Slot* slot : slots_) {
    slot->finish_teardown();
    detail::SlotPool::instance().release(slot);
  }
  g_current = nullptr;
}

RtExecution* RtExecution::current() { return g_current; }

void RtExecution::spawn_thread(std::function<void()> body) {
  TFR_REQUIRE(body != nullptr);
  detail::Slot* slot = detail::SlotPool::instance().acquire();
  slot->arm(std::move(body));
  slots_.push_back(slot);
  sim_->spawn([this, slot](sim::Env env) {
    return detail::pump(env, this, slot);
  });
}

void RtExecution::mark_enter() {
  MarkOp op(+1);
  detail::post_op(op);
}

void RtExecution::mark_exit() {
  MarkOp op(-1);
  detail::post_op(op);
}

void RtExecution::note_mark(int delta) {
  occupancy_ += delta;
  TFR_INVARIANT(occupancy_ >= 0);
  if (occupancy_ > 1) ++violations_;
}

}  // namespace tfr::rtshim
