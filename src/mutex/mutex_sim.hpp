// Mutual-exclusion algorithms — simulator edition (coroutine ports).
//
// The paper's §3 builds its time-resilient mutex (Algorithm 3) by wrapping
// an asynchronous *fast starvation-free* algorithm A inside Fischer's
// timing-based filter.  The shipped locks are the Atomics-policy templates
// of mutex_rt.hpp, and the mutex experiments run those through the shim
// (workload_sim.hpp).  This header keeps the coroutine ports that only the
// sim model-checking fixtures (fischer-n2, tfr-mutex-n2,
// tfr-mutex-mistuned-n2; mcheck/scenarios.cpp) and E8 still drive:
//
//   FischerMutex           — Algorithm 2: the timing-based filter itself.
//                            ME + deadlock-freedom without timing failures;
//                            ME can break under timing failures (§3.1).
//   LamportFastMutex       — Lamport's fast mutex: asynchronous,
//                            deadlock-free but NOT starvation-free; the
//                            negative instantiation of A (Theorem 3.2).
//   StarvationFreeMutex    — the deadlock-free → starvation-free register
//                            transformation the paper invokes (due to Yoah
//                            Bar-David; cf. Taubenfeld's book, Problem
//                            2.3.4); applied to LamportFastMutex it yields
//                            the fast starvation-free A of Theorem 3.3.
//   TfrMutex               — Algorithm 3: Fischer filter around A, exit
//                            code `if x = i then x := 0`.
//
// All ids are 0-based (0..n-1).  Entry/exit sections are Tasks so that
// TfrMutex composes algorithms by awaiting them.

#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "tfr/adapt/controller.hpp"
#include "tfr/sim/register.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/task.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::mutex {

/// Abstract mutual-exclusion algorithm in the simulator.
class SimMutex {
 public:
  virtual ~SimMutex() = default;

  /// The entry section: completes when `id` may enter its critical section.
  virtual sim::Task<void> enter(sim::Env env, int id) = 0;

  /// The exit section.
  virtual sim::Task<void> exit(sim::Env env, int id) = 0;

  virtual std::string name() const = 0;
};

/// Algorithm 2 — Fischer's timing-based mutex.  One shared register; the
/// delay(Δ) after writing x := i is what makes the gate safe *when timing
/// holds*.  Supports unboundedly many processes.
class FischerMutex final : public SimMutex {
 public:
  FischerMutex(sim::RegisterSpace& space, sim::Duration delta);

  sim::Task<void> enter(sim::Env env, int id) override;
  sim::Task<void> exit(sim::Env env, int id) override;
  std::string name() const override { return "fischer"; }

  sim::Duration delta() const { return delta_; }

  /// Adaptive optimistic(Δ): the gate's delay waits for
  /// controller->current(); a failed check reports on_failure(), a
  /// first-try admission on_clean().  NOTE Fischer's mutual exclusion
  /// genuinely depends on the bound holding — an optimistic estimate makes
  /// violations *more* likely, which is exactly why the paper wraps the
  /// filter in Algorithm 3.  Null restores the static delta.
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

 private:
  sim::Duration delta_;
  adapt::DeltaController* controller_ = nullptr;
  sim::Register<int> x_;  ///< 0 = free, else owner id + 1
};

/// Lamport's fast mutual exclusion algorithm (1987).  Asynchronous;
/// deadlock-free; contention-free entry takes 3 writes + 2 reads.
class LamportFastMutex final : public SimMutex {
 public:
  LamportFastMutex(sim::RegisterSpace& space, int n);

  sim::Task<void> enter(sim::Env env, int id) override;
  sim::Task<void> exit(sim::Env env, int id) override;
  std::string name() const override { return "lamport-fast"; }

 private:
  int n_;
  sim::Register<int> x_;       ///< last announcer (id + 1)
  sim::Register<int> y_;       ///< gate (0 = open, else id + 1)
  sim::RegisterArray<int> b_;  ///< b[i]: i is trying
};

/// The deadlock-free → starvation-free transformation (registers only).
/// A doorway (flag array + round-robin turn register) throttles entry to
/// the inner deadlock-free lock so the turn-holder cannot be bypassed
/// forever.  Fast: the doorway adds 3 accesses on the contention-free path.
class StarvationFreeMutex final : public SimMutex {
 public:
  /// `inner` must be deadlock-free; the wrapper owns it.
  StarvationFreeMutex(sim::RegisterSpace& space, int n,
                      std::unique_ptr<SimMutex> inner);

  sim::Task<void> enter(sim::Env env, int id) override;
  sim::Task<void> exit(sim::Env env, int id) override;
  std::string name() const override {
    return "starvation-free(" + inner_->name() + ")";
  }

 private:
  int n_;
  std::unique_ptr<SimMutex> inner_;
  sim::RegisterArray<int> flag_;  ///< 1 = up (competing)
  sim::Register<int> turn_;
};

/// Algorithm 3 — the paper's time-resilient mutex: Fischer's filter in
/// front of an asynchronous algorithm A, with exit code
/// `A.exit(); if x = i then x := 0`.
///
/// Properties (§3.3): ME and deadlock-freedom always (A provides them even
/// while timing fails); O(Δ) time complexity without timing failures; with
/// a *starvation-free* A the algorithm converges after failures cease
/// (Theorem 3.3), with a merely deadlock-free A it may not (Theorem 3.2).
class TfrMutex final : public SimMutex {
 public:
  TfrMutex(sim::RegisterSpace& space, sim::Duration delta,
           std::unique_ptr<SimMutex> inner);

  sim::Task<void> enter(sim::Env env, int id) override;
  sim::Task<void> exit(sim::Env env, int id) override;
  std::string name() const override {
    return "tfr(" + inner_->name() + ")";
  }

  sim::Duration delta() const { return delta_; }

  /// Adaptive optimistic(Δ): the filter's delay waits for
  /// controller->current(); each failed check reports on_failure(), each
  /// first-try admission on_clean().  Purely advisory — mutual exclusion
  /// is provided by the inner algorithm A under ANY timing behaviour
  /// (Theorem 3.1), so a mistuned estimate costs admission retries, never
  /// safety.  The tfr_mcheck mistuned-controller scenario verifies this.
  void set_delta_controller(adapt::DeltaController* controller) {
    controller_ = controller;
  }

 private:
  sim::Duration delta_;
  adapt::DeltaController* controller_ = nullptr;
  std::unique_ptr<SimMutex> inner_;
  sim::Register<int> x_;  ///< Fischer's register: 0 = free, else id + 1
};

/// Convenience factories for the two instantiations of Algorithm 3 the
/// paper discusses.
std::unique_ptr<TfrMutex> make_tfr_mutex_starvation_free(
    sim::RegisterSpace& space, int n, sim::Duration delta);
std::unique_ptr<TfrMutex> make_tfr_mutex_deadlock_free_only(
    sim::RegisterSpace& space, int n, sim::Duration delta);

}  // namespace tfr::mutex
