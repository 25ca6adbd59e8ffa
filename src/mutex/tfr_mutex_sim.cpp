#include "tfr/common/contracts.hpp"
#include "tfr/mutex/mutex_sim.hpp"

namespace tfr::mutex {

// Algorithm 3 (paper §3.3):
//
//   1  repeat   await (x = 0)
//   2           x := i
//   3           delay(Δ)
//   4  until    x = i
//   5  entry section of algorithm A
//   6  critical section
//   7  exit section of algorithm A
//   8  if x = i then x := 0 fi
//
// Without timing failures the Fischer filter (1-4) admits one process at a
// time, so A's entry runs contention-free and the whole entry costs O(Δ).
// Under timing failures several processes may pass the filter together; A
// alone then guarantees mutual exclusion and (if starvation-free)
// guarantees that the crowd inside A eventually drains, which is the heart
// of the convergence proof (Theorem 3.3).  Line 8 makes sure that, of all
// processes concurrently past the filter, at most one re-opens the gate.

TfrMutex::TfrMutex(sim::RegisterSpace& space, sim::Duration delta,
                   std::unique_ptr<SimMutex> inner)
    : delta_(delta), inner_(std::move(inner)), x_(space, 0, "tfr.x") {
  TFR_REQUIRE(delta >= 1);
  TFR_REQUIRE(inner_ != nullptr);
}

sim::Task<void> TfrMutex::enter(sim::Env env, int id) {
  const int me = id + 1;
  bool first_attempt = true;
  for (;;) {
    for (;;) {  // await (x = 0)
      const int x = co_await env.read(x_);
      if (x == 0) break;
    }
    co_await env.write(x_, me);
    co_await env.delay(controller_ != nullptr ? controller_->current()
                                              : delta_);
    const int check = co_await env.read(x_);
    if (check == me) break;
    first_attempt = false;
    // A failed check is the filter's timing-failure symptom: someone
    // overwrote x inside our delay window, so the estimate was too small
    // (or contention raced us — indistinguishable here, and growing on
    // contention is what TCP does too).
    if (controller_ != nullptr) controller_->on_failure();
  }
  if (controller_ != nullptr && first_attempt) controller_->on_clean();
  co_await inner_->enter(env, id);
}

sim::Task<void> TfrMutex::exit(sim::Env env, int id) {
  co_await inner_->exit(env, id);
  const int x = co_await env.read(x_);
  if (x == id + 1) co_await env.write(x_, 0);
}

std::unique_ptr<TfrMutex> make_tfr_mutex_starvation_free(
    sim::RegisterSpace& space, int n, sim::Duration delta) {
  auto fast = std::make_unique<LamportFastMutex>(space, n);
  auto a = std::make_unique<StarvationFreeMutex>(space, n, std::move(fast));
  return std::make_unique<TfrMutex>(space, delta, std::move(a));
}

std::unique_ptr<TfrMutex> make_tfr_mutex_deadlock_free_only(
    sim::RegisterSpace& space, int n, sim::Duration delta) {
  auto fast = std::make_unique<LamportFastMutex>(space, n);
  return std::make_unique<TfrMutex>(space, delta, std::move(fast));
}

}  // namespace tfr::mutex
