#include "tfr/service/loadgen.hpp"

#include <algorithm>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"

namespace tfr::service {

sim::Duration retry_backoff(const msg::RetryPolicy& policy,
                            std::uint64_t session, int attempt) {
  TFR_REQUIRE(attempt >= 1);
  sim::Duration wait = policy.max_backoff > 0
                           ? std::min(policy.backoff, policy.max_backoff)
                           : policy.backoff;
  for (int i = 1; i < attempt; ++i)
    wait = msg::grow_saturating(wait, policy.backoff_growth,
                                policy.max_backoff);
  if (policy.jitter > 0) {
    // The same SplitMix64 the NetAdversary and AbdClient jitter use.
    std::uint64_t state =
        session * 0x100000001b3ULL + static_cast<std::uint64_t>(attempt);
    wait += static_cast<sim::Duration>(
        splitmix64(state) % static_cast<std::uint64_t>(policy.jitter + 1));
  }
  return wait;
}

LoadGen::LoadGen(LoadConfig config, std::vector<BoundedQueue*> queues)
    : cfg_(config), queues_(std::move(queues)) {
  TFR_REQUIRE(cfg_.max_attempts >= 1);
  TFR_REQUIRE(!queues_.empty());
}

int LoadGen::route(std::uint64_t session) const {
  std::uint64_t state = session ^ (cfg_.route_seed << 32);
  return static_cast<int>(splitmix64(state) % queues_.size());
}

void LoadGen::offer(sim::Env& env, Request request, int shard) {
  ++offered_;
  ++request.attempts;
  const sim::Time now = env.now();
  const auto verdict =
      queues_[static_cast<std::size_t>(shard)]->try_push(request, now);
  if (!verdict.has_value()) {
    ++admitted_;
    return;
  }
  ++rejected_;
  if (request.attempts >= cfg_.max_attempts) {
    ++shed_;
    return;
  }
  // Respect the server's retry-after hint, but never come back faster
  // than the client's own exponential backoff for this attempt.
  const sim::Duration pause = std::max(
      verdict->retry_after,
      retry_backoff(cfg_.retry, request.session, request.attempts));
  retries_.push(PendingRetry{now + pause, request, shard});
  max_retry_heap_ = std::max(max_retry_heap_, retries_.size());
}

void LoadGen::emit_counters(sim::Env& env) {
  sim::Simulation& s = env.sim();
  if (s.trace_sink() == nullptr) return;
  if (label_offered_ == 0) label_offered_ = s.trace_label("svc.offered");
  if (label_rejected_ == 0) label_rejected_ = s.trace_label("svc.rejected");
  if (offered_ != last_emitted_offered_) {
    s.emit({env.now(), env.pid(), obs::EventKind::kCounter,
            static_cast<std::int64_t>(offered_),
            static_cast<std::int64_t>(admitted_), label_offered_});
    last_emitted_offered_ = offered_;
  }
  if (rejected_ != last_emitted_rejected_) {
    s.emit({env.now(), env.pid(), obs::EventKind::kCounter,
            static_cast<std::int64_t>(rejected_),
            static_cast<std::int64_t>(shed_), label_rejected_});
    last_emitted_rejected_ = rejected_;
  }
}

sim::Process LoadGen::run(sim::Env env) {
  double carry = 0.0;
  std::uint64_t next_session = 0;
  while (next_session < cfg_.sessions || !retries_.empty()) {
    co_await env.delay(cfg_.tick);
    const sim::Time now = env.now();
    // Due retries first: they have been waiting longer than any fresh
    // arrival this tick.
    while (!retries_.empty() && retries_.top().due <= now) {
      const PendingRetry r = retries_.top();
      retries_.pop();
      offer(env, r.request, r.shard);
    }
    if (next_session < cfg_.sessions) {
      // Open-loop rate is per sim tick; one wake covers `tick` of them.
      carry += cfg_.arrivals_per_tick * static_cast<double>(cfg_.tick);
      auto batch = static_cast<std::uint64_t>(carry);
      carry -= static_cast<double>(batch);
      batch = std::min(batch, cfg_.sessions - next_session);
      for (std::uint64_t i = 0; i < batch; ++i) {
        Request request;
        request.session = next_session++;
        request.first_offered = now;
        ++started_;
        offer(env, request, route(request.session));
      }
    }
    emit_counters(env);
  }
  finished_ = true;
}

}  // namespace tfr::service
