#include "tfr/msg/abd.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/msg/convergence.hpp"

namespace tfr::msg {

sim::Duration per_peer_window(const adapt::DeltaController& controller, int n,
                              double per_delta, sim::Duration max_timeout,
                              std::vector<sim::Duration>& scratch) {
  TFR_REQUIRE(n >= 1);
  TFR_REQUIRE(per_delta > 0);
  scratch.clear();
  for (int s = 0; s < n; ++s) {
    auto w = static_cast<sim::Duration>(std::ceil(
        static_cast<double>(controller.estimate_for(s)) * per_delta));
    w = std::max<sim::Duration>(1, w);
    if (max_timeout > 0 && w > max_timeout) w = max_timeout;
    scratch.push_back(w);
  }
  // The majority-th smallest (0-based index n/2): long enough for the
  // fastest majority to answer, indifferent to every straggler above it.
  const auto k = static_cast<std::size_t>(n / 2);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(k),
                   scratch.end());
  return scratch[k];
}

sim::Duration grow_saturating(sim::Duration value, double growth,
                              sim::Duration cap) {
  TFR_REQUIRE(value >= 0);
  // The saturation point when no cap is configured: far below the
  // Duration overflow the double -> int64 cast would hit (that cast is
  // UB out of range), yet far above any meaningful wait.
  constexpr auto kSaturated = static_cast<sim::Duration>(1) << 62;
  const sim::Duration limit = cap > 0 ? cap : kSaturated;
  const double grown = static_cast<double>(value) * growth;
  // The negated comparison also routes a NaN (growth abuse) to the limit.
  if (!(grown < static_cast<double>(limit))) return limit;
  const auto truncated = static_cast<sim::Duration>(grown);
  // Truncation alone would pin a small value under a growth below 2
  // (1 * 1.5 -> 1 forever), so growth > 1 gains at least 1 per step.
  // grown < limit, so value + 1 <= limit.
  if (growth > 1.0 && value > 0) return std::max(value + 1, truncated);
  return truncated;
}

sim::Process abd_server(sim::Env env, Network& net, int node, int n) {
  TFR_REQUIRE(node >= 0 && node < n);
  const int self = n + node;
  std::map<int, std::pair<std::int64_t, std::int64_t>> store;  // reg -> (tag, value)
  for (;;) {
    const Message m = co_await net.recv(env, self);
    auto& cell = store[m.reg];  // default (0, 0)
    Message ack;
    ack.reg = m.reg;
    ack.rid = m.rid;
    switch (m.type) {
      case kTagReq:
      case kReadReq:
        ack.type = m.type == kTagReq ? kTagAck : kReadAck;
        ack.tag = cell.first;
        ack.value = cell.second;
        break;
      case kWriteReq:
        if (m.tag > cell.first) cell = {m.tag, m.value};
        ack.type = kWriteAck;
        break;
      default:
        TFR_UNREACHABLE("unknown ABD message type");
    }
    co_await net.send(env, self, m.from, ack);
  }
}

AbdClient::AbdClient(Network& net, int node, int n, RetryPolicy policy)
    : net_(&net), node_(node), n_(n), policy_(policy) {
  TFR_REQUIRE(n >= 1);
  TFR_REQUIRE(node >= 0 && node < n);
  TFR_REQUIRE(net.endpoints() >= 2 * n);
  TFR_REQUIRE(policy_.timeout >= 0 && policy_.poll_every >= 1);
}

sim::Duration AbdClient::jitter_for(std::int64_t rid, int attempt) const {
  if (policy_.jitter <= 0) return 0;
  std::uint64_t s = static_cast<std::uint64_t>(node_) ^
                    static_cast<std::uint64_t>(rid) * 0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint64_t>(attempt) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<sim::Duration>(
      splitmix64(s) % static_cast<std::uint64_t>(policy_.jitter + 1));
}

const char* AbdClient::phase_name(std::int32_t ack_type) const {
  switch (ack_type) {
    case kTagAck: return "abd.tag";
    case kReadAck: return "abd.read";
    case kWriteAck: return "abd.store";
    default: return "abd";
  }
}

void AbdClient::note_late_ack(const Message& m, sim::Time now) {
  if (controller_ == nullptr) return;
  const int server = m.from - n_;
  if (server < 0 || server >= n_ || server >= 31) return;
  const std::uint32_t bit = 1u << static_cast<unsigned>(server);
  for (auto& phase : recent_) {
    if (phase.rid != m.rid || phase.ack_type != m.type) continue;
    if ((phase.observed & bit) != 0) return;  // already counted or observed
    phase.observed |= bit;
    // The ack answers that phase's first multicast (or a retry of it, in
    // which case this overestimates — conservative for a straggler), so
    // now - started is the server's effective round-trip time.  This is
    // how a straggler's channel learns its true slowness even though it
    // never makes a quorum.
    controller_->observe(server, now - phase.started);
    ++late_observations_;
    return;
  }
}

void AbdClient::emit_estimates(sim::Env& env) {
  if (controller_ == nullptr) return;
  if (est_labels_.empty()) {
    est_labels_.reserve(static_cast<std::size_t>(n_));
    for (int s = 0; s < n_; ++s) {
      est_labels_.push_back(
          env.sim().trace_label("abd.est." + std::to_string(s)));
    }
  }
  for (int s = 0; s < n_; ++s) {
    env.sim().emit({env.now(), env.pid(), obs::EventKind::kCounter,
                    controller_->estimate_for(s), 0,
                    est_labels_[static_cast<std::size_t>(s)]});
  }
}

sim::Task<AbdClient::Quorum> AbdClient::majority(sim::Env env,
                                                 Message request,
                                                 std::int32_t ack_type) {
  const std::int64_t rid = next_rid_++;
  request.rid = rid;
  Quorum quorum;
  int acks = 0;
  int attempt = 1;
  const int needed = n_ / 2 + 1;
  const sim::Time phase_start = env.now();
  // acked[i]: server i already contributed to this quorum — a duplicated
  // or re-sent ack must not be counted twice.  Reused client-owned
  // scratch: the quorum loop allocates nothing per phase.
  acked_scratch_.assign(static_cast<std::size_t>(n_), 0);
  std::vector<char>& acked = acked_scratch_;

  auto absorb = [&](const Message& m) {
    if (m.rid != rid || m.type != ack_type) {
      ++stale_acks_;  // old rid, other phase, or foreign traffic
      note_late_ack(m, env.now());
      return;
    }
    const int server = m.from - n_;
    if (server < 0 || server >= n_) return;
    if (acked[static_cast<std::size_t>(server)]) {
      ++duplicate_acks_;
      return;
    }
    acked[static_cast<std::size_t>(server)] = 1;
    if (acks > 0 && m.tag != quorum.max_tag) quorum.tags_uniform = false;
    ++acks;
    if (m.tag > quorum.max_tag) {
      quorum.max_tag = m.tag;
      quorum.value_of_max = m.value;
    }
    // Each server's first-window round trip teaches its own channel.
    // Retried phases are NOT observed: their "RTT" includes the expired
    // windows and backoff pauses themselves, so feeding them back would
    // let the window estimate ratchet itself upward.
    if (controller_ != nullptr && attempt == 1)
      controller_->observe(server, env.now() - phase_start);
  };

  // Remembers this phase in the late-ack ring so a straggler answering
  // after the quorum closed still teaches its channel (note_late_ack).
  auto remember = [&] {
    if (controller_ == nullptr || n_ > 31) return;
    std::uint32_t observed = 0;
    for (int s = 0; s < n_; ++s) {
      if (acked[static_cast<std::size_t>(s)] != 0)
        observed |= 1u << static_cast<unsigned>(s);
    }
    recent_[recent_next_] = {rid, ack_type, phase_start, observed};
    recent_next_ = (recent_next_ + 1) % kRecentPhases;
  };

  // The first ack-collection window: from the attached controller's
  // per-server estimates, otherwise the static policy value (0 = the
  // window never expires).  Either way the per-retry growth/caps below
  // still apply.
  sim::Duration window = policy_.timeout;
  if (controller_ != nullptr && policy_.timeout_per_delta > 0) {
    window = per_peer_window(*controller_, n_, policy_.timeout_per_delta,
                             policy_.max_timeout, window_scratch_);
  }

  const bool tracing = env.sim().trace_sink() != nullptr;
  if (tracing) emit_estimates(env);
  co_await net_->multicast(env, node_, n_, 2 * n_, request);

  sim::Duration pause = policy_.backoff;
  const std::uint32_t label =
      tracing ? env.sim().trace_label(phase_name(ack_type)) : 0;
  for (;;) {
    const sim::Time deadline =
        window > 0 ? env.now() + window : sim::kTimeNever;
    while (acks < needed) {
      auto m = co_await net_->recv_until(env, node_, deadline,
                                         policy_.poll_every);
      if (!m.has_value()) break;  // window expired
      absorb(*m);
    }
    if (acks >= needed) {
      // A quorum inside the first window is a clean (timely) phase.
      if (controller_ != nullptr && attempt == 1) controller_->on_clean();
      remember();
      co_return quorum;
    }

    ++timeouts_;
    if (controller_ != nullptr) controller_->on_failure();
    if (tracing)
      env.sim().emit({env.now(), env.pid(), obs::EventKind::kTimeout, window,
                      rid, label});
    const sim::Duration wait = pause + jitter_for(rid, attempt);
    if (wait > 0) {
      if (tracing)
        env.sim().emit({env.now(), env.pid(), obs::EventKind::kBackoff, wait,
                        rid, label});
      co_await env.delay(wait);
    }
    ++retries_;
    ++attempt;
    if (tracing)
      env.sim().emit({env.now(), env.pid(), obs::EventKind::kRetry, attempt,
                      rid, label});
    // Servers are idempotent and acks are de-duplicated, so re-asking
    // everyone (including servers that already answered) is always safe.
    co_await net_->multicast(env, node_, n_, 2 * n_, request);

    window = grow_saturating(window, policy_.timeout_growth,
                             policy_.max_timeout);
    pause = grow_saturating(pause, policy_.backoff_growth,
                            policy_.max_backoff);
  }
}

sim::Task<void> AbdClient::write(sim::Env env, int reg, std::int64_t value) {
  std::size_t token = 0;
  if (monitor_ != nullptr)
    token = monitor_->on_invoke(node_, reg, /*is_write=*/true, value,
                                env.now());
  // Phase 1: learn the highest tag at a majority.
  Message query;
  query.type = kTagReq;
  query.reg = reg;
  const Quorum seen = co_await majority(env, query, kTagAck);
  // Phase 2: store with a strictly higher, writer-unique tag.
  Message store;
  store.type = kWriteReq;
  store.reg = reg;
  store.tag = make_tag(tag_counter(seen.max_tag) + 1, node_);
  store.value = value;
  co_await majority(env, store, kWriteAck);
  ++operations_;
  if (monitor_ != nullptr) monitor_->on_response(token, value, env.now());
}

sim::Task<std::int64_t> AbdClient::read(sim::Env env, int reg) {
  std::size_t token = 0;
  if (monitor_ != nullptr)
    token = monitor_->on_invoke(node_, reg, /*is_write=*/false, 0, env.now());
  // Phase 1: collect a majority of (tag, value); adopt the maximum.
  Message query;
  query.type = kReadReq;
  query.reg = reg;
  const Quorum seen = co_await majority(env, query, kReadAck);
  // Fast read (Mostéfaoui–Raynal): every ack of the quorum carried the
  // same tag, so that tag is already stored at a majority (server tags
  // are monotone) and any later quorum intersects it — the write-back
  // round adds nothing and is skipped.  One disagreeing ack (a
  // concurrent write landed at part of the quorum) and the read takes
  // the write-back round below.
  if (seen.tags_uniform) {
    ++fast_reads_;
  } else {
    ++fast_read_misses_;
  }
  if (env.sim().trace_sink() != nullptr) {
    if (fast_label_ == 0) fast_label_ = env.sim().trace_label("abd.fast_reads");
    env.sim().emit({env.now(), env.pid(), obs::EventKind::kCounter,
                    static_cast<std::int64_t>(fast_reads_),
                    static_cast<std::int64_t>(fast_read_misses_),
                    fast_label_});
  }
  if (!seen.tags_uniform) {
    // Phase 2 (write-back): install the adopted pair at a majority so
    // every later read sees at least this tag — atomicity, not just
    // regularity.
    Message store;
    store.type = kWriteReq;
    store.reg = reg;
    store.tag = seen.max_tag;
    store.value = seen.value_of_max;
    co_await majority(env, store, kWriteAck);
  }
  ++operations_;
  if (monitor_ != nullptr)
    monitor_->on_response(token, seen.value_of_max, env.now());
  co_return seen.value_of_max;
}

}  // namespace tfr::msg
