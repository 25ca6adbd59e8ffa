#include "tfr/service/shard.hpp"

#include <algorithm>

namespace tfr::service {

Shard::Shard(sim::Simulation& sim, ShardConfig config)
    : sim_(sim),
      cfg_(config),
      adversary_(0x5eedULL + static_cast<std::uint64_t>(config.id)),
      queue_(config.queue_capacity, config.drain_hint),
      batcher_(config.batch) {
  const int n = cfg_.replicas;
  net_ = std::make_unique<msg::Network>(sim_.space(), 2 * n);
  net_->set_adversary(&adversary_);
  monitor_.set_adversary(&adversary_);
  election_ = std::make_unique<msg::MsgElection>(*net_, n, cfg_.delta,
                                                 cfg_.abd_retry);
  election_->monitor().throw_on_violation(false);
  for (int i = 0; i < n; ++i) {
    clients_.push_back(
        std::make_unique<msg::AbdClient>(*net_, i, n, cfg_.abd_retry));
    clients_.back()->set_monitor(&monitor_);
    if (cfg_.controller != nullptr)
      clients_.back()->set_delta_controller(cfg_.controller);
  }
  // Heterogeneous replicas: the configured faults cover every channel
  // touching the replica's client and server endpoints, both directions —
  // the replica is slow/lossy as a box, not per edge.
  for (const auto& rf : cfg_.replica_faults) {
    for (const int endpoint : {rf.replica, n + rf.replica}) {
      for (int other = 0; other < 2 * n; ++other) {
        if (other == endpoint) continue;
        adversary_.set_channel_faults(endpoint, other, rf.faults);
        adversary_.set_channel_faults(other, endpoint, rf.faults);
      }
    }
  }
}

void Shard::spawn(ServedFn on_served) {
  on_served_ = std::move(on_served);
  const int n = cfg_.replicas;
  for (int i = 0; i < n; ++i) {
    election_->monitor().set_input(i, i);
    sim_.spawn([this, i](sim::Env env) { return node_main(env, i); });
  }
  for (int i = 0; i < n; ++i) {
    sim_.spawn([this, i, n](sim::Env env) {
      return msg::abd_server(env, *net_, i, n);
    });
  }
}

sim::Process Shard::node_main(sim::Env env, int node) {
  msg::AbdClient& client = *clients_[static_cast<std::size_t>(node)];
  const int winner = co_await election_->elect(env, client, node);
  election_->monitor().on_decide(node, winner, env.now());
  if (node != winner) co_return;
  leader_ = winner;
  elected_at_ = env.now();
  co_await serve(env, client);
}

sim::Task<void> Shard::serve(sim::Env env, msg::AbdClient& client) {
  serve_start_ = counts_of(client);
  for (;;) {
    const sim::Time now = env.now();
    // Post-heal drain clock: the outage backlog counts as worked off once
    // what is waiting (queue + pending batch) fits in a single batch
    // again.  Checked at the loop top so time spent blocked in a healing
    // quorum op counts against the drain.
    if (heal_mark_ >= 0 && drained_at_ < 0 && now >= heal_mark_ &&
        queue_.size() + batcher_.size() <= batcher_.policy().max_batch)
      drained_at_ = now;
    batcher_.fill_from(queue_);
    if (!batcher_.should_flush(now)) {
      sim::Duration wait = cfg_.poll_every;
      if (!batcher_.empty()) {
        const sim::Duration budget =
            batcher_.policy().max_wait - (now - batcher_.oldest_admitted());
        wait = std::clamp(budget, sim::Duration{1}, cfg_.poll_every);
      }
      co_await env.delay(wait);
      continue;
    }
    std::vector<Request> batch = batcher_.take();
    ++batch_seq_;
    // One replicated record per batch: sequence number + size, so the
    // read-back also validates the batch identity, not just freshness.
    const auto summary = static_cast<std::int64_t>(
        (batch_seq_ << 20) | static_cast<std::uint64_t>(batch.size()));
    co_await client.write(env, cfg_.data_reg, summary);
    const std::int64_t readback = co_await client.read(env, cfg_.data_reg);
    if (readback != summary) ++readback_mismatches_;
    const sim::Time done = env.now();
    served_ += batch.size();
    last_served_at_ = done;
    for (const Request& request : batch) on_served_(request, done);
    emit_depth(env);
  }
}

void Shard::emit_depth(sim::Env& env) {
  sim::Simulation& s = env.sim();
  if (s.trace_sink() == nullptr) return;
  if (label_depth_ == 0) {
    label_depth_ =
        s.trace_label("svc.shard" + std::to_string(cfg_.id) + ".depth");
  }
  s.emit({env.now(), env.pid(), obs::EventKind::kCounter,
          static_cast<std::int64_t>(queue_.size()),
          static_cast<std::int64_t>(served_), label_depth_});
}

Shard::AbdCounts Shard::counts_of(const msg::AbdClient& client) {
  return {client.operations(), client.retries(), client.fast_reads(),
          client.fast_read_misses()};
}

Shard::AbdCounts Shard::workload() const {
  if (leader_ < 0) return {};
  const AbdCounts now =
      counts_of(*clients_[static_cast<std::size_t>(leader_)]);
  return {now.operations - serve_start_.operations,
          now.retries - serve_start_.retries,
          now.fast_reads - serve_start_.fast_reads,
          now.fast_read_misses - serve_start_.fast_read_misses};
}

Shard::AbdCounts Shard::all_clients() const {
  AbdCounts total;
  for (const auto& c : clients_) {
    const AbdCounts one = counts_of(*c);
    total.operations += one.operations;
    total.retries += one.retries;
    total.fast_reads += one.fast_reads;
    total.fast_read_misses += one.fast_read_misses;
  }
  return total;
}

}  // namespace tfr::service
