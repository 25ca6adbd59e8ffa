// One service shard: an n-replica ABD cluster with an elected leader
// frontend draining the shard's admission queue in batches.
//
// Each shard is a self-contained replica group — its own Network (client +
// server endpoint per replica), its own NetAdversary and
// ConvergenceMonitor — so a partial outage can hit a subset of shards
// while the rest keep serving, exactly the blast-radius story sharding is
// for.  All shards share one Simulation (one virtual clock).
//
// Boot: every replica runs MsgElection::elect over the shard's ABD space
// (resilient bitwise agreement — safety never depends on delivery
// timing).  Each replica reuses ONE AbdClient for election and, on the
// leader, for the frontend afterwards: AbdClient request-ids are scoped
// per client endpoint, so a second client on the same endpoint would race
// its twin's acks.
//
// Serve: the leader pulls admitted requests through the Batcher and
// commits one replicated record per batch (quorum write + read-back) to
// the shard's data register.  The read-back must return the leader's own
// write — the shard register is single-writer — so any mismatch is a
// safety bug, counted in readback_mismatches() and expected to be zero.
//
// Outage accounting: mark_outage(heal) arms the drain clock — drained_at()
// records the first instant after the heal at which the backlog dropped
// below one batch, giving the post-heal convergence time the bench gates.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tfr/msg/abd.hpp"
#include "tfr/msg/adversary.hpp"
#include "tfr/msg/convergence.hpp"
#include "tfr/msg/election_msg.hpp"
#include "tfr/service/batcher.hpp"
#include "tfr/service/queue.hpp"
#include "tfr/sim/simulation.hpp"

namespace tfr::service {

struct ShardConfig {
  int id = 0;
  int replicas = 3;
  sim::Duration delta = 50;        ///< step bound (election round pacing)
  msg::RetryPolicy abd_retry;      ///< hardened quorum retry discipline
  BatchPolicy batch;
  std::size_t queue_capacity = 4096;
  sim::Duration drain_hint = 8;    ///< ticks per queued request (retry-after)
  sim::Duration poll_every = 50;   ///< frontend idle poll period
  int data_reg = 1 << 18;          ///< logical register id (above election's)

  /// Adaptive optimistic(Δ): when set, the shard's AbdClients report
  /// window expiries / clean quorums / phase RTTs to this controller and
  /// size their per-peer ack windows from it (see
  /// msg::AbdClient::set_delta_controller).
  adapt::DeltaController* controller = nullptr;

  /// Heterogeneous replicas: per-replica channel faults applied to every
  /// channel touching the replica's two endpoints (client + server), both
  /// directions — one slow replica, one lossy replica, etc.
  struct ReplicaFaults {
    int replica = 0;
    msg::ChannelFaults faults;
  };
  std::vector<ReplicaFaults> replica_faults;
};

class Shard {
 public:
  /// Callback invoked by the frontend once per served request, at batch
  /// commit time — the session's response instant.
  using ServedFn = std::function<void(const Request&, sim::Time)>;

  Shard(sim::Simulation& sim, ShardConfig config);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Spawns the shard's replicas: n ABD servers + n participants (each
  /// elects; the winner becomes the frontend).  Call once, before run.
  void spawn(ServedFn on_served);

  /// True once every replica has learned the leader.
  bool elected() const {
    return election_->monitor().decided_count() ==
           static_cast<std::size_t>(cfg_.replicas);
  }
  int leader() const { return leader_; }
  sim::Time elected_at() const { return elected_at_; }

  BoundedQueue& queue() { return queue_; }
  msg::Network& network() { return *net_; }
  msg::NetAdversary& adversary() { return adversary_; }
  msg::ConvergenceMonitor& monitor() { return monitor_; }
  const ShardConfig& config() const { return cfg_; }

  /// Starts the post-heal drain clock: drained_at() records the first
  /// instant >= heal at which the backlog fell below one batch.
  void mark_outage(sim::Time heal) { heal_mark_ = heal; }
  sim::Time drained_at() const { return drained_at_; }

  std::uint64_t served() const { return served_; }
  std::uint64_t batches() const { return batch_seq_; }
  std::uint64_t size_flushes() const { return batcher_.size_flushes(); }
  std::uint64_t deadline_flushes() const { return batcher_.deadline_flushes(); }
  std::uint64_t readback_mismatches() const { return readback_mismatches_; }
  sim::Time last_served_at() const { return last_served_at_; }
  /// ABD counters of the workload: the leader client's operations since
  /// it began to serve (0 before).
  std::uint64_t abd_operations() const { return workload().operations; }
  std::uint64_t abd_retries() const { return workload().retries; }
  std::uint64_t abd_fast_reads() const { return workload().fast_reads; }
  std::uint64_t abd_fast_read_misses() const {
    return workload().fast_read_misses;
  }
  /// ABD counters of the boot: every replica's election operations, i.e.
  /// all of the shard's client operations except the workload's.
  std::uint64_t boot_abd_operations() const {
    return all_clients().operations - abd_operations();
  }
  std::uint64_t boot_abd_retries() const {
    return all_clients().retries - abd_retries();
  }

 private:
  struct AbdCounts {
    std::uint64_t operations = 0;
    std::uint64_t retries = 0;
    std::uint64_t fast_reads = 0;
    std::uint64_t fast_read_misses = 0;
  };
  static AbdCounts counts_of(const msg::AbdClient& client);
  /// The leader client's counts minus the snapshot serve() took.
  AbdCounts workload() const;
  AbdCounts all_clients() const;

  sim::Process node_main(sim::Env env, int node);
  sim::Task<void> serve(sim::Env env, msg::AbdClient& client);
  void emit_depth(sim::Env& env);

  sim::Simulation& sim_;
  ShardConfig cfg_;
  std::unique_ptr<msg::Network> net_;
  msg::NetAdversary adversary_;
  msg::ConvergenceMonitor monitor_;
  std::unique_ptr<msg::MsgElection> election_;
  std::vector<std::unique_ptr<msg::AbdClient>> clients_;
  BoundedQueue queue_;
  Batcher batcher_;
  ServedFn on_served_;

  int leader_ = -1;
  sim::Time elected_at_ = -1;
  std::uint64_t batch_seq_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t readback_mismatches_ = 0;
  sim::Time last_served_at_ = -1;
  AbdCounts serve_start_;  ///< leader client's counts when serve() began
  sim::Time heal_mark_ = -1;
  sim::Time drained_at_ = -1;
  std::uint32_t label_depth_ = 0;
};

}  // namespace tfr::service
