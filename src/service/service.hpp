// The shard-scale service scenario: S shards x (ABD register + leader
// election) behind an open-loop generator — the repo's "millions of
// client sessions" workload axis (ROADMAP north star; docs/MODEL.md
// "Service scenario").
//
// run_service() is the whole story in one call:
//   1. boot    — spawn every shard's replicas; run until all leaders are
//                elected (resilient MsgElection per shard);
//   2. outage  — optionally cut the leader endpoint of a subset of shards
//                for a window [begin, heal) (NetAdversary partition) and
//                arm each affected shard's convergence bound;
//   3. load    — spawn the LoadGen at the current instant and run until
//                every session is resolved (served by a leader or shed by
//                the generator after max_attempts rejections);
//   4. report  — aggregate throughput, end-to-end latency samples, queue /
//                backpressure / retry-storm counters, per-shard ABD stats,
//                linearizability + bounded-convergence verdicts, and the
//                post-heal drain time of the slowest affected shard.
//
// Everything is deterministic for a fixed config (one virtual clock, one
// seed, hash routing, deterministic jitter): same seed => byte-identical
// trace — the property the Service determinism test pins.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tfr/common/stats.hpp"
#include "tfr/obs/trace.hpp"
#include "tfr/service/loadgen.hpp"
#include "tfr/service/shard.hpp"

namespace tfr::service {

struct ServiceConfig {
  int shards = 4;
  ShardConfig shard;  ///< template; id is overridden per shard
  LoadConfig load;
  /// Seeds the simulator's access costs.  Not the shards'
  /// NetAdversary verdicts: those are seeded by shard id alone
  /// (0x5eed + id, shard.cpp), so every sim_seed meets the same
  /// per-channel-slot drop/duplicate/delay pattern.
  std::uint64_t sim_seed = 1;
  sim::Duration step = 50;  ///< access-cost upper bound (the delta unit)

  /// Partial outage: cut the leader client endpoint of each listed shard
  /// for [begin, heal) ticks after the workload starts.  Empty = no
  /// outage.
  struct Outage {
    std::vector<int> shards;
    sim::Duration begin = 0;
    sim::Duration heal = 0;
  } outage;
  sim::Duration convergence_bound = 0;  ///< post-heal bound (0 = unchecked)

  obs::TraceSink* sink = nullptr;  ///< optional trace (determinism tests)
  sim::Time limit = 8'000'000'000;
};

struct ServiceReport {
  // Boot.
  bool all_elected = false;
  sim::Time elected_at = -1;  ///< slowest shard's election finish
  sim::Time workload_start = -1;

  // Sessions.
  std::uint64_t sessions = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  sim::Time finished_at = -1;  ///< last batch commit instant
  Samples latency;             ///< per served session, ticks end-to-end

  // Backpressure / retry storm.
  std::uint64_t offered_pushes = 0;
  std::uint64_t rejected = 0;
  double amplification = 0.0;
  std::size_t max_queue_depth = 0;
  std::size_t max_retry_heap = 0;

  // Batching / replication.
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  /// ABD counters of the workload: the leaders' batch commits, from the
  /// instant each leader began to serve.
  std::uint64_t abd_operations = 0;
  std::uint64_t abd_retries = 0;
  std::uint64_t abd_fast_reads = 0;
  std::uint64_t abd_fast_read_misses = 0;
  /// ABD counters of the boot: every replica's election operations (on a
  /// faulty network, many retries).
  std::uint64_t boot_abd_operations = 0;
  std::uint64_t boot_abd_retries = 0;
  std::uint64_t readback_mismatches = 0;

  // Safety / convergence (aggregated over every shard's monitor).  The
  // monitors record every replica client's operations, so the checked
  // histories include the boot election's registers too.
  bool linearizable = true;
  bool converged = true;
  std::uint64_t unfinished = 0;
  std::uint64_t safety_violations = 0;
  sim::Duration worst_lag = 0;
  /// msg::Network::lost_wakeups() summed over the shards at the end of
  /// the run; any non-zero count is a receiver asleep on a sent message.
  std::uint64_t lost_wakeups = 0;

  // Outage drain: max over affected shards of (drained_at - heal); -1
  // when no outage was configured (or a shard never drained).
  sim::Time outage_heal = -1;
  sim::Duration heal_drain = -1;

  /// Every session accounted for: served or deliberately shed.
  bool complete() const { return served + shed == sessions; }

  /// Served sessions per delta of workload time.
  double throughput_per_delta(sim::Duration step) const {
    const sim::Duration elapsed = finished_at - workload_start;
    if (elapsed <= 0) return 0.0;
    return static_cast<double>(served) * static_cast<double>(step) /
           static_cast<double>(elapsed);
  }
};

/// Runs the full scenario (boot, optional outage, load, drain) in one
/// fresh Simulation and returns the aggregated report.
ServiceReport run_service(const ServiceConfig& config);

}  // namespace tfr::service
