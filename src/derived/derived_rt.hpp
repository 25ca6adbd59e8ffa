// Derived wait-free objects — real-thread edition.
//
// Mirrors the sim-side constructions (see the sibling *_sim.hpp headers
// for the algorithms and correctness arguments):
//
//   RtMultiConsensus — bitwise prefix-agreement over per-bit instances of
//                      Algorithm 1: one BasicRtConsensus lane per bit,
//                      all lanes in one set of register arrays (indexed
//                      by round*bits + bit).  A full instance per bit
//                      would be far too large; interleaving keeps one
//                      multi-valued instance a few KB, so the universal
//                      construction can afford one per log slot.
//   RtElection       — propose own id, decision is the leader.
//   RtTestAndSet     — winner of the election reads 0, the rest read 1.
//   RtUniversal      — consensus-log state-machine replication with
//                      announce-array helping (wait-free).
//
// All of these inherit Algorithm 1's headline property: safety holds under
// arbitrary timing behaviour, progress resumes as soon as steps fit inside
// the instance's (optimistic) Δ.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tfr/core/consensus_rt.hpp"
#include "tfr/derived/universal_sim.hpp"  // OpCodec, Replica
#include "tfr/registers/register_array.hpp"

namespace tfr::rt {

/// Multi-valued consensus on values in [0, 2^bits), bits <= 62.
class RtMultiConsensus {
 public:
  struct Config {
    Nanos delta{1000};
    int bits = 31;
  };

  explicit RtMultiConsensus(Config config);

  RtMultiConsensus(const RtMultiConsensus&) = delete;
  RtMultiConsensus& operator=(const RtMultiConsensus&) = delete;

  /// Proposes `value`; blocks until the agreed value is known.
  std::int64_t propose(std::int64_t value);

  /// Agreed value if every bit decided, else -1.
  std::int64_t decided() const;

 private:
  using Array64 = RegisterArray<std::int64_t, 64, 16>;

  Config config_;
  BasicRtConsensus<StdAtomics, 256, 64> binary_;  ///< one lane per bit
  Array64 witness0_;  ///< per-bit witnesses for bit value 0
  Array64 witness1_;
};

/// Wait-free leader election among threads with ids 0..n-1.
class RtElection {
 public:
  explicit RtElection(Nanos delta);

  /// Participates with identity `id`; returns the elected id.
  int elect(int id);

  /// Elected id, or -1 (snapshot).
  int leader() const;

 private:
  RtMultiConsensus agreement_;
};

/// Wait-free one-shot test-and-set (0 for exactly one caller).
class RtTestAndSet {
 public:
  explicit RtTestAndSet(Nanos delta);

  int test_and_set(int id);
  int peek() const { return election_.leader() >= 0 ? 1 : 0; }

 private:
  RtElection election_;
};

/// Wait-free one-shot n-renaming: participants acquire unique names from
/// {0..max_names-1} (see derived/renaming_sim.hpp for the slot argument).
class RtRenaming {
 public:
  RtRenaming(Nanos delta, int max_names);

  /// Acquires a name; one call per thread identity.
  int acquire(int id);

 private:
  int max_names_;
  std::vector<std::unique_ptr<RtMultiConsensus>> slots_;
};

/// k-set agreement: at most k distinct values decided (proposers are
/// partitioned across k consensus instances by id mod k).
class RtSetConsensus {
 public:
  RtSetConsensus(Nanos delta, int k, int bits = 31);

  std::int64_t propose(int id, std::int64_t value);

  int k() const { return k_; }

 private:
  int k_;
  std::vector<std::unique_ptr<RtMultiConsensus>> groups_;
};

/// Long-lived (resettable) test-and-set: generations of one-shot
/// elections (see derived/long_lived_tas_sim.hpp for the argument).  Per
/// generation exactly one caller wins; only the current winner may
/// reset().  `loop { if (tas()==0) { CS; reset(); } }` is a
/// timing-failure-resilient lock.
class RtLongLivedTestAndSet {
 public:
  /// `n` = number of thread identities (ids 0..n-1).
  RtLongLivedTestAndSet(Nanos delta, int n);

  /// 0 for exactly one caller per generation, 1 for the rest.
  int test_and_set(int id);

  /// Releases the bit; caller must be the current generation's winner.
  void reset(int id);

  std::size_t generations() const { return elections_.published(); }

 private:
  RtElection& election(std::size_t generation);

  Nanos delta_;
  int n_;
  AtomicRegister<int> generation_{0};
  std::vector<int> won_generation_;  ///< [id]: written only by thread id
  PinnedSlots<RtElection, (1 << 18)> elections_;  ///< [generation]
};

/// Wait-free linearizable universal object (see universal_sim.hpp for the
/// construction; `Replica` and `OpCodec` are shared with the sim side).
class RtUniversal {
 public:
  RtUniversal(Nanos delta, int n,
              std::function<std::unique_ptr<derived::Replica>()> make_replica);

  /// Invokes opcode(arg) on behalf of thread `id`; returns the result.
  std::int64_t invoke(int id, int opcode, int arg);

  /// Log slots applied by the fastest replica so far.
  std::size_t log_length() const;

 private:
  struct PerProcess {
    std::unique_ptr<derived::Replica> replica;
    std::size_t applied_slots = 0;
    std::vector<int> applied_seq;
    int next_seq = 1;
  };

  RtMultiConsensus& slot(std::size_t index);

  Nanos delta_;
  int n_;
  std::function<std::unique_ptr<derived::Replica>()> make_replica_;
  std::unique_ptr<AtomicRegister<std::int64_t>[]> announce_;
  std::vector<std::unique_ptr<PerProcess>> per_process_;
  PinnedSlots<RtMultiConsensus, 65536> slots_;  ///< [log index]
};

}  // namespace tfr::rt
