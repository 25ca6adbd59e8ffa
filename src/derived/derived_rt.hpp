// Derived wait-free objects (§1.4): consensus as a universal building
// block.  Each object inherits Algorithm 1's headline property: safety
// holds under arbitrary timing behaviour, progress resumes as soon as
// steps fit inside the instance's (optimistic) Δ.
//
//   BasicRtMultiConsensus — multi-valued consensus by bitwise prefix
//       agreement: one binary instance per bit position.  Before proposing
//       bit b at position k a thread publishes its full candidate in
//       witness[k][b]; a thread whose bit loses adopts the witness of the
//       winning bit, which (a) was written before that bit could win,
//       (b) matches the agreed prefix through k and (c) is some thread's
//       input.  After all positions the agreed bit string is the decided
//       value.  The bits are the lanes of one BasicRtConsensus (round r of
//       lane k at index r·bits + k of one set of register arrays): a full
//       instance per bit would be far too large, and interleaving keeps one
//       instance a few KB, so the universal construction can afford one
//       per log slot.
//   BasicRtElection — propose your own id; the decision is the leader.
//   BasicRtTestAndSet — the election's winner reads 0, the rest read 1.
//   BasicRtRenaming — tight n-renaming: one multi-valued instance per name;
//       a thread proposes its id for name 0, 1, 2, ... until it wins one.
//       Each name has one winner, a thread stops at its first win, and
//       every name it loses is won by a different thread, so it loses at
//       most n-1.
//   BasicRtSetConsensus — k-set agreement (§2.1): proposers are split
//       across k instances by id mod k, so at most k values are decided.
//   BasicRtLongLivedTestAndSet — generations of one-shot elections, built
//       lazily.  test_and_set() plays the current generation's election;
//       only its winner may reset(), which opens the next generation, so
//       `loop { if (tas() == 0) { CS; reset(); } }` is a mutual-exclusion
//       algorithm resilient to timing failures.
//   BasicRtUniversal — Herlihy's universal construction [24]: a log of
//       multi-valued instances, one per slot, with announce-array helping.
//       At slot s a thread proposes the announced, not yet applied
//       operation of thread (s mod n) if any, else its own, so a slow
//       announcer lands within ~2n decisions (wait-free).  Every thread
//       applies the log in order to a private Replica (derived/replica.hpp)
//       and returns what its replica answered at its operation's slot.
//
// Like Algorithm 1 (core/consensus_rt.hpp) every object is a template
// over the Atomics policy (rt/atomics_policy.hpp).  The Rt* names are the
// StdAtomics instantiations that real threads run (examples/
// replicated_log.cpp); E11 and the derived tests run the same source on
// ShimAtomics shim threads in virtual time, and tfr_mcheck's
// multi-consensus-rt-n2 explores it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/pinned_slots.hpp"
#include "tfr/core/consensus_rt.hpp"
#include "tfr/derived/replica.hpp"
#include "tfr/registers/atomic_register.hpp"
#include "tfr/registers/register_array.hpp"

namespace tfr::rt {

namespace detail {
/// Ids are small; 24 bits of id space keeps the bitwise reduction short.
inline constexpr int kIdBits = 24;
}  // namespace detail

/// Multi-valued consensus on values in [0, 2^bits), bits <= 62.
template <class Atomics>
class BasicRtMultiConsensus {
 public:
  struct Config {
    typename Atomics::duration delta{1000};
    int bits = 31;
  };

  explicit BasicRtMultiConsensus(Config config)
      : config_(config),
        binary_({.delta = config.delta},
                static_cast<std::size_t>(config.bits)),
        witness0_(-1),
        witness1_(-1) {
    TFR_REQUIRE(config.bits >= 1 && config.bits <= 62);
  }

  BasicRtMultiConsensus(const BasicRtMultiConsensus&) = delete;
  BasicRtMultiConsensus& operator=(const BasicRtMultiConsensus&) = delete;

  /// Proposes `value`; blocks until the agreed value is known.
  std::int64_t propose(std::int64_t value) {
    TFR_REQUIRE(value >= 0);
    TFR_REQUIRE(config_.bits >= 62 ||
                value < (std::int64_t{1} << config_.bits));
    std::int64_t candidate = value;
    for (int k = 0; k < config_.bits; ++k) {
      const auto bit = static_cast<std::size_t>(k);
      const int b = static_cast<int>((candidate >> k) & 1);
      // Publish the full candidate before proposing its bit: if bit b
      // wins, some witness with that bit (and the agreed prefix) exists.
      (b == 0 ? witness0_ : witness1_).at(bit).write(candidate);
      const int decided = binary_.propose(bit, b).value;
      if (decided != b) {
        const std::int64_t adopted =
            (decided == 0 ? witness0_ : witness1_).at(bit).read();
        TFR_INVARIANT(adopted >= 0);
        TFR_INVARIANT(((adopted ^ candidate) & ((std::int64_t{1} << k) - 1)) ==
                      0);
        TFR_INVARIANT(((adopted >> k) & 1) == decided);
        candidate = adopted;
      }
    }
    return candidate;
  }

  /// Agreed value if every bit decided, else -1.
  std::int64_t decided() const {
    std::int64_t value = 0;
    for (int k = 0; k < config_.bits; ++k) {
      const int d = binary_.decided(static_cast<std::size_t>(k));
      if (d == -1) return -1;
      value |= std::int64_t{d} << k;
    }
    return value;
  }

 private:
  using Array64 = RegisterArray<std::int64_t, 64, 16, Atomics>;

  Config config_;
  /// One lane per bit; round r of lane k is cell r·bits + k.  64-cell
  /// segments keep round 0 of up to 64 lanes in one segment (an election
  /// has 24, a universal slot 62) at the same 16,384-cell capacity.
  BasicRtConsensus<Atomics, 64, 256> binary_;
  Array64 witness0_;  ///< per-bit witnesses for bit value 0
  Array64 witness1_;
};

/// Wait-free leader election among threads with ids 0..2^24-1.
template <class Atomics>
class BasicRtElection {
 public:
  explicit BasicRtElection(typename Atomics::duration delta)
      : agreement_({.delta = delta, .bits = detail::kIdBits}) {}

  /// Participates with identity `id`; returns the elected id.
  int elect(int id) {
    TFR_REQUIRE(id >= 0);
    return static_cast<int>(agreement_.propose(std::int64_t{id}));
  }

  /// Elected id, or -1 (snapshot).
  int leader() const {
    const std::int64_t v = agreement_.decided();
    return v < 0 ? -1 : static_cast<int>(v);
  }

 private:
  BasicRtMultiConsensus<Atomics> agreement_;
};

/// Wait-free one-shot test-and-set (0 for exactly one caller).
template <class Atomics>
class BasicRtTestAndSet {
 public:
  explicit BasicRtTestAndSet(typename Atomics::duration delta)
      : election_(delta) {}

  /// At most one call per thread identity.
  int test_and_set(int id) { return election_.elect(id) == id ? 0 : 1; }
  int peek() const { return election_.leader() >= 0 ? 1 : 0; }

 private:
  BasicRtElection<Atomics> election_;
};

/// Wait-free one-shot n-renaming: participants acquire unique names from
/// {0..max_names-1}.
template <class Atomics>
class BasicRtRenaming {
 public:
  BasicRtRenaming(typename Atomics::duration delta, int max_names) {
    TFR_REQUIRE(max_names >= 1);
    slots_.reserve(static_cast<std::size_t>(max_names));
    for (int k = 0; k < max_names; ++k)
      slots_.push_back(std::make_unique<BasicRtMultiConsensus<Atomics>>(
          typename BasicRtMultiConsensus<Atomics>::Config{
              .delta = delta, .bits = detail::kIdBits}));
  }

  /// Acquires a name; one call per thread identity.
  int acquire(int id) {
    TFR_REQUIRE(id >= 0);
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (slots_[k]->propose(id) == id) return static_cast<int>(k);
    }
    TFR_REQUIRE(!"renaming namespace exhausted: more participants than names");
    return -1;
  }

  /// Winner of name `name`, or -1 (snapshot).
  int owner(int name) const {
    TFR_REQUIRE(name >= 0 && static_cast<std::size_t>(name) < slots_.size());
    const std::int64_t v = slots_[static_cast<std::size_t>(name)]->decided();
    return v < 0 ? -1 : static_cast<int>(v);
  }

 private:
  std::vector<std::unique_ptr<BasicRtMultiConsensus<Atomics>>> slots_;
};

/// k-set agreement: at most k distinct values decided.
template <class Atomics>
class BasicRtSetConsensus {
 public:
  BasicRtSetConsensus(typename Atomics::duration delta, int k, int bits = 31)
      : k_(k) {
    TFR_REQUIRE(k >= 1);
    groups_.reserve(static_cast<std::size_t>(k));
    for (int g = 0; g < k; ++g)
      groups_.push_back(std::make_unique<BasicRtMultiConsensus<Atomics>>(
          typename BasicRtMultiConsensus<Atomics>::Config{.delta = delta,
                                                          .bits = bits}));
  }

  std::int64_t propose(int id, std::int64_t value) {
    TFR_REQUIRE(id >= 0);
    return groups_[static_cast<std::size_t>(id % k_)]->propose(value);
  }

  int k() const { return k_; }

 private:
  int k_;
  std::vector<std::unique_ptr<BasicRtMultiConsensus<Atomics>>> groups_;
};

/// Long-lived (resettable) test-and-set.  Per generation exactly one
/// caller wins; only the current winner may reset().
template <class Atomics>
class BasicRtLongLivedTestAndSet {
 public:
  /// `n` = number of thread identities (ids 0..n-1).
  BasicRtLongLivedTestAndSet(typename Atomics::duration delta, int n)
      : delta_(delta),
        n_(n),
        won_generation_(static_cast<std::size_t>(n), -1) {
    TFR_REQUIRE(n >= 1);
  }

  /// 0 for exactly one caller per generation, 1 for the rest.
  int test_and_set(int id) {
    TFR_REQUIRE(id >= 0 && id < n_);
    const int g = generation_.read();
    TFR_INVARIANT(g >= 0);
    const int winner = election(static_cast<std::size_t>(g)).elect(id);
    if (winner != id) return 1;
    // Winning generation g implies g is still current: only its unique
    // winner can advance the generation register, and that is us.
    won_generation_[static_cast<std::size_t>(id)] = g;
    return 0;
  }

  /// Releases the bit; caller must be the current generation's winner.
  void reset(int id) {
    TFR_REQUIRE(id >= 0 && id < n_);
    const int g = generation_.read();
    TFR_REQUIRE(won_generation_[static_cast<std::size_t>(id)] == g);
    generation_.write(g + 1);
  }

  std::size_t generations() const { return elections_.published(); }

 private:
  BasicRtElection<Atomics>& election(std::size_t generation) {
    return elections_.get(generation, [this] {
      return std::make_unique<BasicRtElection<Atomics>>(delta_);
    });
  }

  typename Atomics::duration delta_;
  int n_;
  BasicAtomicRegister<int, Atomics> generation_{0};
  std::vector<int> won_generation_;  ///< [id]: written only by thread id
  PinnedSlots<BasicRtElection<Atomics>> elections_{1 << 18};  ///< [generation]
};

/// Wait-free linearizable universal object.
template <class Atomics>
class BasicRtUniversal {
 public:
  /// `make_replica` builds one private replica per thread; replicas must
  /// be deterministic and start in the same state.
  BasicRtUniversal(
      typename Atomics::duration delta, int n,
      std::function<std::unique_ptr<derived::Replica>()> make_replica)
      : delta_(delta),
        n_(n),
        make_replica_(std::move(make_replica)),
        announce_(
            std::make_unique<AnnounceCell[]>(static_cast<std::size_t>(n))) {
    TFR_REQUIRE(n >= 1 && n < (1 << 14));
    TFR_REQUIRE(make_replica_ != nullptr);
    per_process_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto pp = std::make_unique<PerProcess>();
      pp->replica = make_replica_();
      pp->applied_seq.assign(static_cast<std::size_t>(n), 0);
      per_process_.push_back(std::move(pp));
    }
  }

  /// Invokes opcode(arg) on behalf of thread `id`; returns the result.
  std::int64_t invoke(int id, int opcode, int arg) {
    using derived::OpCodec;
    TFR_REQUIRE(id >= 0 && id < n_);
    PerProcess& mine = *per_process_[static_cast<std::size_t>(id)];
    const std::int64_t op = OpCodec::encode(id, mine.next_seq++, opcode, arg);

    // Announce, so that others help us into the log even if we lose every
    // direct race (wait-freedom under contention).
    announce_[static_cast<std::size_t>(id)].write(op);

    std::int64_t my_result = -1;
    bool applied_mine = false;
    while (!applied_mine) {
      const std::size_t index = mine.applied_slots;
      const auto beneficiary = index % static_cast<std::size_t>(n_);
      std::int64_t proposal = op;
      if (beneficiary != static_cast<std::size_t>(id)) {
        const std::int64_t announced = announce_[beneficiary].read();
        if (announced >= 0 &&
            OpCodec::seq(announced) > mine.applied_seq[beneficiary]) {
          proposal = announced;
        }
      }
      const std::int64_t winner = slot(index).propose(proposal);
      // Apply the slot's winner whoever won: the replica stays in
      // lockstep with the decided prefix of the log.
      const std::int64_t result = mine.replica->apply(winner);
      const int winner_pid = OpCodec::pid(winner);
      TFR_INVARIANT(winner_pid >= 0 && winner_pid < n_);
      // Sequence numbers of one pid enter the log in order.
      TFR_INVARIANT(OpCodec::seq(winner) >
                    mine.applied_seq[static_cast<std::size_t>(winner_pid)]);
      mine.applied_seq[static_cast<std::size_t>(winner_pid)] =
          OpCodec::seq(winner);
      mine.applied_slots = index + 1;
      if (winner == op) {
        my_result = result;
        applied_mine = true;
      }
    }
    // Retire the announcement (latecomers already see it as applied via
    // the sequence high-water mark: an optimization, not for safety).
    announce_[static_cast<std::size_t>(id)].write(-1);
    return my_result;
  }

  /// Log slots applied by the fastest replica so far.
  std::size_t log_length() const {
    std::size_t longest = 0;
    for (const auto& pp : per_process_)
      if (pp->applied_slots > longest) longest = pp->applied_slots;
    return longest;
  }

 private:
  struct PerProcess {
    std::unique_ptr<derived::Replica> replica;
    std::size_t applied_slots = 0;  ///< next log slot this replica applies
    std::vector<int> applied_seq;   ///< per-pid applied high-water marks
    int next_seq = 1;               ///< own sequence numbers (1-based)
  };

  BasicRtMultiConsensus<Atomics>& slot(std::size_t index) {
    return slots_.get(index, [this] {
      return std::make_unique<BasicRtMultiConsensus<Atomics>>(
          typename BasicRtMultiConsensus<Atomics>::Config{
              .delta = delta_, .bits = derived::OpCodec::kBits});
    });
  }

  typename Atomics::duration delta_;
  int n_;
  std::function<std::unique_ptr<derived::Replica>()> make_replica_;
  /// Constructed holding -1 (nothing announced), so no write follows
  /// construction.
  struct AnnounceCell : BasicAtomicRegister<std::int64_t, Atomics> {
    AnnounceCell() : BasicAtomicRegister<std::int64_t, Atomics>(-1) {}
  };
  std::unique_ptr<AnnounceCell[]> announce_;  ///< [id]
  std::vector<std::unique_ptr<PerProcess>> per_process_;
  PinnedSlots<BasicRtMultiConsensus<Atomics>> slots_{65536};  ///< [log index]
};

using RtMultiConsensus = BasicRtMultiConsensus<StdAtomics>;
using RtElection = BasicRtElection<StdAtomics>;
using RtTestAndSet = BasicRtTestAndSet<StdAtomics>;
using RtRenaming = BasicRtRenaming<StdAtomics>;
using RtSetConsensus = BasicRtSetConsensus<StdAtomics>;
using RtLongLivedTestAndSet = BasicRtLongLivedTestAndSet<StdAtomics>;
using RtUniversal = BasicRtUniversal<StdAtomics>;

// The production instantiations live in derived_rt.cpp.
extern template class BasicRtMultiConsensus<StdAtomics>;
extern template class BasicRtElection<StdAtomics>;
extern template class BasicRtTestAndSet<StdAtomics>;
extern template class BasicRtRenaming<StdAtomics>;
extern template class BasicRtSetConsensus<StdAtomics>;
extern template class BasicRtLongLivedTestAndSet<StdAtomics>;
extern template class BasicRtUniversal<StdAtomics>;

}  // namespace tfr::rt
