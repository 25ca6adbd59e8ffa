// Tests for the derived wait-free objects (§1.4): multi-valued consensus,
// leader election, test-and-set, n-renaming, k-set consensus, the
// long-lived test-and-set and the universal construction — including
// linearizability checks on recorded histories.
//
// Every object is the shipped rt source (derived/derived_rt.hpp) on the
// ShimAtomics policy: each process is a shim thread in an ordinary
// Simulation, so the timing models, failure injectors and crashes of the
// simulator apply to it.  rt_test.cpp runs the same source on real
// threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/derived/derived_rt.hpp"
#include "tfr/rt/shim/rt_exec.hpp"
#include "tfr/rt/shim/shim_atomic.hpp"
#include "tfr/sim/monitor.hpp"
#include "tfr/sim/simulation.hpp"
#include "tfr/sim/timing.hpp"
#include "tfr/spec/history.hpp"
#include "tfr/spec/linearizability.hpp"

namespace tfr::derived {
namespace {

using Shim = rtshim::ShimAtomics;
using MultiConsensus = rt::BasicRtMultiConsensus<Shim>;
using Election = rt::BasicRtElection<Shim>;
using TestAndSet = rt::BasicRtTestAndSet<Shim>;
using Renaming = rt::BasicRtRenaming<Shim>;
using SetConsensus = rt::BasicRtSetConsensus<Shim>;
using LongLivedTas = rt::BasicRtLongLivedTestAndSet<Shim>;
using Universal = rt::BasicRtUniversal<Shim>;
using rtshim::Holder;
using sim::Duration;
using sim::FailureInjector;
using sim::make_fixed_timing;
using sim::make_uniform_timing;

constexpr Duration kDelta = 100;

std::unique_ptr<sim::TimingModel> faulty_timing(double p,
                                                Duration stretch = 8 * kDelta) {
  auto injector = std::make_unique<FailureInjector>(
      make_uniform_timing(1, kDelta), kDelta);
  injector->set_random_failures(p, stretch);
  return injector;
}

std::size_t at(int i) { return static_cast<std::size_t>(i); }

// --- Multi-valued consensus --------------------------------------------------

std::vector<std::int64_t> run_multivalue(
    const std::vector<std::int64_t>& inputs,
    std::unique_ptr<sim::TimingModel> timing, std::uint64_t seed, int bits) {
  sim::Simulation s(std::move(timing), {.seed = seed});
  std::vector<std::int64_t> out(inputs.size(), -1);
  const auto h = Holder<MultiConsensus>::make(
      s, MultiConsensus::Config{.delta = kDelta, .bits = bits});
  h->spawn_each(static_cast<int>(inputs.size()),
                [&](MultiConsensus& mc, int i) {
                  out[at(i)] = mc.propose(inputs[at(i)]);
                });
  s.run(50'000'000);
  return out;
}

TEST(MultiValue, AgreementAndValidity) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<std::int64_t> inputs{1000001, 999, 31337, 4};
    const auto out = run_multivalue(inputs, make_uniform_timing(1, kDelta),
                                    seed, 31);
    for (auto v : out) {
      EXPECT_EQ(v, out[0]) << "seed=" << seed;
      EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0)
          << "decided " << v;
    }
  }
}

TEST(MultiValue, SingleProposerGetsOwnValue) {
  const auto out = run_multivalue({123456}, make_fixed_timing(kDelta), 1, 31);
  EXPECT_EQ(out[0], 123456);
}

TEST(MultiValue, AgreementUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const std::vector<std::int64_t> inputs{7, 7777, 123, 900000, 1};
    const auto out = run_multivalue(inputs, faulty_timing(0.15), seed, 31);
    for (auto v : out) {
      EXPECT_EQ(v, out[0]) << "seed=" << seed;
      EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0);
    }
  }
}

TEST(MultiValue, ZeroAndMaxValues) {
  const std::vector<std::int64_t> inputs{0, (std::int64_t{1} << 31) - 1};
  const auto out =
      run_multivalue(inputs, make_uniform_timing(1, kDelta), 3, 31);
  EXPECT_EQ(out[0], out[1]);
  EXPECT_TRUE(out[0] == inputs[0] || out[0] == inputs[1]);
}

TEST(MultiValue, RejectsOutOfRange) {
  // 16 needs 5 bits; the contract violation leaves the shim thread and
  // surfaces out of the run.
  EXPECT_THROW(run_multivalue({16}, make_fixed_timing(1), 0, 4),
               ContractViolation);
}

// --- Election ----------------------------------------------------------------

TEST(Election, ExactlyOneLeaderAmongParticipants) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    std::vector<int> winner(6, -1);
    const auto h = Holder<Election>::make(s, kDelta);
    h->spawn_each(6, [&](Election& e, int i) { winner[at(i)] = e.elect(i); });
    s.run(50'000'000);
    for (int w : winner) {
      EXPECT_EQ(w, winner[0]) << "seed=" << seed;
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 6);
    }
    EXPECT_EQ(h->algo->leader(), winner[0]);
  }
}

TEST(Election, SoloElectsItself) {
  sim::Simulation s(make_fixed_timing(kDelta));
  int winner = -1;
  const auto h = Holder<Election>::make(s, kDelta);
  h->spawn_each(1, [&](Election& e, int i) { winner = e.elect(i); });
  s.run();
  EXPECT_EQ(winner, 0);
}

TEST(Election, LeaderSurvivesTimingFailures) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Simulation s(faulty_timing(0.2), {.seed = seed});
    std::vector<int> winner(4, -1);
    const auto h = Holder<Election>::make(s, kDelta);
    h->spawn_each(4, [&](Election& e, int i) { winner[at(i)] = e.elect(i); });
    s.run(100'000'000);
    for (int w : winner) EXPECT_EQ(w, winner[0]) << "seed=" << seed;
  }
}

TEST(Election, WaitFreeUnderCrashes) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 4});
  std::vector<int> winner(4, -1);
  const auto h = Holder<Election>::make(s, kDelta);
  h->spawn_each(4, [&](Election& e, int i) { winner[at(i)] = e.elect(i); });
  s.crash_after_accesses(0, 10);
  s.crash_after_accesses(1, 25);
  s.run(100'000'000);
  EXPECT_GE(winner[2], 0);
  EXPECT_EQ(winner[2], winner[3]);
}

// --- Test-and-set ------------------------------------------------------------

TEST(TestAndSet, ExactlyOneWinner) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    std::vector<int> got(5, -1);
    const auto h = Holder<TestAndSet>::make(s, kDelta);
    h->spawn_each(
        5, [&](TestAndSet& t, int i) { got[at(i)] = t.test_and_set(i); });
    s.run(50'000'000);
    EXPECT_EQ(std::count(got.begin(), got.end(), 0), 1) << "seed=" << seed;
    EXPECT_EQ(std::count(got.begin(), got.end(), 1), 4) << "seed=" << seed;
    EXPECT_EQ(h->algo->peek(), 1);
  }
}

TEST(TestAndSet, HistoryIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    spec::History history;
    const auto h = Holder<TestAndSet>::make(s, kDelta);
    h->spawn_each(4, [&](TestAndSet& t, int i) {
      const auto token = history.invoke(i, "tas", 0, s.now());
      const int r = t.test_and_set(i);
      history.respond(token, r, s.now());
    });
    s.run(50'000'000);
    const auto ops = history.completed();
    ASSERT_EQ(ops.size(), 4u);
    const auto verdict = spec::check_linearizable(ops, spec::TasModel{});
    EXPECT_TRUE(verdict.linearizable) << "seed=" << seed;
  }
}

// --- Renaming ----------------------------------------------------------------

std::vector<int> run_renaming(std::uint64_t seed, int participants,
                              int names) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
  std::vector<int> name(at(participants), -1);
  const auto h = Holder<Renaming>::make(s, kDelta, names);
  h->spawn_each(participants,
                [&](Renaming& r, int i) { name[at(i)] = r.acquire(i); });
  s.run(100'000'000);
  for (int i = 0; i < participants; ++i)
    EXPECT_EQ(h->algo->owner(name[at(i)]), i) << "seed=" << seed;
  return name;
}

TEST(Renaming, NamesAreUniqueAndTight) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const int n = 6;
    const std::vector<int> name = run_renaming(seed, n, n);
    std::set<int> unique(name.begin(), name.end());
    EXPECT_EQ(unique.size(), at(n)) << "seed=" << seed;
    for (int v : name) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

TEST(Renaming, SubsetOfParticipantsUsesPrefixOfNames) {
  // Three participants in a namespace sized for six: tight renaming means
  // they still end up with names 0..2 (a slot is only skipped by losing it
  // to a distinct winner).
  const std::vector<int> name = run_renaming(2, 3, 6);
  std::set<int> unique(name.begin(), name.end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2}));
}

TEST(Renaming, OwnersMatchAcquiredNames) {
  // run_renaming checks owner(name[i]) == i for every participant.
  const std::vector<int> name = run_renaming(8, 4, 4);
  EXPECT_EQ(std::set<int>(name.begin(), name.end()).size(), 4u);
}

// --- k-set consensus ---------------------------------------------------------

std::vector<std::int64_t> run_set_consensus(
    std::unique_ptr<sim::TimingModel> timing, std::uint64_t seed, int k,
    const std::vector<std::int64_t>& inputs, sim::Time limit) {
  sim::Simulation s(std::move(timing), {.seed = seed});
  std::vector<std::int64_t> out(inputs.size(), -1);
  const auto h = Holder<SetConsensus>::make(s, kDelta, k);
  h->spawn_each(static_cast<int>(inputs.size()), [&](SetConsensus& sc, int i) {
    out[at(i)] = sc.propose(i, inputs[at(i)]);
  });
  s.run(limit);
  return out;
}

TEST(SetConsensus, AtMostKValuesAndValidity) {
  for (const int k : {1, 2, 3}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      std::vector<std::int64_t> inputs;
      for (int i = 0; i < 9; ++i) inputs.push_back(100 + i);
      const auto out = run_set_consensus(make_uniform_timing(1, kDelta), seed,
                                         k, inputs, 100'000'000);
      std::set<std::int64_t> decided(out.begin(), out.end());
      EXPECT_LE(decided.size(), at(k)) << "k=" << k << " seed=" << seed;
      for (auto v : out)
        EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), v) > 0);
    }
  }
}

TEST(SetConsensus, K1DegeneratesToConsensus) {
  const auto out = run_set_consensus(make_uniform_timing(1, kDelta), 7, 1,
                                     {10, 11, 12, 13, 14}, 100'000'000);
  for (auto v : out) EXPECT_EQ(v, out[0]);
}

TEST(SetConsensus, SafeUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto out =
        run_set_consensus(faulty_timing(0.15, 10 * kDelta), seed, 2,
                          {50, 51, 52, 53, 54, 55}, 500'000'000);
    std::set<std::int64_t> decided(out.begin(), out.end());
    EXPECT_LE(decided.size(), 2u) << "seed=" << seed;
  }
}

// --- Long-lived test-and-set -------------------------------------------------

/// Three threads each take the long-lived TAS as a lock for `sessions`
/// critical sections of 20 ticks, backing off 10 ticks between attempts.
void run_tas_lock(std::unique_ptr<sim::TimingModel> timing,
                  std::uint64_t seed, int sessions, sim::Time limit) {
  sim::Simulation s(std::move(timing), {.seed = seed});
  sim::MutexMonitor mon;
  const auto h = Holder<LongLivedTas>::make(s, kDelta, 3);
  h->spawn_each(3, [&](LongLivedTas& tas, int i) {
    for (int session = 0; session < sessions; ++session) {
      mon.enter_entry(i, s.now());
      while (tas.test_and_set(i) != 0) Shim::delay(10);
      mon.enter_cs(i, s.now());
      Shim::delay(20);
      mon.exit_cs(i, s.now());
      tas.reset(i);
      mon.leave_exit(i, s.now());
    }
  });
  s.run(limit);
  EXPECT_EQ(mon.mutual_exclusion_violations(), 0u) << "seed=" << seed;
  EXPECT_EQ(mon.cs_entries(), static_cast<std::uint64_t>(3 * sessions))
      << "seed=" << seed;
  EXPECT_GE(h->algo->generations(), static_cast<std::size_t>(3 * sessions));
}

TEST(LongLivedTas, WorksAsMutexLock) {
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    run_tas_lock(make_uniform_timing(1, kDelta), seed, 4, 1'000'000'000);
}

TEST(LongLivedTas, MutexHoldsUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    run_tas_lock(faulty_timing(0.1, 10 * kDelta), seed, 3, 4'000'000'000);
}

TEST(LongLivedTas, OneWinnerPerGeneration) {
  sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = 3});
  std::vector<int> got(4, -1);
  const auto h = Holder<LongLivedTas>::make(s, kDelta, 4);
  h->spawn_each(
      4, [&](LongLivedTas& tas, int i) { got[at(i)] = tas.test_and_set(i); });
  s.run(100'000'000);
  EXPECT_EQ(std::count(got.begin(), got.end(), 0), 1);
  EXPECT_EQ(std::count(got.begin(), got.end(), 1), 3);
}

TEST(LongLivedTas, ResetByNonWinnerRejected) {
  sim::Simulation s(make_fixed_timing(10));
  const auto h = Holder<LongLivedTas>::make(s, kDelta, 1);
  h->spawn_each(1, [](LongLivedTas& tas, int i) { tas.reset(i); });
  EXPECT_THROW(s.run(), ContractViolation);  // never won anything
}

// --- Universal construction --------------------------------------------------

std::shared_ptr<Holder<Universal>> counter_adds(
    sim::Simulation& s, int n, int count, int amount,
    std::vector<std::int64_t>& last) {
  auto h = Holder<Universal>::make(
      s, kDelta, n, [] { return std::make_unique<CounterReplica>(); });
  h->spawn_each(n, [&last, count, amount](Universal& u, int i) {
    for (int k = 0; k < count; ++k)
      last[at(i)] = u.invoke(i, CounterReplica::kAdd, amount);
  });
  return h;
}

TEST(Universal, CounterSumsAllIncrements) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    std::vector<std::int64_t> last(4, -1);
    const auto h = counter_adds(s, 4, 3, 10, last);
    s.run(500'000'000);
    // 12 increments of 10: some caller observed the final value 120.
    EXPECT_EQ(*std::max_element(last.begin(), last.end()), 120)
        << "seed=" << seed;
    EXPECT_EQ(h->algo->log_length(), 12u) << "seed=" << seed;
  }
}

TEST(Universal, QueueHistoryIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::Simulation s(make_uniform_timing(1, kDelta), {.seed = seed});
    spec::History history;
    const auto h = Holder<Universal>::make(
        s, kDelta, 3, [] { return std::make_unique<QueueReplica>(); });
    h->spawn_each(3, [&](Universal& u, int i) {
      for (int k = 0; k < 2; ++k) {
        const int arg = i * 10 + k;
        auto token = history.invoke(i, "enqueue", arg, s.now());
        const auto r = u.invoke(i, QueueReplica::kEnqueue, arg);
        history.respond(token, r, s.now());
        token = history.invoke(i, "dequeue", 0, s.now());
        const auto d = u.invoke(i, QueueReplica::kDequeue, 0);
        history.respond(token, d, s.now());
      }
    });
    s.run(500'000'000);
    const auto ops = history.completed();
    ASSERT_EQ(ops.size(), 12u);
    const auto verdict = spec::check_linearizable(ops, spec::QueueModel{});
    EXPECT_TRUE(verdict.linearizable) << "seed=" << seed;
  }
}

TEST(Universal, ResultsComeFromOwnOperations) {
  sim::Simulation s(make_fixed_timing(kDelta));
  std::int64_t got = -1;
  const auto h = Holder<Universal>::make(
      s, kDelta, 2, [] { return std::make_unique<CounterReplica>(); });
  h->spawn_each(1, [&got](Universal& u, int i) {
    u.invoke(i, CounterReplica::kAdd, 5);
    u.invoke(i, CounterReplica::kAdd, 7);
    got = u.invoke(i, CounterReplica::kGet, 0);
  });
  s.run(100'000'000);
  EXPECT_EQ(got, 12);
}

TEST(Universal, SafeUnderTimingFailures) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    sim::Simulation s(faulty_timing(0.1), {.seed = seed});
    std::vector<std::int64_t> last(3, -1);
    const auto h = counter_adds(s, 3, 2, 1, last);
    s.run(2'000'000'000);
    EXPECT_EQ(*std::max_element(last.begin(), last.end()), 6)
        << "seed=" << seed;
  }
}

TEST(OpCodecTest, RoundTripsFields) {
  const auto op = OpCodec::encode(37, 1234, 7, 99);
  EXPECT_EQ(OpCodec::pid(op), 37);
  EXPECT_EQ(OpCodec::seq(op), 1234);
  EXPECT_EQ(OpCodec::opcode(op), 7);
  EXPECT_EQ(OpCodec::arg(op), 99);
  EXPECT_THROW(OpCodec::encode(-1, 1, 1, 1), ContractViolation);
  EXPECT_THROW(OpCodec::encode(1, 0, 1, 1), ContractViolation);
}

// --- Lazily built instances --------------------------------------------------

// The universal construction builds one multi-valued instance per log slot,
// and the long-lived TAS one election per generation, on whichever thread
// first reaches it.  Their cells are constructed holding their initial
// values, so building an instance takes no shared step of that thread.
TEST(LazyConstruction, BuildingOnAShimThreadTakesNoStep) {
  sim::Simulation s(make_fixed_timing(1));
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  const auto h = Holder<int>::make(s);
  h->spawn_each(1, [&](int&, int) {
    before = s.stats(0).accesses();
    const MultiConsensus slot({.delta = kDelta, .bits = 62});
    const Universal universal(kDelta, 4, [] {
      return std::make_unique<CounterReplica>();
    });
    const rt::BasicRtConsensus<Shim> consensus({.delta = kDelta});
    after = s.stats(0).accesses();
  });
  s.run();
  EXPECT_EQ(after, before);
  EXPECT_EQ(s.stats(0).accesses(), 0u);
}

}  // namespace
}  // namespace tfr::derived
