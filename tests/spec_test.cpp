// Unit tests for the history recorder and the Wing-Gong linearizability
// checker, against hand-constructed histories with known verdicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/common/rng.hpp"
#include "tfr/spec/history.hpp"
#include "tfr/spec/linearizability.hpp"

namespace tfr::spec {
namespace {

Operation op(int thread, const char* name, std::int64_t arg,
             std::int64_t result, std::int64_t from, std::int64_t to) {
  return Operation{thread, name, arg, result, from, to};
}

TEST(History, RecordsAndCompletes) {
  History h;
  const auto a = h.invoke(0, "add", 5, 10);
  const auto b = h.invoke(1, "get", 0, 12);
  h.respond(a, 5, 20);
  EXPECT_EQ(h.size(), 2u);
  const auto done = h.completed();
  ASSERT_EQ(done.size(), 1u);  // b never responded
  EXPECT_EQ(done[0].op, "add");
  EXPECT_EQ(done[0].result, 5);
  EXPECT_EQ(done[0].invoked_at, 10);
  EXPECT_EQ(done[0].responded_at, 20);
  (void)b;
}

TEST(History, RejectsDoubleResponse) {
  History h;
  const auto a = h.invoke(0, "x", 0, 0);
  h.respond(a, 0, 1);
  EXPECT_THROW(h.respond(a, 0, 2), ContractViolation);
}

TEST(History, RejectsResponseBeforeInvoke) {
  History h;
  const auto a = h.invoke(0, "x", 0, 10);
  EXPECT_THROW(h.respond(a, 0, 5), ContractViolation);
}

TEST(Linearizability, EmptyHistoryIsLinearizable) {
  const auto verdict = check_linearizable({}, CounterModel{});
  EXPECT_TRUE(verdict.linearizable);
}

TEST(Linearizability, SequentialCounterOk) {
  std::vector<Operation> h{
      op(0, "add", 1, 1, 0, 10),
      op(0, "add", 2, 3, 20, 30),
      op(0, "get", 0, 3, 40, 50),
  };
  EXPECT_TRUE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, SequentialCounterWrongResult) {
  std::vector<Operation> h{
      op(0, "add", 1, 1, 0, 10),
      op(0, "get", 0, 99, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, ConcurrentOpsMayReorder) {
  // get overlaps the add: may linearize before (0) — here it returned 0.
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 100),
      op(1, "get", 0, 0, 10, 20),
  };
  EXPECT_TRUE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, RealTimeOrderIsRespected) {
  // get strictly AFTER the add completed must see 5; it saw 0.
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 10),
      op(1, "get", 0, 0, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, CounterModel{}).linearizable);
}

TEST(Linearizability, TasExactlyOneWinnerOk) {
  std::vector<Operation> h{
      op(0, "tas", 0, 0, 0, 50),
      op(1, "tas", 0, 1, 10, 60),
      op(2, "tas", 0, 1, 20, 70),
  };
  EXPECT_TRUE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, TasTwoWinnersRejected) {
  std::vector<Operation> h{
      op(0, "tas", 0, 0, 0, 50),
      op(1, "tas", 0, 0, 10, 60),
  };
  EXPECT_FALSE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, TasLateWinnerAfterLoserRejected) {
  // Loser (returned 1) completed before the winner was invoked: no legal
  // order exists (the bit must have been set by someone before the loser,
  // but the only other op started later).
  std::vector<Operation> h{
      op(0, "tas", 0, 1, 0, 10),
      op(1, "tas", 0, 0, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h, TasModel{}).linearizable);
}

TEST(Linearizability, QueueFifoOk) {
  std::vector<Operation> h{
      op(0, "enqueue", 1, 1, 0, 10),
      op(0, "enqueue", 2, 2, 20, 30),
      op(1, "dequeue", 0, 1, 40, 50),
      op(1, "dequeue", 0, 2, 60, 70),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, QueueLifoRejected) {
  std::vector<Operation> h{
      op(0, "enqueue", 1, 1, 0, 10),
      op(0, "enqueue", 2, 2, 20, 30),
      op(1, "dequeue", 0, 2, 40, 50),  // LIFO order: illegal for a queue
      op(1, "dequeue", 0, 1, 60, 70),
  };
  EXPECT_FALSE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, QueueConcurrentEnqueuesEitherOrder) {
  // The two enqueues overlap; the recorded results (enqueue(2) saw size 1,
  // enqueue(1) saw size 2) force the order e2 < e1, and the dequeues agree.
  std::vector<Operation> h{
      op(0, "enqueue", 1, 2, 0, 100),
      op(1, "enqueue", 2, 1, 0, 100),
      op(2, "dequeue", 0, 2, 200, 210),
      op(2, "dequeue", 0, 1, 220, 230),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, DequeueEmptyRule) {
  std::vector<Operation> h{
      op(0, "dequeue", 0, -1, 0, 10),
      op(0, "enqueue", 7, 1, 20, 30),
      op(0, "dequeue", 0, 7, 40, 50),
  };
  EXPECT_TRUE(check_linearizable(h, QueueModel{}).linearizable);
}

TEST(Linearizability, RegisterReadMustSeeLatestWrite) {
  std::vector<Operation> h{
      op(0, "write", 1, 1, 0, 10),
      op(1, "write", 2, 2, 20, 30),
      op(2, "read", 0, 1, 40, 50),  // stale read after write(2) completed
  };
  EXPECT_FALSE(check_linearizable(h, RegisterModel{}).linearizable);
}

TEST(Linearizability, RegisterConcurrentWriteReadOk) {
  std::vector<Operation> h{
      op(0, "write", 1, 1, 0, 10),
      op(1, "write", 2, 2, 20, 60),
      op(2, "read", 0, 1, 30, 40),  // overlaps write(2): may precede it
  };
  EXPECT_TRUE(check_linearizable(h, RegisterModel{}).linearizable);
}

TEST(Linearizability, WitnessOrderIsValid) {
  std::vector<Operation> h{
      op(0, "add", 5, 5, 0, 100),
      op(1, "get", 0, 0, 10, 20),
  };
  const auto verdict = check_linearizable(h, CounterModel{});
  ASSERT_TRUE(verdict.linearizable);
  ASSERT_EQ(verdict.witness.size(), 2u);
  // The witness must place the get (index 1) before the add (index 0).
  EXPECT_EQ(verdict.witness.front(), 1u);
}

TEST(Linearizability, LargerHistoryStaysTractable) {
  // 3 threads x 4 sequential counter ops with full overlap freedom across
  // threads: exercises the memoized search.
  std::vector<Operation> h;
  std::int64_t per_thread_total[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    for (int k = 0; k < 4; ++k) {
      // Give every op the same wide window so all interleavings are live.
      per_thread_total[t] += 1;
      h.push_back(op(t, "add", 1, 0, k * 10, k * 10 + 1000));
    }
  }
  // Results must be *some* permutation-consistent values; use a simple
  // sequential-consistent assignment: thread t's i-th add returns
  // 3*i + t + 1 (round-robin order t0,t1,t2,t0,...).
  for (int t = 0; t < 3; ++t) {
    for (int k = 0; k < 4; ++k) {
      h[static_cast<std::size_t>(t * 4 + k)].result = 3 * k + t + 1;
    }
  }
  const auto verdict = check_linearizable(h, CounterModel{});
  EXPECT_TRUE(verdict.linearizable);
  EXPECT_GT(verdict.states_explored, 0u);
}

// --- Differential test against a brute-force oracle -------------------------

/// Real-time order: a precedes b iff a responded before b was invoked.
bool precedes(const Operation& a, const Operation& b) {
  return a.responded_at < b.invoked_at;
}

/// True iff no unplaced operation other than `c` precedes `c`.
bool minimal(const std::vector<Operation>& h, const std::vector<bool>& placed,
             std::size_t c) {
  for (std::size_t a = 0; a < h.size(); ++a) {
    if (!placed[a] && a != c && precedes(h[a], h[c])) return false;
  }
  return true;
}

/// Enumerates the real-time-consistent permutations of `h` in
/// lexicographic order of input indices, replaying each against the model,
/// and reports the first one it accepts.
struct OracleVerdict {
  bool linearizable = false;
  std::vector<std::size_t> first;
};

OracleVerdict brute_force(const std::vector<Operation>& h,
                          const SequentialModel& model) {
  OracleVerdict verdict;
  std::vector<std::size_t> order;
  std::vector<bool> placed(h.size(), false);
  const std::function<bool()> extend = [&]() -> bool {
    if (order.size() == h.size()) {
      auto m = model.clone();
      for (const std::size_t i : order) {
        if (m->apply(h[i].op, h[i].arg) != h[i].result) return false;
      }
      return true;
    }
    for (std::size_t c = 0; c < h.size(); ++c) {
      if (placed[c] || !minimal(h, placed, c)) continue;
      placed[c] = true;
      order.push_back(c);
      if (extend()) return true;
      order.pop_back();
      placed[c] = false;
    }
    return false;
  };
  verdict.linearizable = extend();
  if (verdict.linearizable) verdict.first = order;
  return verdict;
}

/// True iff `witness` is a real-time-consistent permutation of `h` that
/// the model accepts.
bool valid_witness(const std::vector<Operation>& h,
                   const std::vector<std::size_t>& witness,
                   const SequentialModel& model) {
  if (witness.size() != h.size()) return false;
  std::vector<bool> seen(h.size(), false);
  auto m = model.clone();
  for (std::size_t k = 0; k < witness.size(); ++k) {
    const std::size_t i = witness[k];
    if (i >= h.size() || seen[i]) return false;
    seen[i] = true;
    for (std::size_t later = k + 1; later < witness.size(); ++later) {
      if (precedes(h[witness[later]], h[i])) return false;
    }
    if (m->apply(h[i].op, h[i].arg) != h[i].result) return false;
  }
  return true;
}

/// A model and the operations drawn against it: an update (with an
/// argument in [1, max_arg], or 0 when max_arg is 0) or a query.
struct ModelCase {
  const char* name;
  std::unique_ptr<SequentialModel> model;
  const char* update;
  std::int64_t max_arg;
  const char* query;
  double update_share;
};

std::vector<ModelCase> model_cases() {
  std::vector<ModelCase> cases;
  cases.push_back({"register", std::make_unique<RegisterModel>(), "write", 3,
                   "read", 0.5});
  cases.push_back({"counter", std::make_unique<CounterModel>(), "add", 2,
                   "get", 0.6});
  cases.push_back({"queue", std::make_unique<QueueModel>(), "enqueue", 3,
                   "dequeue", 0.5});
  cases.push_back({"tas", std::make_unique<TasModel>(), "tas", 0, "read",
                   0.6});
  return cases;
}

/// A random history of up to 8 operations over 2-3 threads, recorded in
/// invocation order.  Each thread's operations are sequential; threads
/// overlap at random, with ties between instants.  Results come from a
/// random real-time-consistent order, and some histories get one wrong
/// result planted.
std::vector<Operation> random_history(Rng& rng, const ModelCase& mc) {
  const int threads = static_cast<int>(rng.uniform(2, 3));
  const int ops = static_cast<int>(rng.uniform(1, 8));
  std::vector<std::int64_t> clock(static_cast<std::size_t>(threads));
  for (auto& t : clock) t = rng.uniform(0, 4);
  std::vector<Operation> h;
  for (int k = 0; k < ops; ++k) {
    const int t = static_cast<int>(rng.uniform(0, threads - 1));
    Operation o;
    o.thread = t;
    if (rng.bernoulli(mc.update_share)) {
      o.op = mc.update;
      o.arg = mc.max_arg > 0 ? rng.uniform(1, mc.max_arg) : 0;
    } else {
      o.op = mc.query;
    }
    o.invoked_at = clock[static_cast<std::size_t>(t)] + rng.uniform(0, 3);
    o.responded_at = o.invoked_at + rng.uniform(0, 8);
    clock[static_cast<std::size_t>(t)] = o.responded_at + rng.uniform(1, 2);
    h.push_back(o);
  }
  std::stable_sort(h.begin(), h.end(),
                   [](const Operation& a, const Operation& b) {
                     return a.invoked_at < b.invoked_at;
                   });

  // Results along a random real-time-consistent order.
  auto model = mc.model->clone();
  std::vector<bool> placed(h.size(), false);
  for (std::size_t step = 0; step < h.size(); ++step) {
    std::vector<std::size_t> candidates;
    for (std::size_t c = 0; c < h.size(); ++c) {
      if (!placed[c] && minimal(h, placed, c)) candidates.push_back(c);
    }
    const std::size_t c = candidates[rng.index(candidates.size())];
    placed[c] = true;
    h[c].result = model->apply(h[c].op, h[c].arg);
  }
  if (rng.bernoulli(0.4)) {
    Operation& wrong = h[rng.index(h.size())];
    wrong.result += rng.bernoulli(0.5) ? 1 : -1;
  }
  return h;
}

TEST(Linearizability, MatchesBruteForceOracle) {
  Rng rng(2006);
  LinearizabilityChecker checker;  // reused across histories and models
  for (const ModelCase& mc : model_cases()) {
    int linearizable = 0;
    int rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
      const std::vector<Operation> h = random_history(rng, mc);
      const OracleVerdict oracle = brute_force(h, *mc.model);
      const LinearizabilityResult got = checker.check(h, *mc.model);
      ASSERT_EQ(got.linearizable, oracle.linearizable)
          << mc.name << " trial " << trial;
      if (got.linearizable) {
        ++linearizable;
        // Candidates are tried in input order, so the witness is the
        // oracle's lexicographically first order.
        EXPECT_EQ(got.witness, oracle.first) << mc.name << " trial " << trial;
      } else {
        ++rejected;
      }
      // Buffers reused across histories must not change the search.
      EXPECT_EQ(check_linearizable(h, *mc.model).states_explored,
                got.states_explored);
    }
    // Both verdicts must actually be exercised.
    EXPECT_GT(linearizable, 50) << mc.name;
    EXPECT_GT(rejected, 20) << mc.name;
  }
}

TEST(Linearizability, ShuffledInputGetsTheSortedVerdict) {
  Rng rng(14);
  LinearizabilityChecker checker;
  for (const ModelCase& mc : model_cases()) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<Operation> sorted = random_history(rng, mc);
      std::vector<Operation> shuffled = sorted;
      rng.shuffle(shuffled);
      const bool expected = checker.check(sorted, *mc.model).linearizable;
      const LinearizabilityResult got = checker.check(shuffled, *mc.model);
      ASSERT_EQ(got.linearizable, expected) << mc.name << " trial " << trial;
      if (got.linearizable) {
        EXPECT_TRUE(valid_witness(shuffled, got.witness, *mc.model))
            << mc.name << " trial " << trial;
      }
    }
  }
}

TEST(Linearizability, MillionOperationSequentialHistory) {
  // One writer writing then reading back, as a shard leader's register
  // history is: no two operations overlap, so every step has a single
  // candidate.  The search is iterative, so depth 1M needs no deep stack.
  constexpr int kOps = 1'000'000;
  std::vector<Operation> h;
  h.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const std::int64_t value = i / 2 + 1;
    h.push_back(op(0, i % 2 == 0 ? "write" : "read", i % 2 == 0 ? value : 0,
                   value, 2 * i, 2 * i + 1));
  }
  const auto begin = std::chrono::steady_clock::now();
  const LinearizabilityResult verdict = check_linearizable(h, RegisterModel{});
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(verdict.linearizable);
  EXPECT_EQ(verdict.states_explored, static_cast<std::uint64_t>(kOps) + 1);
  ASSERT_EQ(verdict.witness.size(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(verdict.witness.back(), static_cast<std::size_t>(kOps - 1));
  EXPECT_LT(wall.count(), 1.0);

  // A wrong read at the very end fails without blowing the stack either.
  h.back().result = -1;
  EXPECT_FALSE(check_linearizable(h, RegisterModel{}).linearizable);
}

}  // namespace
}  // namespace tfr::spec
