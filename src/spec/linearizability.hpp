// Wing–Gong linearizability checker.
//
// Decides whether a completed concurrent history is linearizable with
// respect to a sequential model: is there a total order of the operations,
// consistent with the history's real-time partial order (op A precedes op
// B iff A responded before B was invoked), in which every operation
// returns what the sequential model says it should?
//
// The search is the classic Wing–Gong one: repeatedly pick a *minimal*
// pending operation (one invoked no later than every unchosen operation's
// response), try it against the model, and backtrack on mismatch.
// Exponential in the worst case, but each step costs O(frontier), not
// O(history):
//
// - The unchosen operations sit in two dancing-links lists, one in
//   invocation order and one in response order.  The candidates are the
//   prefix of the invocation list invoked no later than the head of the
//   response list (the earliest unchosen response).  Choosing an operation
//   unlinks it from both lists in O(1); backtracking relinks it.
// - The search is iterative: its depth lives in a frame buffer, not on the
//   call stack, so histories of millions of operations are fine.
// - The model is advanced in place.  A snapshot of it is taken only at a
//   step with more than one candidate, to restore before the next one, so
//   a history with no overlapping operations copies no model state.
// - For histories of at most 64 operations a memo of (chosen set, model
//   fingerprint) pairs prunes re-exploration of a state already reached
//   by another order.
//
// Candidates are tried in invocation order, ties broken by input index.
// For a history recorded in invocation order (every recorder in this
// repository) that is input order, so the witness is the lexicographically
// first valid order of input indices: the memo only prunes states whose
// subtree has already failed.
//
// A LinearizabilityChecker keeps its buffers between calls: a caller that
// checks many histories (one per register, say) allocates them once, and
// a history with no overlapping operations allocates nothing per step.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tfr/spec/history.hpp"

namespace tfr::spec {

/// A sequential specification.  apply() returns the result the operation
/// must produce from the current state, advancing the state.
class SequentialModel {
 public:
  virtual ~SequentialModel() = default;
  virtual std::unique_ptr<SequentialModel> clone() const = 0;
  /// Copies `other`'s state into this model; `other` has this model's
  /// dynamic type.  Reuses this model's storage where it can.
  virtual void assign(const SequentialModel& other) = 0;
  virtual std::int64_t apply(const std::string& op, std::int64_t arg) = 0;
  /// Cheap state fingerprint for memoization (need not be perfect; it only
  /// prunes, correctness never depends on collisions being absent — a
  /// collision merely risks a false "already explored" prune, so models
  /// should fold their full state in).
  virtual std::uint64_t fingerprint() const = 0;
};

struct LinearizabilityResult {
  bool linearizable = false;
  /// A witness order (indices into the input) when linearizable.
  std::vector<std::size_t> witness;
  std::uint64_t states_explored = 0;
};

/// Checks histories one at a time, reusing its buffers across calls.
class LinearizabilityChecker {
 public:
  /// Checks `history` against `model` (which supplies the initial state).
  LinearizabilityResult check(const std::vector<Operation>& history,
                              const SequentialModel& model);

 private:
  /// An operation's neighbours in the invocation-order and response-order
  /// lists of unchosen operations.  Index n (the history size) is both
  /// lists' header.
  struct Links {
    std::uint32_t inv_prev = 0;
    std::uint32_t inv_next = 0;
    std::uint32_t resp_prev = 0;
    std::uint32_t resp_next = 0;
  };
  /// One search step: the operation chosen there, the next candidate to
  /// try when the subtree under it fails, and whether the step holds a
  /// model snapshot (the top of `snapshots_` while the step is current).
  struct Frame {
    std::uint32_t cursor = 0;
    std::uint32_t chosen = 0;
    bool snapshot = false;
  };
  /// Open-addressing memo slot; a slot is empty unless its generation is
  /// the current one, so clearing the memo is O(1).
  struct MemoSlot {
    std::uint64_t mask = 0;
    std::uint64_t fingerprint = 0;
    std::uint32_t generation = 0;
  };

  void link(const std::vector<Operation>& history);
  void prepare_model(const SequentialModel& model);
  bool search(const std::vector<Operation>& history,
              LinearizabilityResult& result);
  void choose(std::uint32_t op);
  void unchoose(std::uint32_t op);
  void push_snapshot();
  void clear_memo();
  bool memo_insert(std::uint64_t mask, std::uint64_t fingerprint);

  std::vector<Links> links_;
  std::vector<std::uint32_t> order_;  ///< sort scratch
  std::vector<Frame> frames_;
  std::unique_ptr<SequentialModel> live_;
  std::vector<std::unique_ptr<SequentialModel>> snapshots_;
  std::size_t snapshots_used_ = 0;
  std::vector<MemoSlot> memo_;
  std::size_t memo_size_ = 0;
  std::uint32_t memo_generation_ = 0;
};

/// Checks `history` against `model` (which supplies the initial state)
/// with a fresh checker.
LinearizabilityResult check_linearizable(const std::vector<Operation>& history,
                                         const SequentialModel& model);

// Ready-made models. ------------------------------------------------------

/// One-shot test-and-set bit: "tas" -> 0 first, 1 afterwards; "read" ->
/// current bit.
class TasModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  void assign(const SequentialModel& other) override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override { return bit_ ? 2 : 1; }

 private:
  bool bit_ = false;
};

/// Counter: "add" -> new value, "get" -> value.
class CounterModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  void assign(const SequentialModel& other) override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override {
    return static_cast<std::uint64_t>(value_) * 0x9e3779b97f4a7c15ULL + 1;
  }

 private:
  std::int64_t value_ = 0;
};

/// FIFO queue: "enqueue" -> size after, "dequeue" -> front or -1 if empty.
class QueueModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  void assign(const SequentialModel& other) override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override;

 private:
  std::vector<std::int64_t> items_;
};

/// Atomic register: "write" -> arg, "read" -> last written (init 0).
class RegisterModel final : public SequentialModel {
 public:
  std::unique_ptr<SequentialModel> clone() const override;
  void assign(const SequentialModel& other) override;
  std::int64_t apply(const std::string& op, std::int64_t arg) override;
  std::uint64_t fingerprint() const override {
    return static_cast<std::uint64_t>(value_) ^ 0xabcdef1234567890ULL;
  }

 private:
  std::int64_t value_ = 0;
};

}  // namespace tfr::spec
