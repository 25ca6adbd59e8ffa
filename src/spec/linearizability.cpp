#include "tfr/spec/linearizability.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <typeinfo>

#include "tfr/common/contracts.hpp"

namespace tfr::spec {

namespace {

/// The memo keys chosen sets as 64-bit masks of input indices.
constexpr std::size_t kMemoMaxOps = 64;

std::uint64_t memo_hash(std::uint64_t mask, std::uint64_t fingerprint) {
  std::uint64_t h = mask ^ (fingerprint * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 29;
  return h;
}

}  // namespace

LinearizabilityResult LinearizabilityChecker::check(
    const std::vector<Operation>& history, const SequentialModel& model) {
  TFR_REQUIRE(history.size() < std::numeric_limits<std::uint32_t>::max());
  link(history);
  prepare_model(model);
  if (history.size() <= kMemoMaxOps) clear_memo();
  LinearizabilityResult result;
  result.linearizable = search(history, result);
  return result;
}

void LinearizabilityChecker::link(const std::vector<Operation>& history) {
  const auto n = static_cast<std::uint32_t>(history.size());
  links_.resize(n + 1);
  order_.resize(n);

  // Threads one list in order of instant `at`.  Ties break by input index,
  // so the order is total and the search deterministic whatever order the
  // input arrives in.
  const auto thread = [&](std::int64_t Operation::*at,
                          std::uint32_t Links::*prev_of,
                          std::uint32_t Links::*next_of) {
    const auto earlier = [&](std::uint32_t a, std::uint32_t b) {
      const std::int64_t ta = history[a].*at;
      const std::int64_t tb = history[b].*at;
      return ta != tb ? ta < tb : a < b;
    };
    std::iota(order_.begin(), order_.end(), 0u);
    if (!std::is_sorted(order_.begin(), order_.end(), earlier))
      std::sort(order_.begin(), order_.end(), earlier);
    std::uint32_t prev = n;
    for (const std::uint32_t op : order_) {
      links_[prev].*next_of = op;
      links_[op].*prev_of = prev;
      prev = op;
    }
    links_[prev].*next_of = n;
    links_[n].*prev_of = prev;
  };
  thread(&Operation::invoked_at, &Links::inv_prev, &Links::inv_next);
  thread(&Operation::responded_at, &Links::resp_prev, &Links::resp_next);
}

void LinearizabilityChecker::prepare_model(const SequentialModel& model) {
  const SequentialModel* live = live_.get();
  if (live != nullptr && typeid(*live) == typeid(model)) {
    live_->assign(model);
  } else {
    live_ = model.clone();
    snapshots_.clear();
  }
  snapshots_used_ = 0;
}

bool LinearizabilityChecker::search(const std::vector<Operation>& history,
                                    LinearizabilityResult& result) {
  const auto n = static_cast<std::uint32_t>(history.size());
  const bool memo = history.size() <= kMemoMaxOps;
  std::uint64_t mask = 0;
  frames_.clear();
  result.states_explored = 1;
  if (n == 0) return true;
  frames_.push_back({links_[n].inv_next, n, false});

  while (true) {
    Frame& frame = frames_.back();
    // Real-time constraint: an operation may be linearized next only if no
    // unchosen operation responded before it was invoked.
    const std::int64_t horizon = history[links_[n].resp_next].responded_at;
    bool descended = false;
    for (std::uint32_t c = frame.cursor;
         c != n && history[c].invoked_at <= horizon; c = frame.cursor) {
      const std::uint32_t next = links_[c].inv_next;
      const bool last = next == n || history[next].invoked_at > horizon;
      // The live model must hold this step's state: restore it after a
      // failed candidate, and keep a snapshot while candidates remain.
      if (frame.snapshot) {
        live_->assign(*snapshots_[snapshots_used_ - 1]);
        if (last) {
          --snapshots_used_;
          frame.snapshot = false;
        }
      } else if (!last) {
        push_snapshot();
        frame.snapshot = true;
      }
      frame.cursor = next;

      const Operation& op = history[c];
      if (live_->apply(op.op, op.arg) != op.result) continue;
      const std::uint64_t bit = memo ? std::uint64_t{1} << c : 0;
      if (memo && !memo_insert(mask | bit, live_->fingerprint())) continue;

      frame.chosen = c;
      choose(c);
      mask |= bit;
      ++result.states_explored;
      if (frames_.size() == n) {
        result.witness.reserve(n);
        for (const Frame& f : frames_) result.witness.push_back(f.chosen);
        return true;
      }
      frames_.push_back({links_[n].inv_next, n, false});  // invalidates frame
      descended = true;
      break;
    }
    if (descended) continue;

    // Every candidate failed: undo the choice that led to this step.
    frames_.pop_back();
    if (frames_.empty()) return false;
    const std::uint32_t c = frames_.back().chosen;
    unchoose(c);
    if (memo) mask &= ~(std::uint64_t{1} << c);
  }
}

void LinearizabilityChecker::choose(std::uint32_t op) {
  const Links& l = links_[op];
  links_[l.inv_prev].inv_next = l.inv_next;
  links_[l.inv_next].inv_prev = l.inv_prev;
  links_[l.resp_prev].resp_next = l.resp_next;
  links_[l.resp_next].resp_prev = l.resp_prev;
}

void LinearizabilityChecker::unchoose(std::uint32_t op) {
  const Links& l = links_[op];
  links_[l.resp_prev].resp_next = op;
  links_[l.resp_next].resp_prev = op;
  links_[l.inv_prev].inv_next = op;
  links_[l.inv_next].inv_prev = op;
}

void LinearizabilityChecker::push_snapshot() {
  if (snapshots_used_ == snapshots_.size()) {
    snapshots_.push_back(live_->clone());
  } else {
    snapshots_[snapshots_used_]->assign(*live_);
  }
  ++snapshots_used_;
}

void LinearizabilityChecker::clear_memo() {
  memo_size_ = 0;
  if (++memo_generation_ == 0) {
    for (MemoSlot& slot : memo_) slot.generation = 0;
    memo_generation_ = 1;
  }
}

bool LinearizabilityChecker::memo_insert(std::uint64_t mask,
                                         std::uint64_t fingerprint) {
  if (2 * (memo_size_ + 1) > memo_.size()) {
    // Grow and rehash the live generation; slots of generation 0 are empty.
    std::vector<MemoSlot> old(std::max<std::size_t>(64, 2 * memo_.size()));
    old.swap(memo_);
    memo_size_ = 0;
    for (const MemoSlot& slot : old) {
      if (slot.generation == memo_generation_)
        memo_insert(slot.mask, slot.fingerprint);
    }
  }
  const std::size_t wrap = memo_.size() - 1;
  for (std::size_t i = memo_hash(mask, fingerprint) & wrap;;
       i = (i + 1) & wrap) {
    MemoSlot& slot = memo_[i];
    if (slot.generation != memo_generation_) {
      slot = {mask, fingerprint, memo_generation_};
      ++memo_size_;
      return true;
    }
    if (slot.mask == mask && slot.fingerprint == fingerprint) return false;
  }
}

LinearizabilityResult check_linearizable(const std::vector<Operation>& history,
                                         const SequentialModel& model) {
  LinearizabilityChecker checker;
  return checker.check(history, model);
}

// --------------------------------------------------------------------------
// Models

std::unique_ptr<SequentialModel> TasModel::clone() const {
  return std::make_unique<TasModel>(*this);
}

void TasModel::assign(const SequentialModel& other) {
  *this = static_cast<const TasModel&>(other);
}

std::int64_t TasModel::apply(const std::string& op, std::int64_t) {
  if (op == "tas") {
    if (bit_) return 1;
    bit_ = true;
    return 0;
  }
  if (op == "read") return bit_ ? 1 : 0;
  TFR_REQUIRE(!"unknown TAS operation");
  return -1;
}

std::unique_ptr<SequentialModel> CounterModel::clone() const {
  return std::make_unique<CounterModel>(*this);
}

void CounterModel::assign(const SequentialModel& other) {
  *this = static_cast<const CounterModel&>(other);
}

std::int64_t CounterModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "add") {
    value_ += arg;
    return value_;
  }
  if (op == "get") return value_;
  TFR_REQUIRE(!"unknown counter operation");
  return -1;
}

std::unique_ptr<SequentialModel> QueueModel::clone() const {
  return std::make_unique<QueueModel>(*this);
}

void QueueModel::assign(const SequentialModel& other) {
  *this = static_cast<const QueueModel&>(other);
}

std::int64_t QueueModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "enqueue") {
    items_.push_back(arg);
    return static_cast<std::int64_t>(items_.size());
  }
  if (op == "dequeue") {
    if (items_.empty()) return -1;
    const std::int64_t front = items_.front();
    items_.erase(items_.begin());
    return front;
  }
  TFR_REQUIRE(!"unknown queue operation");
  return -1;
}

std::uint64_t QueueModel::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int64_t v : items_) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    h *= 0x100000001b3ULL;
  }
  return h ^ items_.size();
}

std::unique_ptr<SequentialModel> RegisterModel::clone() const {
  return std::make_unique<RegisterModel>(*this);
}

void RegisterModel::assign(const SequentialModel& other) {
  *this = static_cast<const RegisterModel&>(other);
}

std::int64_t RegisterModel::apply(const std::string& op, std::int64_t arg) {
  if (op == "write") {
    value_ = arg;
    return arg;
  }
  if (op == "read") return value_;
  TFR_REQUIRE(!"unknown register operation");
  return -1;
}

}  // namespace tfr::spec
