// PinnedSlots: a lock-free table of lazily built, never-moving objects.
//
// A heap-allocated spine of atomic pointers, sized at construction; each
// slot is built on first touch and published with a CAS, and the loser of
// a publication race deletes its copy and takes the winner's.  Readers
// never block, and a published object is pinned (never moves), so
// references handed out stay valid for the table's lifetime.
//
// Users: the rt register arrays and derived objects, whose index space is
// unbounded a priori (registers/register_array.hpp, derived/derived_rt.hpp),
// and the trace sink's event chunks (obs/trace.hpp).  The spine is a raw
// atomic on purpose: lazy allocation is bookkeeping of the implementation,
// not a register of any algorithm.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "tfr/common/contracts.hpp"

namespace tfr {

template <class T>
class PinnedSlots {
 public:
  // Value-initialized, so every slot starts null.
  explicit PinnedSlots(std::size_t slots)
      : size_(slots),
        // raw-atomic-ok: lazy-allocation spine
        spine_(std::make_unique<std::atomic<T*>[]>(slots)) {}

  PinnedSlots(const PinnedSlots&) = delete;
  PinnedSlots& operator=(const PinnedSlots&) = delete;

  ~PinnedSlots() {
    for (std::size_t i = 0; i < size_; ++i) delete spine_[i].load();
  }

  /// The object in slot `index`, built by `make()` (which returns a
  /// std::unique_ptr<T>) on first touch.  Thread-safe.
  template <class Make>
  T& get(std::size_t index, Make&& make) {
    TFR_REQUIRE(index < size_);
    if (T* published = spine_[index].load()) return *published;
    std::unique_ptr<T> fresh = make();
    T* expected = nullptr;
    if (spine_[index].compare_exchange_strong(expected, fresh.get())) {
      published_.fetch_add(1);
      return *fresh.release();
    }
    return *expected;  // lost the race; `fresh` self-destroys
  }

  /// The object in slot `index`, or nullptr if nobody built it yet.
  const T* find(std::size_t index) const {
    TFR_REQUIRE(index < size_);
    return spine_[index].load();
  }

  /// Number of slots built so far.
  std::size_t published() const { return published_.load(); }

 private:
  std::size_t size_;
  // raw-atomic-ok: lazy-allocation spine
  std::unique_ptr<std::atomic<T*>[]> spine_;
  std::atomic<std::size_t> published_{0};  // raw-atomic-ok: accounting
};

}  // namespace tfr
