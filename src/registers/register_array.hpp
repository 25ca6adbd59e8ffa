// Lazily grown real-thread structures: PinnedSlots and RegisterArray.
//
// Algorithm 1 uses infinite arrays x[1..∞], y[1..∞]; rounds advance only
// under timing failures, so most executions touch a handful of cells but
// nothing bounds the index a priori.  The derived objects grow the same
// way: one election per long-lived test-and-set generation, one consensus
// instance per universal-construction log slot (derived/derived_rt.hpp).
//
// All of them sit on PinnedSlots: a heap-allocated spine of N atomic
// pointers, each slot built on first touch and published with a CAS; the
// loser of a publication race deletes its copy and takes the winner's.
// Readers never block, and a published object is pinned (never moves), so
// references handed out stay valid for the table's lifetime.  The spine is
// a raw atomic on purpose: lazy allocation is bookkeeping of the
// implementation, not a register of the algorithm.
//
// RegisterArray is a PinnedSlots of register segments.  Its cells come
// from the Atomics policy (rt/atomics_policy.hpp), like every rt register:
// StdAtomics in production, ShimAtomics under mcheck.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "tfr/common/contracts.hpp"
#include "tfr/registers/atomic_register.hpp"

namespace tfr::rt {

template <class T, std::size_t N>
class PinnedSlots {
 public:
  // Value-initialized, so every slot starts null.
  // raw-atomic-ok: lazy-allocation spine
  PinnedSlots() : spine_(std::make_unique<std::atomic<T*>[]>(N)) {}

  PinnedSlots(const PinnedSlots&) = delete;
  PinnedSlots& operator=(const PinnedSlots&) = delete;

  ~PinnedSlots() {
    for (std::size_t i = 0; i < N; ++i) delete spine_[i].load();
  }

  /// The object in slot `index`, built by `make()` (which returns a
  /// std::unique_ptr<T>) on first touch.  Thread-safe.
  template <class Make>
  T& get(std::size_t index, Make&& make) {
    TFR_REQUIRE(index < N);
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
    TFR_REQUIRE(index < N);
    return spine_[index].load();
  }

  /// Number of slots built so far.
  std::size_t published() const { return published_.load(); }

 private:
  // raw-atomic-ok: lazy-allocation spine
  std::unique_ptr<std::atomic<T*>[]> spine_;
  std::atomic<std::size_t> published_{0};  // raw-atomic-ok: accounting
};

/// SegmentSize/MaxSegments trade footprint against capacity: the spine
/// costs MaxSegments pointers up front, segments SegmentSize registers
/// each on demand.  Composed objects (multi-valued consensus, the
/// universal construction) use small arrays; standalone instances can
/// afford the default 4M-register capacity.
template <class T, std::size_t SegmentSize = 1024,
          std::size_t MaxSegments = 4096, class Atomics = StdAtomics>
class RegisterArray {
 public:
  using Register = BasicAtomicRegister<T, Atomics>;

  explicit RegisterArray(T initial) : initial_(initial) {}

  /// Register at `index`, allocating its segment on demand.  Thread-safe.
  Register& at(std::size_t index) {
    Segment& segment = segments_.get(index / SegmentSize, [this] {
      return std::make_unique<Segment>(initial_);
    });
    return segment.cells[index % SegmentSize];
  }

  /// Read without allocating: `fallback` when the segment is absent (i.e.
  /// nobody has touched a cell near `index` yet, so it still holds the
  /// initial value by construction).
  T peek(std::size_t index, T fallback) const {
    const Segment* segment = segments_.find(index / SegmentSize);
    return segment ? segment->cells[index % SegmentSize].read() : fallback;
  }

  /// Number of segments currently allocated (coarse space accounting).
  std::size_t segments_allocated() const { return segments_.published(); }

 private:
  /// Cells are constructed holding the initial value: under the shim a
  /// write after construction, on the algorithm thread that first touches
  /// the segment, would be an explored access.
  struct Segment {
    explicit Segment(T initial) {
      for (Register& cell : cells) std::construct_at(&cell, initial);
    }
    ~Segment() {
      for (Register& cell : cells) std::destroy_at(&cell);
    }

    union {
      Register cells[SegmentSize];
    };
  };

  T initial_;
  PinnedSlots<Segment, MaxSegments> segments_;
};

}  // namespace tfr::rt
