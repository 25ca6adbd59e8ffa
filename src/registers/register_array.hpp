// RegisterArray: a lazily grown array of rt registers.
//
// Algorithm 1 uses infinite arrays x[1..∞], y[1..∞]; rounds advance only
// under timing failures, so most executions touch a handful of cells but
// nothing bounds the index a priori.  RegisterArray is a PinnedSlots
// (common/pinned_slots.hpp) of register segments, each built on first
// touch and never moved.  Its cells come from the Atomics policy
// (rt/atomics_policy.hpp), like every rt register: StdAtomics in
// production, ShimAtomics under mcheck.

#pragma once

#include <cstddef>
#include <memory>

#include "tfr/common/pinned_slots.hpp"
#include "tfr/registers/atomic_register.hpp"

namespace tfr::rt {

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
  PinnedSlots<Segment> segments_{MaxSegments};
};

}  // namespace tfr::rt
