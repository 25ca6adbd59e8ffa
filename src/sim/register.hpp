// Simulated atomic read/write registers.
//
// A Register<T> is a passive cell: the *time* an access takes is charged by
// the simulator when a process co_awaits env.read()/env.write(); the value
// transfer itself happens at the instant the access linearizes (event
// resume), which is trivially atomic because the simulator is
// single-threaded.  peek()/poke() bypass simulated time and are reserved
// for monitors, tests and initialization.
//
// Registers are allocated inside a RegisterSpace, which counts them — this
// is how E9 audits the space lower bound of Theorem 3.1.  RegisterArray<T>
// realizes the paper's infinite arrays (x[1..∞], y[1..∞]) by growing on
// demand; allocation is a local action and costs no simulated time.
//
// Array cells are kept compact because a message channel builds one per
// message: a cell owns no name string (it derives "<array>[i]" on
// demand), its RMR "holds a copy" bits for pids below 64 live in an
// inline mask, and cells are built in place in fixed 64-cell chunks.  A
// channel's receiver never reads a consumed slot again, so it releases
// the chunks below its read cursor (RegisterArray::release_below): their
// cells are destroyed and the storage is reused for the next chunk, so a
// channel holds the messages in flight, not every message ever sent.
// Uids and names do not change: cells are still built on first touch, in
// index order.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tfr/common/contracts.hpp"
#include "tfr/sim/types.hpp"

namespace tfr::sim {

/// Accounting domain for registers: how many shared registers an algorithm
/// instance actually allocated, and how many accesses they served.
class RegisterSpace {
 public:
  RegisterSpace() = default;
  RegisterSpace(const RegisterSpace&) = delete;
  RegisterSpace& operator=(const RegisterSpace&) = delete;

  std::uint64_t allocated() const { return allocated_; }
  std::uint64_t total_reads() const { return reads_; }
  std::uint64_t total_writes() const { return writes_; }

  /// Forgets every allocation and access count, restarting uid assignment
  /// from 1.  Called by Simulation::reset() when a simulation object is
  /// reused for a fresh execution (the mcheck fast path); all registers of
  /// the previous run must already be destroyed, so the re-issued uids
  /// stay unique within each run — which is all the conflict relation
  /// needs.
  void reset() {
    allocated_ = 0;
    reads_ = 0;
    writes_ = 0;
    hashers_.clear();
    hashable_ = true;
  }

  /// Opt-in for state-signature support (mcheck's frontier state hashing):
  /// when enabled, every Register constructed in this space registers a
  /// value-hash thunk.  Off by default so the zero-per-iteration
  /// allocation budget of plain simulations is untouched.
  void set_value_capture(bool on) { capture_ = on; }
  bool value_capture() const { return capture_; }

  /// False when some live register's value type has no unique object
  /// representation (its bytes cannot be hashed portably); callers must
  /// then skip state hashing for the whole space.
  bool values_hashable() const { return hashable_; }

  /// FNV-1a over every register's (uid, value bytes), in allocation order;
  /// a released array cell (dead state) hashes as a fixed 0.  Only
  /// meaningful while the registers of the current run are alive and
  /// values_hashable() holds; requires set_value_capture(true) before the
  /// registers were constructed.
  std::uint64_t values_fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(hashers_.size());
    for (std::size_t i = 0; i < hashers_.size(); ++i) {
      mix(i + 1);
      mix(hashers_[i].second(hashers_[i].first));
    }
    return h;
  }

 private:
  template <class T>
  friend class Register;
  template <class T>
  friend class RegisterArray;

  using ValueHasher = std::uint64_t (*)(const void*);

  /// Registers a new register's value-hash thunk (capture mode only), one
  /// entry per uid: hashers_[uid - 1].  Entries of standalone registers
  /// dangle once they are destroyed — the next reset() clears them;
  /// values_fingerprint() is only called mid-run.
  void note_hasher(const void* object, ValueHasher hasher) {
    hashers_.emplace_back(object, hasher);
  }
  /// An unhashable register keeps its uid's entry, so the indexing holds.
  void mark_unhashable() {
    hashable_ = false;
    hashers_.emplace_back(nullptr, &retired_value);
  }
  /// Retires the entry of a released array cell, whose storage is about to
  /// be reused, so values_fingerprint() never reads it again.
  void retire_hasher(std::uint64_t uid) {
    if (!capture_) return;
    TFR_REQUIRE(uid >= 1 && uid <= hashers_.size());
    hashers_[uid - 1] = {nullptr, &retired_value};
  }
  static std::uint64_t retired_value(const void*) { return 0; }

  /// Returns the new register's uid: 1-based allocation order, stable
  /// across identical runs — the conflict key mcheck's independence
  /// relation uses (pointers would not survive re-execution).
  std::uint64_t note_allocated() { return ++allocated_; }
  void note_read() { ++reads_; }
  void note_write() { ++writes_; }

  std::uint64_t allocated_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  bool capture_ = false;
  bool hashable_ = true;
  std::vector<std::pair<const void*, ValueHasher>> hashers_;
};

template <class T>
class RegisterArray;

/// One atomic shared register holding a T.  T must be cheaply copyable
/// (ints, small structs) — exactly what the paper's registers hold.
template <class T>
class Register {
 public:
  Register(RegisterSpace& space, T initial, std::string name = {})
      : space_(&space), value_(std::move(initial)), name_(std::move(name)) {
    on_allocated();
  }

  ~Register() {
    if (array_name_ == nullptr) name_.~basic_string();
  }

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;
  Register(Register&&) = delete;
  Register& operator=(Register&&) = delete;

  /// Untimed read (monitors / tests / local inspection only).
  const T& peek() const { return value_; }

  /// Untimed write (initialization / tests / fault injection only).
  void poke(T v) { value_ = std::move(v); }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  /// The register's name; an array cell's is "<array>[index]".
  std::string name() const {
    if (array_name_ == nullptr) return name_;
    return *array_name_ + "[" + std::to_string(index_) + "]";
  }
  /// Stable identity: allocation order within the RegisterSpace (1-based).
  /// Identical runs allocate in identical order, so uids — unlike
  /// addresses — survive re-execution (mcheck's conflict key).
  std::uint64_t uid() const { return uid_; }

  // Remote-memory-reference accounting (cache-coherent model): a read is
  // remote iff the reader holds no valid cached copy (it then acquires
  // one); a write is always remote and invalidates every other copy.
  // Used by the local-spinning analysis (E15); costs no simulated time.
  bool note_read_rmr(Pid pid) const {
    const auto index = static_cast<std::size_t>(pid);
    std::uint64_t& word = cached_word(index / 64);
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  void note_write_rmr(Pid pid) {
    cached_ = 0;
    if (cached_beyond_ != nullptr)
      std::fill(cached_beyond_->begin(), cached_beyond_->end(), 0);
    const auto index = static_cast<std::size_t>(pid);
    // The writer retains a valid copy.
    cached_word(index / 64) |= std::uint64_t{1} << (index % 64);
  }

  // Internal: the timed accesses, invoked by the simulator's awaiters at
  // the instant the access linearizes.  Algorithm code must go through
  // Env::read/Env::write instead.
  T load_linearized() const {
    ++reads_;
    space_->note_read();
    return value_;
  }

  void store_linearized(T v) {
    ++writes_;
    space_->note_write();
    value_ = std::move(v);
  }

 private:
  friend class RegisterArray<T>;

  /// An array cell, named "<*array_name>[index]" on demand.
  Register(RegisterSpace& space, const T& initial,
           const std::string* array_name, std::size_t index)
      : space_(&space),
        value_(initial),
        array_name_(array_name),
        index_(index) {
    on_allocated();
  }

  void on_allocated() {
    uid_ = space_->note_allocated();
    if (space_->value_capture()) {
      if constexpr (std::has_unique_object_representations_v<T>) {
        space_->note_hasher(this, &hash_value);
      } else {
        space_->mark_unhashable();
      }
    }
  }

  /// Word `word` of the per-pid cached-copy bits, grown on demand: pids
  /// below 64 use the inline word, higher pids spill to the heap.
  std::uint64_t& cached_word(std::size_t word) const {
    if (word == 0) return cached_;
    if (cached_beyond_ == nullptr)
      cached_beyond_ = std::make_unique<std::vector<std::uint64_t>>();
    if (word > cached_beyond_->size()) cached_beyond_->resize(word, 0);
    return (*cached_beyond_)[word - 1];
  }

  /// Value-hash thunk for RegisterSpace::values_fingerprint(): FNV-1a over
  /// the object representation (only instantiated for types with unique
  /// object representations, so padding cannot leak in).
  static std::uint64_t hash_value(const void* object) {
    const T& value = static_cast<const Register*>(object)->value_;
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  }

  RegisterSpace* space_;
  T value_;
  std::uint64_t uid_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  /// Null for a standalone register, which owns `name_`; an array cell
  /// points at its array's name and keeps its `index_` instead.
  const std::string* array_name_ = nullptr;
  union {
    std::string name_;
    std::size_t index_;
  };
  /// Per-pid "holds a valid cached copy" bits (RMR accounting): bit p of
  /// `cached_` for pid p < 64, then 64 pids per word of `*cached_beyond_`.
  mutable std::uint64_t cached_ = 0;
  mutable std::unique_ptr<std::vector<std::uint64_t>> cached_beyond_;
};

/// Unbounded register array (the paper's x[1..∞]): grows on first touch of
/// an index.  Indices are 0-based.  Cells are built in place in fixed-size
/// chunks, so grown registers never move (registers are pinned: awaiters
/// hold pointers to them) and the array itself is immovable (cells point at
/// its name).  An owner that will never touch a prefix again releases it
/// with release_below(); the array then keeps only the chunks from the
/// released bound to size().
template <class T>
class RegisterArray {
 public:
  static constexpr std::size_t kChunkCells = 64;

  RegisterArray(RegisterSpace& space, T initial, std::string name = {})
      : space_(&space), initial_(std::move(initial)), name_(std::move(name)) {}

  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  ~RegisterArray() {
    for (std::size_t i = released_; i < size_; ++i) cell(i).~Register();
  }

  /// Returns the register at `index`, allocating up to it on demand.
  /// `index` must not be below released().
  Register<T>& at(std::size_t index) {
    TFR_REQUIRE(index >= released_);
    while (size_ <= index) {
      if (size_ % kChunkCells == 0) chunks_.push_back(next_chunk());
      ::new (storage(size_)) Register<T>(*space_, initial_, &name_, size_);
      ++size_;
    }
    return cell(index);
  }

  /// Read-only access to an index that must already exist.
  const Register<T>& at(std::size_t index) const {
    TFR_REQUIRE(index >= released_ && index < size_);
    return cell(index);
  }

  /// Cells ever built: one past the highest index touched.
  std::size_t size() const { return size_; }

  /// Cells below this index are released; a multiple of kChunkCells.
  std::size_t released() const { return released_; }

  /// Chunks holding built, unreleased cells.
  std::size_t live_chunks() const { return chunks_.size(); }

  /// Destroys the cells of every whole chunk below `index` (<= size()) and
  /// keeps one such chunk's storage for the array's next chunk.  Cells are
  /// never rebuilt: at() below released() fails its precondition.
  void release_below(std::size_t index) {
    TFR_REQUIRE(index <= size_);
    const std::size_t bound = index - index % kChunkCells;
    if (bound <= released_) return;
    for (std::size_t i = released_; i < bound; ++i) {
      Register<T>& c = cell(i);
      space_->retire_hasher(c.uid());
      c.~Register();
    }
    const auto dead = static_cast<std::ptrdiff_t>((bound - released_) /
                                                  kChunkCells);
    if (spare_ == nullptr) spare_ = std::move(chunks_.front());
    // Shifts only the live chunks' pointers: the in-flight window.
    chunks_.erase(chunks_.begin(), chunks_.begin() + dead);
    released_ = bound;
  }

 private:
  /// Raw storage for kChunkCells registers, left uninitialised: cells are
  /// constructed one at a time as the array grows.
  struct Chunk {
    alignas(Register<T>) unsigned char bytes[kChunkCells * sizeof(Register<T>)];
  };

  std::unique_ptr<Chunk> next_chunk() {
    if (spare_ != nullptr) return std::move(spare_);
    return std::make_unique_for_overwrite<Chunk>();
  }

  unsigned char* storage(std::size_t index) const {
    return chunks_[(index - released_) / kChunkCells]->bytes +
           (index % kChunkCells) * sizeof(Register<T>);
  }

  Register<T>& cell(std::size_t index) const {
    return *std::launder(reinterpret_cast<Register<T>*>(storage(index)));
  }

  RegisterSpace* space_;
  T initial_;
  std::string name_;
  /// The live chunks: chunks_[k] holds cells from released_ + k * kChunkCells.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::unique_ptr<Chunk> spare_;  ///< a released chunk's storage, for reuse
  std::size_t size_ = 0;
  std::size_t released_ = 0;  ///< a multiple of kChunkCells
};

}  // namespace tfr::sim
