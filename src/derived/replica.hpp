// Sequential objects for the universal construction (§1.4, via Herlihy's
// universality of consensus [24]; derived/derived_rt.hpp has the
// construction).  The construction's log decides encoded operations, and
// every process applies the decided log in order to a private Replica.
//
// Operations are 62-bit integers; OpCodec packs (pid, per-process sequence
// number, opcode, argument) so every invocation is unique — required,
// since the log decides operations, not (operation, result) pairs.  A
// process's operations enter the log in sequence order, so "not yet
// applied" is a per-pid high-water mark.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tfr::derived {

/// A sequential object: deterministically applies encoded operations.
class Replica {
 public:
  virtual ~Replica() = default;
  virtual std::int64_t apply(std::int64_t op) = 0;
};

/// Operation encoding of the universal construction:
///   bits 48..61 pid (14 bits), 32..47 per-process sequence + 1 (16 bits),
///   bits 24..31 opcode (8 bits), bits 0..23 argument (24 bits).
struct OpCodec {
  static constexpr int kBits = 62;

  static std::int64_t encode(int pid, int seq, int opcode, int arg);
  static int pid(std::int64_t op) {
    return static_cast<int>((op >> 48) & 0x3fff);
  }
  /// 1-based so that 0 means "nothing applied yet".
  static int seq(std::int64_t op) {
    return static_cast<int>((op >> 32) & 0xffff);
  }
  static int opcode(std::int64_t op) {
    return static_cast<int>((op >> 24) & 0xff);
  }
  static int arg(std::int64_t op) {
    return static_cast<int>(op & 0xffffff);
  }
};

// Two ready-made replicas used by tests, benches and examples.

/// Counter: opcode 1 = add(arg) -> new value; 2 = get() -> value.
class CounterReplica final : public Replica {
 public:
  std::int64_t apply(std::int64_t op) override;
  static constexpr int kAdd = 1;
  static constexpr int kGet = 2;

 private:
  std::int64_t value_ = 0;
};

/// FIFO queue of ints: opcode 1 = enqueue(arg) -> size; 2 = dequeue() ->
/// front or -1 when empty.
class QueueReplica final : public Replica {
 public:
  std::int64_t apply(std::int64_t op) override;
  static constexpr int kEnqueue = 1;
  static constexpr int kDequeue = 2;

 private:
  std::vector<int> items_;
  std::size_t head_ = 0;
};

}  // namespace tfr::derived
