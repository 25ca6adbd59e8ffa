#include "tfr/derived/replica.hpp"

#include "tfr/common/contracts.hpp"

namespace tfr::derived {

std::int64_t OpCodec::encode(int pid, int seq, int opcode, int arg) {
  TFR_REQUIRE(pid >= 0 && pid < (1 << 14));
  TFR_REQUIRE(seq >= 1 && seq < (1 << 16));
  TFR_REQUIRE(opcode >= 0 && opcode < (1 << 8));
  TFR_REQUIRE(arg >= 0 && arg < (1 << 24));
  return (static_cast<std::int64_t>(pid) << 48) |
         (static_cast<std::int64_t>(seq) << 32) |
         (static_cast<std::int64_t>(opcode) << 24) |
         static_cast<std::int64_t>(arg);
}

std::int64_t CounterReplica::apply(std::int64_t op) {
  switch (OpCodec::opcode(op)) {
    case kAdd:
      value_ += OpCodec::arg(op);
      return value_;
    case kGet:
      return value_;
    default:
      TFR_REQUIRE(!"unknown counter opcode");
      return -1;
  }
}

std::int64_t QueueReplica::apply(std::int64_t op) {
  switch (OpCodec::opcode(op)) {
    case kEnqueue:
      items_.push_back(OpCodec::arg(op));
      return static_cast<std::int64_t>(items_.size() - head_);
    case kDequeue:
      if (head_ == items_.size()) return -1;
      return items_[head_++];
    default:
      TFR_REQUIRE(!"unknown queue opcode");
      return -1;
  }
}

}  // namespace tfr::derived
