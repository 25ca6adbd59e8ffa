#include "tfr/derived/multivalue_sim.hpp"

#include "tfr/common/contracts.hpp"

namespace tfr::derived {

SimMultiConsensus::SimMultiConsensus(sim::RegisterSpace& space,
                                     sim::Duration delta, int bits)
    : bits_(bits),
      witness0_(space, -1, "mv.witness0"),
      witness1_(space, -1, "mv.witness1") {
  TFR_REQUIRE(bits >= 1 && bits <= 62);
  bit_.reserve(static_cast<std::size_t>(bits));
  for (int k = 0; k < bits; ++k)
    bit_.push_back(std::make_unique<core::SimConsensus>(space, delta));
}

std::int64_t SimMultiConsensus::decided_value() const {
  std::int64_t value = 0;
  for (int k = 0; k < bits_; ++k) {
    const int d = bit_[static_cast<std::size_t>(k)]->decided_value();
    if (d == sim::kBot) return -1;
    value |= static_cast<std::int64_t>(d) << k;
  }
  return value;
}

}  // namespace tfr::derived
