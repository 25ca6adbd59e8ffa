// The named mcheck checks: one table read by the tfr_mcheck CLI, by E18
// (exploration throughput and reduction) and by E22's mcheck cell.
//
// Each entry pairs a scenario with the exploration bounds it is checked
// under and the verdict it must reach.  Entries come back by value so a
// caller can set the seed, the worker count or the reduction mode without
// touching the table.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tfr/mcheck/explorer.hpp"

namespace tfr::mcheck {

/// Which world a check explores: the simulator transcriptions, or the
/// real-thread code driven through the src/rt/shim/ interposition seam.
enum class CheckGroup : std::uint8_t { kSim, kRt };

struct NamedCheck {
  std::string name;
  std::string description;
  CheckGroup group = CheckGroup::kSim;
  CheckScenario scenario;
  ExploreConfig config;
  bool expect_violation = false;
};

/// Every named check, sim group first, in report order.
std::vector<NamedCheck> catalog();

/// The catalog entry called `name`; throws ContractViolation when there is
/// none.
NamedCheck catalog_entry(std::string_view name);

}  // namespace tfr::mcheck
