#include "tfr/core/consensus_rt.hpp"

namespace tfr::rt {

template class BasicRtConsensus<StdAtomics>;

}  // namespace tfr::rt
