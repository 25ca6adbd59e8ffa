#include "tfr/derived/derived_rt.hpp"

namespace tfr::rt {

// The production codegen: every target linking tfr_derived shares these
// StdAtomics instantiations (the header's extern template declarations).
template class BasicRtMultiConsensus<StdAtomics>;
template class BasicRtElection<StdAtomics>;
template class BasicRtTestAndSet<StdAtomics>;
template class BasicRtRenaming<StdAtomics>;
template class BasicRtSetConsensus<StdAtomics>;
template class BasicRtLongLivedTestAndSet<StdAtomics>;
template class BasicRtUniversal<StdAtomics>;

}  // namespace tfr::rt
