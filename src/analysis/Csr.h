//===-- analysis/Csr.h - Compressed-sparse-row tables ------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-pass fill of a compressed-sparse-row table, used for the CFG's
/// predecessors and the control-dependence tables. Key K's elements sit at
/// List[Start[K] .. Start[K + 1]), with Start one longer than the keys:
///
///   1. count each element of key K into Start[K + 1];
///   2. countsToOffsets(Start), and size List to Start.back();
///   3. place each element, in order, at List[Start[K]++];
///   4. rewindCursors(Start).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ANALYSIS_CSR_H
#define EOE_ANALYSIS_CSR_H

#include <cstdint>
#include <vector>

namespace eoe {
namespace analysis {

/// Turns the counts stored at Start[K + 1] into each key's first offset.
inline void countsToOffsets(std::vector<uint32_t> &Start) {
  for (size_t I = 1; I < Start.size(); ++I)
    Start[I] += Start[I - 1];
}

/// After step 3 each Start[K] sits where key K + 1's elements begin:
/// shifts them back by one key.
inline void rewindCursors(std::vector<uint32_t> &Start) {
  for (size_t I = Start.size() - 1; I > 0; --I)
    Start[I] = Start[I - 1];
  Start[0] = 0;
}

} // namespace analysis
} // namespace eoe

#endif // EOE_ANALYSIS_CSR_H
