//===-- tools/FrontendFuzz.h - Front-end differential oracle ----*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `eoe-fuzz --fuzz=frontend`: the differential oracle of the lexer, Sema
/// and the static-analysis tables. Each seed's random program and a few
/// byte-level mutants of it go through the real front end and through
/// simple references kept here: a character-at-a-time lexer that copies
/// each token's spelling, a resolver with one std::map per scope, and a
/// static analysis that builds adjacency lists and computes post-dominator
/// sets by bit-set intersection.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_TOOLS_FRONTENDFUZZ_H
#define EOE_TOOLS_FRONTENDFUZZ_H

#include <cstddef>
#include <cstdint>

namespace eoe {
namespace fuzz {

struct FrontendTally {
  size_t Generated = 0;     ///< seeds
  size_t Inputs = 0;        ///< programs and mutants checked
  size_t LexRejected = 0;   ///< inputs with a lexer error
  size_t SemaRejected = 0;  ///< inputs that parse but fail Sema
  size_t Analyzed = 0;      ///< accepted inputs whose analysis was compared
  size_t Shadowing = 0;     ///< bindings that skip an outer declaration
  size_t MultiParent = 0;   ///< statements with two or more CD parents
  size_t Failures = 0;
};

/// Checks seed \p Seed's program and its mutants; false on a violation,
/// which it prints with the input.
bool runFrontendSeed(uint64_t Seed, bool Verbose, FrontendTally &T);

} // namespace fuzz
} // namespace eoe

#endif // EOE_TOOLS_FRONTENDFUZZ_H
