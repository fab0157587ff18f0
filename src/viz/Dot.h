//===-- viz/Dot.h - GraphViz exports -----------------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GraphViz (.dot) renderings of the project's graph structures, for
/// inspecting what the algorithms operate on: control-flow graphs,
/// dynamic region trees (Definition 3), and dynamic dependence graphs
/// with their verified implicit edges. Exposed through `eoec dot-*`.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_VIZ_DOT_H
#define EOE_VIZ_DOT_H

#include "align/RegionTree.h"
#include "analysis/CFG.h"
#include "ddg/DepGraph.h"
#include "lang/AST.h"

#include <string>

namespace eoe {
namespace viz {

/// Renders function \p F's CFG. Branch edges are labeled T/F.
std::string cfgToDot(const lang::Program &Prog, const analysis::CFG &G,
                     const lang::Function &F);

/// Renders the region forest \p Tree of the whole trace \p T (one node
/// per statement instance). Traces longer than \p MaxNodes are truncated
/// with a note.
std::string regionTreeToDot(const lang::Program &Prog,
                            const interp::ExecutionTrace &T,
                            const align::RegionTree &Tree,
                            size_t MaxNodes = 400);

/// Renders \p G's dynamic dependences: solid edges for data, dashed for
/// control, bold red for verified implicit dependences. When \p Filter
/// is non-null only instances with Filter[i] set are included (pass a
/// slice's membership bitset to render just the slice).
std::string depGraphToDot(const lang::Program &Prog, const ddg::DepGraph &G,
                          const std::vector<bool> *Filter = nullptr,
                          size_t MaxNodes = 400);

} // namespace viz
} // namespace eoe

#endif // EOE_VIZ_DOT_H
