//===-- core/LocateFault.h - Demand-driven fault location --------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-driven procedure of the paper's Algorithm 2 (LocateFault):
///
///   PS = PruneSlicing(G, Ov, o-cross)
///   while the root cause is not found:
///     select a use u from PS (rank order);
///     verify the potential dependences PD(u), grouping the results;
///     strong implicit dependences override plain ones;
///     for each winning predicate p, also verify p -> t for every other
///       use t that potentially depends on p (Figure 5: enables pruning);
///     add the verified edges to the dependence graph;
///     PS = PruneSlicing(G, Ov, o-cross)
///
/// The procedure mutates the dependence graph (adding implicit edges) and
/// reports the counters of the paper's Table 3: user prunings,
/// verifications, iterations, expanded edges, and the final pruned slice
/// (IPS) that contains the root cause.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_LOCATEFAULT_H
#define EOE_CORE_LOCATEFAULT_H

#include "core/VerifyDep.h"
#include "ddg/DepGraph.h"
#include "slicing/Confidence.h"
#include "slicing/PotentialDeps.h"
#include "slicing/Pruning.h"

#include <string>

namespace eoe {
namespace core {

/// Tunables of the demand-driven procedure; the defaults reproduce the
/// paper's configuration and the non-defaults drive the ablation bench.
struct LocateConfig {
  /// Verify p -> t for all other potential dependents of a winning p
  /// (Figure 5). Off = only the selected use's edge is added.
  bool VerifyFanout = true;
  /// Candidate set per use: closest instance per static predicate (on),
  /// or every qualifying instance (off).
  bool OnePerPredicate = true;
  /// Use the safe explicit-path check instead of the paper's edge check
  /// in VerifyDep (section 3.2; see ImplicitDepVerifier::Config).
  bool UsePathCheck = false;
  /// Step budget for switched runs. Deliberately NOT Opt.Exec.MaxSteps:
  /// that is the failing-run budget (a DebugSession-level knob);
  /// switched verification runs use this tighter budget, implementing
  /// the paper's verification timer.
  uint64_t MaxSteps = 2'000'000;
  /// Safety cap on expansion rounds.
  size_t MaxIterations = 200;
};

/// The paper's Table 3 row for one debugging session.
struct LocateReport {
  bool RootCauseFound = false;
  size_t UserPrunings = 0;
  /// Verifier work done by this call, also when the verifier's registry
  /// is shared with other sessions.
  size_t Verifications = 0;
  size_t Reexecutions = 0;
  size_t Iterations = 0;
  size_t ExpandedEdges = 0;
  size_t StrongEdges = 0;
  /// The final pruned slice (IPS), most suspicious first.
  std::vector<TraceIdx> FinalPrunedSlice;
  ddg::SliceStats IPSStats;
};

/// Runs Algorithm 2 against one failing execution.
///
/// \param G the failing run's dependence graph; verified implicit edges
///        are added to it (so OS can be derived from it afterwards).
/// \param O the programmer in the loop (experiments: the OS protocol).
LocateReport locateFault(const lang::Program &Prog, ddg::DepGraph &G,
                         const slicing::PotentialDepAnalyzer &PD,
                         ImplicitDepVerifier &Verifier,
                         const interp::ValueProfile *Values,
                         const slicing::OutputVerdicts &V,
                         slicing::Oracle &O, const LocateConfig &Config);

/// Derives the paper's OS -- the failure-inducing dependence chain from
/// the root cause to the failure -- on \p G's current edges (run
/// locateFault first so verified implicit edges are present): instances
/// reachable forward from any instance of \p RootCause and backward from
/// the wrong output, and always the wrong output itself.
std::vector<bool> failureInducingChain(const ddg::DepGraph &G,
                                       StmtId RootCause,
                                       const slicing::OutputVerdicts &V);

} // namespace core
} // namespace eoe

#endif // EOE_CORE_LOCATEFAULT_H
