//===-- interp/Profiler.h - Test-suite profiling -----------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profiling over a suite of passing inputs, reproducing the paper's
/// offline preparation: "the prototype first executes the binary with a
/// large set of test cases to construct the static [union] dependence
/// graph and collect value profile for the confidence analysis".
///
/// The union dependence graph records every (defining statement ->
/// loading expression) data dependence exercised by any profiled run; the
/// value profile records the distinct values each statement defined.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_PROFILER_H
#define EOE_INTERP_PROFILER_H

#include "interp/Interpreter.h"
#include "interp/Trace.h"

#include <cstdint>
#include <set>
#include <vector>

namespace eoe {
namespace interp {

/// The union of dynamic data dependences over all profiled runs.
class UnionDependenceGraph {
public:
  /// Records that some run carried a value from \p Def to load \p Use.
  void addDataDep(StmtId Def, ExprId Use) { Deps.insert({Def, Use}); }

  /// True if any profiled run exercised the dependence.
  bool contains(StmtId Def, ExprId Use) const {
    return Deps.count({Def, Use}) != 0;
  }

  /// True if any profiled run carried a value from \p Def to any load.
  bool definesSomething(StmtId Def) const;

  size_t size() const { return Deps.size(); }

private:
  std::set<std::pair<StmtId, ExprId>> Deps;
};

/// Distinct values defined per statement, with a cap so profiles stay
/// small. Feeds the confidence analysis' range estimates (PLDI'06).
class ValueProfile {
public:
  explicit ValueProfile(size_t StmtCount, size_t Cap = 4096)
      : Values(StmtCount), Cap(Cap) {}

  void addValue(StmtId Stmt, int64_t Value) {
    auto &Set = Values[Stmt];
    if (Set.size() < Cap)
      Set.insert(Value);
  }

  /// Number of distinct values \p Stmt was observed to define; at least 1
  /// so logarithmic confidence formulas stay defined.
  size_t rangeSize(StmtId Stmt) const {
    return Values[Stmt].empty() ? 1 : Values[Stmt].size();
  }

  const std::set<int64_t> &values(StmtId Stmt) const { return Values[Stmt]; }

private:
  std::vector<std::set<int64_t>> Values;
  size_t Cap;
};

/// Combined profiling results.
struct Profile {
  UnionDependenceGraph UnionDeps;
  ValueProfile Values;
  /// Number of runs profiled.
  size_t Runs = 0;

  explicit Profile(size_t StmtCount) : Values(StmtCount) {}
};

/// Runs \p Interp over every input vector in \p Suite and accumulates the
/// union dependence graph and value profile.
Profile profileTestSuite(const Interpreter &Interp,
                         const lang::Program &Prog,
                         const std::vector<std::vector<int64_t>> &Suite,
                         uint64_t MaxStepsPerRun = 5'000'000);

/// Accumulates one already-collected trace into \p P.
void accumulateTrace(Profile &P, const ExecutionTrace &Trace);

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_PROFILER_H
