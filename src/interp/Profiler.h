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
/// value profile records the distinct values each statement defined. Both
/// are flat tables indexed by the load's expression or the defining
/// statement.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_PROFILER_H
#define EOE_INTERP_PROFILER_H

#include "interp/Interpreter.h"
#include "interp/Trace.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace eoe {
namespace interp {

/// The union of dynamic data dependences over all profiled runs: per
/// load, the short list of statements whose values reached it.
class UnionDependenceGraph {
public:
  /// An empty graph over the loads of a program with \p ExprCount
  /// expressions.
  explicit UnionDependenceGraph(size_t ExprCount = 0) : DefsOf(ExprCount) {}

  /// Records that some run carried a value from \p Def to load \p Use.
  void addDataDep(StmtId Def, ExprId Use) {
    std::vector<StmtId> &Defs = DefsOf[Use];
    if (std::find(Defs.begin(), Defs.end(), Def) == Defs.end()) {
      Defs.push_back(Def);
      ++Count;
    }
  }

  /// True if any profiled run exercised the dependence.
  bool contains(StmtId Def, ExprId Use) const {
    if (Use >= DefsOf.size())
      return false;
    const std::vector<StmtId> &Defs = DefsOf[Use];
    return std::find(Defs.begin(), Defs.end(), Def) != Defs.end();
  }

  size_t size() const { return Count; }

private:
  std::vector<std::vector<StmtId>> DefsOf; // indexed by the load's ExprId
  size_t Count = 0;
};

/// Distinct values defined per statement, with a cap so profiles stay
/// small: a statement keeps the first Cap distinct values it defines.
/// Feeds the confidence analysis' range estimates (PLDI'06).
class ValueProfile {
public:
  explicit ValueProfile(size_t StmtCount, size_t Cap = 4096)
      : Values(StmtCount), Cap(Cap) {}

  void addValue(StmtId Stmt, int64_t Value) {
    std::vector<int64_t> &Kept = Values[Stmt];
    if (Kept.size() >= Cap)
      return;
    if (Kept.empty() || Value > Kept.back()) {
      Kept.push_back(Value);
      return;
    }
    auto It = std::lower_bound(Kept.begin(), Kept.end(), Value);
    if (*It != Value)
      Kept.insert(It, Value);
  }

  /// Number of distinct values \p Stmt was observed to define; at least 1
  /// so logarithmic confidence formulas stay defined.
  size_t rangeSize(StmtId Stmt) const {
    return Values[Stmt].empty() ? 1 : Values[Stmt].size();
  }

  /// The distinct values kept for \p Stmt, ascending.
  std::span<const int64_t> values(StmtId Stmt) const { return Values[Stmt]; }

private:
  std::vector<std::vector<int64_t>> Values; // per statement, sorted
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
/// value profile, and the union dependence graph when \p UnionDeps is set
/// (only the UnionGraph potential-dependence backend reads it). The runs
/// execute on \p Ctx's recycled buffers when it is given.
Profile profileTestSuite(const Interpreter &Interp,
                         const lang::Program &Prog,
                         const std::vector<std::vector<int64_t>> &Suite,
                         uint64_t MaxStepsPerRun = 5'000'000,
                         ExecContext *Ctx = nullptr, bool UnionDeps = true);

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_PROFILER_H
