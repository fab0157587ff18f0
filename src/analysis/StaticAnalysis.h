//===-- analysis/StaticAnalysis.h - Whole-program static facts ---*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program static facts derived once per Program: per-function CFGs
/// and control dependence merged into StmtId-indexed tables, a definition
/// index per variable class, intraprocedural reachability, and transitive
/// control-dependence region membership.
///
/// Aliasing model: Siml has no pointers; the only statically ambiguous
/// accesses are array elements, so the "location class" of any access is
/// simply its variable (whole arrays alias). This mirrors the conservative
/// points-to treatment that makes the paper's potential dependences
/// over-approximate (its Figure 1: any store to outbuf may reach any load
/// of outbuf).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ANALYSIS_STATICANALYSIS_H
#define EOE_ANALYSIS_STATICANALYSIS_H

#include "analysis/CFG.h"
#include "analysis/ControlDependence.h"
#include "lang/AST.h"

#include <map>
#include <span>
#include <vector>

namespace eoe {
namespace analysis {

/// Immutable static-analysis results for one Program.
class StaticAnalysis {
public:
  explicit StaticAnalysis(const lang::Program &Prog);

  const lang::Program &program() const { return Prog; }

  /// The CFG of function \p F.
  const CFG &cfg(FuncId F) const { return CFGs.at(F); }

  /// The function containing \p Stmt; InvalidId for global declarations.
  FuncId functionOf(StmtId Stmt) const { return StmtFunc.at(Stmt); }

  /// Direct static control-dependence parents of \p Stmt.
  std::span<const ControlDependence::Parent> cdParents(StmtId Stmt) const;

  /// Direct static control-dependence children of (\p Pred, \p Branch).
  std::span<const StmtId> cdChildren(StmtId Pred, bool Branch) const;

  /// Number of predicates of function \p F: each has a slot in
  /// [0, predicateCount(F)), numbered in statement-id order.
  uint32_t predicateCount(FuncId F) const { return FuncPreds[F]; }

  /// The slot of predicate \p Pred among its function's predicates.
  uint32_t predicateSlot(StmtId Pred) const { return PredSlot[Pred]; }

  /// cdParents(\p Stmt)'s predicates as slots of their function (the
  /// interpreter's per-frame last-instance table is indexed by them).
  std::span<const uint32_t> cdParentSlots(StmtId Stmt) const {
    return {ParentSlots.data() + ParentSlotStart[Stmt],
            ParentSlots.data() + ParentSlotStart[Stmt + 1]};
  }

  /// True if \p Stmt is inside the code guarded by predicate \p Pred
  /// taking outcome \p Branch: the transitive control-dependence region,
  /// extended interprocedurally -- statements of functions called from
  /// within the region belong to it too (they only execute when the
  /// guarded code does). Context-insensitive, hence conservative, exactly
  /// like the static component of the paper's prototype.
  bool cdRegionContains(StmtId Pred, bool Branch, StmtId Stmt) const;

  /// Functions directly called by \p Stmt (anywhere in its expressions).
  const std::vector<FuncId> &calleesOf(StmtId Stmt) const {
    return StmtCallees.at(Stmt);
  }

  /// All statements of function \p F.
  const std::vector<StmtId> &statementsOf(FuncId F) const {
    return FuncStmts.at(F);
  }

  /// True if control can flow from \p From to \p To. Intraprocedurally
  /// this is CFG reachability; across functions it conservatively returns
  /// true when the defined class is visible to both (the consumers only
  /// need an over-approximation).
  bool mayReach(StmtId From, StmtId To) const;

  /// Statements that define (assign, declare, or store into) variable
  /// class \p Var, program-wide.
  const std::vector<StmtId> &defsOfVar(VarId Var) const;

  /// The variable class a definition statement writes; InvalidId when
  /// \p Stmt defines nothing (predicates, print, break, ...).
  VarId definedVar(StmtId Stmt) const { return DefVar.at(Stmt); }

  /// Number of statements in function \p F (procedure size, Table 1).
  size_t statementCount(FuncId F) const;

private:
  void indexFunction(const lang::Function &F);
  void indexStmt(const lang::Stmt *S, FuncId F);
  void collectCallees(const lang::Expr *E, std::vector<FuncId> &Out);

  const lang::Program &Prog;
  std::vector<CFG> CFGs;                    // indexed by FuncId
  std::vector<ControlDependence> CDs;       // indexed by FuncId
  std::vector<FuncId> StmtFunc;             // indexed by StmtId
  std::vector<uint32_t> StmtNode; // indexed by StmtId: its node in its CFG
  std::vector<VarId> DefVar;                // indexed by StmtId
  std::vector<std::vector<StmtId>> VarDefs; // indexed by VarId
  std::vector<std::vector<FuncId>> StmtCallees; // indexed by StmtId
  std::vector<std::vector<StmtId>> FuncStmts;   // indexed by FuncId
  std::vector<uint32_t> FuncPreds;              // indexed by FuncId
  /// Indexed by StmtId; InvalidId for a statement that is no predicate.
  std::vector<uint32_t> PredSlot;
  /// cdParentSlots as a compressed-sparse-row table (Csr.h) over StmtIds.
  std::vector<uint32_t> ParentSlotStart;
  std::vector<uint32_t> ParentSlots;
  static const std::vector<StmtId> NoDefs;

  /// Memoized transitive region membership, keyed by (Pred, Branch).
  mutable std::map<std::pair<StmtId, bool>, std::vector<bool>> RegionCache;
  /// Memoized intraprocedural reachability, keyed by CFG node per function.
  mutable std::map<std::pair<FuncId, uint32_t>, std::vector<bool>> ReachCache;
};

} // namespace analysis
} // namespace eoe

#endif // EOE_ANALYSIS_STATICANALYSIS_H
