//===-- lang/Sema.h - Siml semantic checking ---------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and semantic checks for Siml programs: binds variable
/// references and calls, lays out global and frame memory slots, and
/// validates structural rules (break/continue placement, array vs scalar
/// usage, call arity, presence of a zero-argument main).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_LANG_SEMA_H
#define EOE_LANG_SEMA_H

#include "lang/AST.h"

#include <string>
#include <string_view>
#include <vector>

namespace eoe {
class DiagnosticEngine;

namespace lang {

/// Resolves and validates a parsed Program in place.
class Sema {
public:
  Sema(Program &Prog, DiagnosticEngine &Diags);

  /// Runs all checks; afterwards the program is fully resolved unless
  /// Diags.hasErrors().
  void run();

private:
  /// A name in scope; Name views the declaring AST node's string.
  struct Binding {
    std::string_view Name;
    VarId Var;
  };

  void pushScope() { ScopeStarts.push_back(Bindings.size()); }
  void popScope() {
    Bindings.resize(ScopeStarts.back());
    ScopeStarts.pop_back();
  }
  void declareGlobals();
  void checkFunction(Function &F);
  void checkBody(const std::vector<Stmt *> &Body);
  void checkStmt(Stmt *S);
  void checkExpr(Expr *E);
  VarId declareVar(const std::string &Name, int64_t ArraySize, StmtId Decl,
                   SourceLoc Loc);
  VarId lookupVar(std::string_view Name) const;
  void requireScalar(VarId Var, SourceLoc Loc, const std::string &Name);
  void requireArray(VarId Var, SourceLoc Loc, const std::string &Name);

  Program &Prog;
  DiagnosticEngine &Diags;
  /// The names in scope, innermost last; the globals come first. A scope
  /// opens by marking the stack's height and closes by cutting back to it.
  std::vector<Binding> Bindings;
  std::vector<size_t> ScopeStarts; // Bindings index each open scope starts at
  Function *CurFunc = nullptr; // function being checked
  uint32_t NextSlot = 0;       // next free frame slot in CurFunc
  unsigned LoopDepth = 0;      // nesting depth of while statements
};

} // namespace lang
} // namespace eoe

#endif // EOE_LANG_SEMA_H
