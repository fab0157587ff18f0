//===-- lang/Sema.cpp - Siml semantic checking ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "support/Diagnostic.h"

#include <cassert>

using namespace eoe;
using namespace eoe::lang;

Sema::Sema(Program &Prog, DiagnosticEngine &Diags)
    : Prog(Prog), Diags(Diags) {}

void Sema::run() {
  Bindings.clear();
  ScopeStarts.clear();
  pushScope(); // Global scope.
  declareGlobals();

  // Reject duplicate function names up front so call resolution is
  // unambiguous.
  for (Function *F : Prog.functions())
    for (Function *Other : Prog.functions())
      if (F != Other && F->name() == Other->name() && F->id() < Other->id())
        Diags.error(Other->loc(),
                    "duplicate function '" + Other->name() + "'");

  for (Function *F : Prog.functions())
    checkFunction(*F);

  FuncId Main = Prog.findFunction("main");
  if (!isValidId(Main)) {
    Diags.error(SourceLoc{1, 1}, "program has no 'main' function");
    return;
  }
  if (!Prog.function(Main)->paramNames().empty())
    Diags.error(Prog.function(Main)->loc(), "'main' must take no parameters");
  Prog.setMainFunction(Main);
}

void Sema::declareGlobals() {
  uint32_t Slot = 0;
  for (VarDeclStmt *G : Prog.globals()) {
    if (isValidId(lookupVar(G->name()))) {
      Diags.error(G->loc(), "duplicate global '" + G->name() + "'");
      continue;
    }
    VarInfo Info;
    Info.Name = G->name();
    Info.Func = InvalidId;
    Info.Slot = Slot;
    Info.ArraySize = G->arraySize();
    Info.Decl = G->id();
    Slot += Info.slotCount();
    VarId Id = Prog.addVariable(std::move(Info));
    G->setVar(Id);
    Bindings.push_back({G->name(), Id});
  }
  Prog.setGlobalSlots(Slot);
}

VarId Sema::declareVar(const std::string &Name, int64_t ArraySize, StmtId Decl,
                       SourceLoc Loc) {
  assert(CurFunc && "local declaration outside a function");
  for (size_t I = ScopeStarts.back(); I < Bindings.size(); ++I)
    if (Bindings[I].Name == Name) {
      Diags.error(Loc, "duplicate variable '" + Name + "' in this scope");
      return Bindings[I].Var;
    }
  VarInfo Info;
  Info.Name = Name;
  Info.Func = CurFunc->id();
  Info.Slot = NextSlot;
  Info.ArraySize = ArraySize;
  Info.Decl = Decl;
  NextSlot += Info.slotCount();
  VarId Id = Prog.addVariable(std::move(Info));
  Bindings.push_back({Name, Id});
  return Id;
}

VarId Sema::lookupVar(std::string_view Name) const {
  for (auto It = Bindings.rbegin(); It != Bindings.rend(); ++It)
    if (It->Name == Name)
      return It->Var;
  return InvalidId;
}

void Sema::requireScalar(VarId Var, SourceLoc Loc, const std::string &Name) {
  if (isValidId(Var) && Prog.variable(Var).isArray())
    Diags.error(Loc, "array '" + Name + "' used as a scalar");
}

void Sema::requireArray(VarId Var, SourceLoc Loc, const std::string &Name) {
  if (isValidId(Var) && !Prog.variable(Var).isArray())
    Diags.error(Loc, "scalar '" + Name + "' indexed like an array");
}

void Sema::checkFunction(Function &F) {
  CurFunc = &F;
  NextSlot = 0;
  LoopDepth = 0;
  assert(ScopeStarts.size() == 1 && "only the global scope is open");
  pushScope(); // The parameters' scope.

  std::vector<VarId> Params;
  for (const std::string &PName : F.paramNames())
    Params.push_back(declareVar(PName, /*ArraySize=*/0,
                                /*Decl=*/InvalidId, F.loc()));
  F.setParams(std::move(Params));

  checkBody(F.body());
  popScope();
  F.setFrameSlots(NextSlot);
  CurFunc = nullptr;
}

void Sema::checkBody(const std::vector<Stmt *> &Body) {
  pushScope();
  for (Stmt *S : Body)
    checkStmt(S);
  popScope();
}

void Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::VarDecl: {
    auto *Decl = cast<VarDeclStmt>(S);
    if (Decl->init())
      checkExpr(Decl->init());
    if (Decl->isArray() && Decl->init())
      Diags.error(Decl->loc(), "arrays cannot have initializers");
    Decl->setVar(
        declareVar(Decl->name(), Decl->arraySize(), Decl->id(), Decl->loc()));
    return;
  }
  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(S);
    checkExpr(A->value());
    VarId Var = lookupVar(A->name());
    if (!isValidId(Var)) {
      Diags.error(A->loc(), "unknown variable '" + A->name() + "'");
      return;
    }
    requireScalar(Var, A->loc(), A->name());
    A->setVar(Var);
    return;
  }
  case Stmt::Kind::ArrayAssign: {
    auto *A = cast<ArrayAssignStmt>(S);
    checkExpr(A->index());
    checkExpr(A->value());
    VarId Var = lookupVar(A->name());
    if (!isValidId(Var)) {
      Diags.error(A->loc(), "unknown array '" + A->name() + "'");
      return;
    }
    requireArray(Var, A->loc(), A->name());
    A->setVar(Var);
    return;
  }
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    checkExpr(If->cond());
    checkBody(If->thenBody());
    checkBody(If->elseBody());
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(S);
    checkExpr(W->cond());
    ++LoopDepth;
    checkBody(W->body());
    --LoopDepth;
    return;
  }
  case Stmt::Kind::Break:
    if (LoopDepth == 0)
      Diags.error(S->loc(), "'break' outside a loop");
    return;
  case Stmt::Kind::Continue:
    if (LoopDepth == 0)
      Diags.error(S->loc(), "'continue' outside a loop");
    return;
  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->value())
      checkExpr(R->value());
    return;
  }
  case Stmt::Kind::Print: {
    auto *P = cast<PrintStmt>(S);
    if (P->args().empty())
      Diags.error(P->loc(), "print requires at least one argument");
    for (Expr *Arg : P->args())
      checkExpr(Arg);
    return;
  }
  case Stmt::Kind::CallStmt:
    checkExpr(cast<CallStmtNode>(S)->call());
    return;
  }
}

void Sema::checkExpr(Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::Input:
    return;
  case Expr::Kind::VarRef: {
    auto *Ref = cast<VarRefExpr>(E);
    VarId Var = lookupVar(Ref->name());
    if (!isValidId(Var)) {
      Diags.error(Ref->loc(), "unknown variable '" + Ref->name() + "'");
      return;
    }
    requireScalar(Var, Ref->loc(), Ref->name());
    Ref->setVar(Var);
    return;
  }
  case Expr::Kind::ArrayRef: {
    auto *Ref = cast<ArrayRefExpr>(E);
    checkExpr(Ref->index());
    VarId Var = lookupVar(Ref->name());
    if (!isValidId(Var)) {
      Diags.error(Ref->loc(), "unknown array '" + Ref->name() + "'");
      return;
    }
    requireArray(Var, Ref->loc(), Ref->name());
    Ref->setVar(Var);
    return;
  }
  case Expr::Kind::Call: {
    auto *Call = cast<CallExpr>(E);
    for (Expr *Arg : Call->args())
      checkExpr(Arg);
    FuncId Callee = Prog.findFunction(Call->calleeName());
    if (!isValidId(Callee)) {
      Diags.error(Call->loc(),
                  "call to unknown function '" + Call->calleeName() + "'");
      return;
    }
    const Function *F = Prog.function(Callee);
    if (F->paramNames().size() != Call->args().size())
      Diags.error(Call->loc(), "call to '" + Call->calleeName() + "' with " +
                                   std::to_string(Call->args().size()) +
                                   " arguments; expected " +
                                   std::to_string(F->paramNames().size()));
    Call->setCallee(Callee);
    return;
  }
  case Expr::Kind::Unary:
    checkExpr(cast<UnaryExpr>(E)->sub());
    return;
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    checkExpr(B->lhs());
    checkExpr(B->rhs());
    return;
  }
  }
}
