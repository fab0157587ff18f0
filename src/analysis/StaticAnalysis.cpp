//===-- analysis/StaticAnalysis.cpp - Whole-program static facts ------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalysis.h"

#include "analysis/Csr.h"

#include <cassert>
#include <deque>

using namespace eoe;
using namespace eoe::analysis;
using namespace eoe::lang;

const std::vector<StmtId> StaticAnalysis::NoDefs;

StaticAnalysis::StaticAnalysis(const lang::Program &Prog) : Prog(Prog) {
  StmtFunc.assign(Prog.statements().size(), InvalidId);
  StmtNode.assign(Prog.statements().size(), InvalidId);
  DefVar.assign(Prog.statements().size(), InvalidId);
  VarDefs.assign(Prog.variables().size(), {});
  StmtCallees.assign(Prog.statements().size(), {});
  FuncStmts.assign(Prog.functions().size(), {});

  // Global declarations: defs of their variable, owned by no function.
  for (VarDeclStmt *G : Prog.globals()) {
    DefVar[G->id()] = G->var();
    if (isValidId(G->var()))
      VarDefs[G->var()].push_back(G->id());
  }

  CFGs.reserve(Prog.functions().size());
  CDs.reserve(Prog.functions().size());
  for (Function *F : Prog.functions()) {
    CFGs.push_back(CFG::build(Prog, *F));
    CDs.push_back(ControlDependence::build(CFGs.back()));
    const std::vector<CFG::Node> &Nodes = CFGs.back().nodes();
    for (uint32_t N = 0; N < Nodes.size(); ++N)
      if (isValidId(Nodes[N].Stmt))
        StmtNode[Nodes[N].Stmt] = N;
    indexFunction(*F);
  }

  // Number each function's predicates, then store every statement's
  // control-dependence parents as those numbers (the two-pass fill of
  // Csr.h; global declarations have none).
  const size_t StmtCount = Prog.statements().size();
  FuncPreds.assign(Prog.functions().size(), 0);
  PredSlot.assign(StmtCount, InvalidId);
  ParentSlotStart.assign(StmtCount + 1, 0);
  for (StmtId S = 0; S < StmtCount; ++S) {
    if (!isValidId(StmtFunc[S]))
      continue;
    if (Prog.statements()[S]->isPredicate())
      PredSlot[S] = FuncPreds[StmtFunc[S]]++;
    ParentSlotStart[S + 1] = static_cast<uint32_t>(cdParents(S).size());
  }
  countsToOffsets(ParentSlotStart);
  ParentSlots.resize(ParentSlotStart[StmtCount]);
  for (StmtId S = 0; S < StmtCount; ++S)
    for (const ControlDependence::Parent &P : cdParents(S)) {
      assert(isValidId(PredSlot[P.Pred]) && "parent is not a predicate");
      ParentSlots[ParentSlotStart[S]++] = PredSlot[P.Pred];
    }
  rewindCursors(ParentSlotStart);
}

void StaticAnalysis::indexFunction(const lang::Function &F) {
  for (const Stmt *S : F.body())
    indexStmt(S, F.id());
}

void StaticAnalysis::collectCallees(const lang::Expr *E,
                                    std::vector<FuncId> &Out) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::VarRef:
  case Expr::Kind::Input:
    return;
  case Expr::Kind::ArrayRef:
    collectCallees(cast<ArrayRefExpr>(E)->index(), Out);
    return;
  case Expr::Kind::Call: {
    const auto *Call = cast<CallExpr>(E);
    if (isValidId(Call->callee()))
      Out.push_back(Call->callee());
    for (const Expr *Arg : Call->args())
      collectCallees(Arg, Out);
    return;
  }
  case Expr::Kind::Unary:
    collectCallees(cast<UnaryExpr>(E)->sub(), Out);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    collectCallees(B->lhs(), Out);
    collectCallees(B->rhs(), Out);
    return;
  }
  }
}

void StaticAnalysis::indexStmt(const lang::Stmt *S, FuncId F) {
  StmtFunc[S->id()] = F;
  FuncStmts[F].push_back(S->id());
  VarId Defined = InvalidId;
  std::vector<FuncId> &Callees = StmtCallees[S->id()];
  switch (S->kind()) {
  case Stmt::Kind::VarDecl: {
    const auto *Decl = cast<VarDeclStmt>(S);
    Defined = Decl->var();
    if (Decl->init())
      collectCallees(Decl->init(), Callees);
    break;
  }
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    Defined = A->var();
    collectCallees(A->value(), Callees);
    break;
  }
  case Stmt::Kind::ArrayAssign: {
    const auto *A = cast<ArrayAssignStmt>(S);
    Defined = A->var();
    collectCallees(A->index(), Callees);
    collectCallees(A->value(), Callees);
    break;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    collectCallees(If->cond(), Callees);
    for (const Stmt *Child : If->thenBody())
      indexStmt(Child, F);
    for (const Stmt *Child : If->elseBody())
      indexStmt(Child, F);
    break;
  }
  case Stmt::Kind::While: {
    collectCallees(cast<WhileStmt>(S)->cond(), Callees);
    for (const Stmt *Child : cast<WhileStmt>(S)->body())
      indexStmt(Child, F);
    break;
  }
  case Stmt::Kind::Return:
    if (cast<ReturnStmt>(S)->value())
      collectCallees(cast<ReturnStmt>(S)->value(), Callees);
    break;
  case Stmt::Kind::Print:
    for (const lang::Expr *Arg : cast<PrintStmt>(S)->args())
      collectCallees(Arg, Callees);
    break;
  case Stmt::Kind::CallStmt:
    collectCallees(cast<CallStmtNode>(S)->call(), Callees);
    break;
  default:
    break;
  }
  if (isValidId(Defined)) {
    DefVar[S->id()] = Defined;
    VarDefs[Defined].push_back(S->id());
  }
}

std::span<const ControlDependence::Parent>
StaticAnalysis::cdParents(StmtId Stmt) const {
  FuncId F = StmtFunc.at(Stmt);
  if (!isValidId(F))
    return {};
  return CDs[F].parents(StmtNode[Stmt]);
}

std::span<const StmtId> StaticAnalysis::cdChildren(StmtId Pred,
                                                   bool Branch) const {
  FuncId F = StmtFunc.at(Pred);
  assert(isValidId(F) && "predicate outside any function");
  return CDs[F].children(StmtNode[Pred], Branch);
}

bool StaticAnalysis::cdRegionContains(StmtId Pred, bool Branch,
                                      StmtId Stmt) const {
  auto Key = std::make_pair(Pred, Branch);
  auto It = RegionCache.find(Key);
  if (It == RegionCache.end()) {
    // Flood downward from the direct children of (Pred, Branch), following
    // both outcomes of nested predicates and descending into callees:
    // code in a function invoked from the region executes only when the
    // region does.
    std::vector<bool> Member(Prog.statements().size(), false);
    std::deque<StmtId> Work(cdChildren(Pred, Branch).begin(),
                            cdChildren(Pred, Branch).end());
    std::vector<bool> FuncSeen(Prog.functions().size(), false);
    while (!Work.empty()) {
      StmtId S = Work.front();
      Work.pop_front();
      if (Member[S])
        continue;
      Member[S] = true;
      for (bool B : {true, false})
        for (StmtId Child : cdChildren(S, B))
          if (!Member[Child])
            Work.push_back(Child);
      for (FuncId Callee : StmtCallees[S]) {
        if (FuncSeen[Callee])
          continue;
        FuncSeen[Callee] = true;
        for (StmtId Inner : FuncStmts[Callee])
          if (!Member[Inner])
            Work.push_back(Inner);
      }
    }
    // A loop predicate is control dependent on itself; keep Pred out of
    // its own region so regions describe *other* guarded statements.
    Member[Pred] = false;
    It = RegionCache.emplace(Key, std::move(Member)).first;
  }
  return It->second[Stmt];
}

bool StaticAnalysis::mayReach(StmtId From, StmtId To) const {
  FuncId FF = StmtFunc.at(From);
  FuncId TF = StmtFunc.at(To);
  if (!isValidId(FF) || !isValidId(TF))
    return true; // Global declarations precede everything.
  if (FF != TF)
    return true; // Conservative across functions.

  const CFG &G = CFGs[FF];
  uint32_t FromNode = StmtNode[From];
  uint32_t ToNode = StmtNode[To];

  auto Key = std::make_pair(FF, FromNode);
  auto It = ReachCache.find(Key);
  if (It == ReachCache.end()) {
    std::vector<bool> Seen(G.size(), false);
    std::deque<uint32_t> Work;
    // Reachability *from* From: start at its successors so a statement
    // does not trivially reach itself unless it sits on a cycle.
    for (uint32_t S : G.succs(FromNode))
      Work.push_back(S);
    while (!Work.empty()) {
      uint32_t N = Work.front();
      Work.pop_front();
      if (Seen[N])
        continue;
      Seen[N] = true;
      for (uint32_t S : G.succs(N))
        Work.push_back(S);
    }
    It = ReachCache.emplace(Key, std::move(Seen)).first;
  }
  return It->second[ToNode];
}

const std::vector<StmtId> &StaticAnalysis::defsOfVar(VarId Var) const {
  if (Var >= VarDefs.size())
    return NoDefs;
  return VarDefs[Var];
}

size_t StaticAnalysis::statementCount(FuncId F) const {
  size_t Count = 0;
  for (StmtId S = 0; S < StmtFunc.size(); ++S)
    if (StmtFunc[S] == F)
      ++Count;
  return Count;
}
