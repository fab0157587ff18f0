//===-- analysis/CFG.cpp - Control-flow graphs ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"

#include "analysis/Csr.h"

#include <cassert>

using namespace eoe;
using namespace eoe::analysis;
using namespace eoe::lang;

namespace {

size_t countStmts(const std::vector<Stmt *> &Body) {
  size_t Count = Body.size();
  for (const Stmt *S : Body) {
    if (const auto *If = dyn_cast<IfStmt>(S))
      Count += countStmts(If->thenBody()) + countStmts(If->elseBody());
    else if (const auto *W = dyn_cast<WhileStmt>(S))
      Count += countStmts(W->body());
  }
  return Count;
}

/// Builds CFG nodes bottom-up: statements are visited in reverse so every
/// statement knows its fall-through successor when its node is created.
class Builder {
public:
  explicit Builder(std::vector<CFG::Node> &Nodes) : Nodes(Nodes) {}

  std::vector<CFG::Node> &Nodes;

  uint32_t addNode(StmtId Stmt) {
    Nodes.push_back({});
    Nodes.back().Stmt = Stmt;
    return static_cast<uint32_t>(Nodes.size() - 1);
  }

  void setSuccs(uint32_t N, uint32_t First) {
    Nodes[N].Succs[0] = First;
    Nodes[N].NumSuccs = 1;
  }

  void setSuccs(uint32_t N, uint32_t Taken, uint32_t NotTaken) {
    Nodes[N].Succs[0] = Taken;
    Nodes[N].Succs[1] = NotTaken;
    Nodes[N].NumSuccs = 2;
  }

  /// Returns the entry node of \p Body when its fall-through continuation
  /// is \p Next; break/continue inside jump to \p BreakTo / \p ContinueTo.
  uint32_t buildBody(const std::vector<Stmt *> &Body, uint32_t Next,
                     uint32_t BreakTo, uint32_t ContinueTo) {
    uint32_t Entry = Next;
    for (auto It = Body.rbegin(); It != Body.rend(); ++It)
      Entry = buildStmt(*It, Entry, BreakTo, ContinueTo);
    return Entry;
  }

  uint32_t buildStmt(Stmt *S, uint32_t Next, uint32_t BreakTo,
                     uint32_t ContinueTo) {
    switch (S->kind()) {
    case Stmt::Kind::If: {
      auto *If = cast<IfStmt>(S);
      uint32_t ThenEntry = buildBody(If->thenBody(), Next, BreakTo, ContinueTo);
      uint32_t ElseEntry = buildBody(If->elseBody(), Next, BreakTo, ContinueTo);
      uint32_t N = addNode(S->id());
      setSuccs(N, ThenEntry, ElseEntry);
      return N;
    }
    case Stmt::Kind::While: {
      auto *W = cast<WhileStmt>(S);
      uint32_t N = addNode(S->id());
      uint32_t BodyEntry =
          buildBody(W->body(), /*Next=*/N, /*BreakTo=*/Next, /*ContinueTo=*/N);
      setSuccs(N, BodyEntry, Next);
      return N;
    }
    case Stmt::Kind::Break: {
      uint32_t N = addNode(S->id());
      assert(BreakTo != InvalidId && "break outside loop survived Sema");
      setSuccs(N, BreakTo);
      return N;
    }
    case Stmt::Kind::Continue: {
      uint32_t N = addNode(S->id());
      assert(ContinueTo != InvalidId && "continue outside loop survived Sema");
      setSuccs(N, ContinueTo);
      return N;
    }
    case Stmt::Kind::Return: {
      uint32_t N = addNode(S->id());
      setSuccs(N, CFG::ExitNode);
      return N;
    }
    default: {
      uint32_t N = addNode(S->id());
      setSuccs(N, Next);
      return N;
    }
    }
  }
};

} // namespace

CFG CFG::build(const lang::Program &Prog, const lang::Function &F) {
  (void)Prog;
  CFG G;
  G.Nodes.reserve(2 + countStmts(F.body()));
  Builder B(G.Nodes);
  uint32_t Entry = B.addNode(InvalidId);
  uint32_t Exit = B.addNode(InvalidId);
  assert(Entry == EntryNode && Exit == ExitNode);
  (void)Entry;
  (void)Exit;
  B.setSuccs(EntryNode, B.buildBody(F.body(), ExitNode, InvalidId, InvalidId));

  // Predecessors in node order, by the two-pass fill of Csr.h.
  uint32_t Size = static_cast<uint32_t>(G.Nodes.size());
  G.PredStart.assign(Size + 1, 0);
  for (uint32_t N = 0; N < Size; ++N)
    for (uint32_t Succ : G.succs(N))
      ++G.PredStart[Succ + 1];
  countsToOffsets(G.PredStart);
  G.PredList.resize(G.PredStart[Size]);
  for (uint32_t N = 0; N < Size; ++N)
    for (uint32_t Succ : G.succs(N))
      G.PredList[G.PredStart[Succ]++] = N;
  rewindCursors(G.PredStart);
  return G;
}
