//===-- viz/Dot.cpp - GraphViz exports ------------------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "viz/Dot.h"

#include "lang/PrettyPrinter.h"

#include <sstream>

using namespace eoe;
using namespace eoe::viz;

namespace {

/// Escapes a label for inclusion in a double-quoted dot string.
std::string escape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string stmtLabel(const lang::Program &Prog, StmtId S) {
  return escape(lang::stmtToString(Prog.statement(S)));
}

} // namespace

std::string viz::cfgToDot(const lang::Program &Prog, const analysis::CFG &G,
                          const lang::Function &F) {
  std::ostringstream OS;
  OS << "digraph cfg_" << F.name() << " {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (uint32_t N = 0; N < G.size(); ++N) {
    std::string Label;
    if (N == analysis::CFG::EntryNode)
      Label = "ENTRY " + F.name();
    else if (N == analysis::CFG::ExitNode)
      Label = "EXIT";
    else
      Label = stmtLabel(Prog, G.node(N).Stmt);
    OS << "  n" << N << " [label=\"" << Label << "\"";
    if (G.isBranch(N))
      OS << ", shape=diamond";
    OS << "];\n";
  }
  for (uint32_t N = 0; N < G.size(); ++N) {
    std::span<const uint32_t> Succs = G.succs(N);
    for (size_t I = 0; I < Succs.size(); ++I) {
      OS << "  n" << N << " -> n" << Succs[I];
      if (G.isBranch(N))
        OS << " [label=\"" << (I == 0 ? "T" : "F") << "\"]";
      OS << ";\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string viz::regionTreeToDot(const lang::Program &Prog,
                                 const interp::ExecutionTrace &T,
                                 const align::RegionTree &Tree,
                                 size_t MaxNodes) {
  size_t Limit = std::min<size_t>(T.size(), MaxNodes);
  std::ostringstream OS;
  OS << "digraph regions {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (TraceIdx I = 0; I < Limit; ++I) {
    OS << "  i" << I << " [label=\"[" << I << "] "
       << stmtLabel(Prog, T.step(I).Stmt) << "\"";
    if (T.step(I).isPredicateInstance())
      OS << ", shape=diamond, label=\"[" << I << "] "
         << stmtLabel(Prog, T.step(I).Stmt) << " ("
         << (T.step(I).branch() ? "T" : "F") << ")\"";
    OS << "];\n";
  }
  for (TraceIdx I = 0; I < Limit; ++I)
    if (Tree.parent(I) != InvalidId && Tree.parent(I) < Limit)
      OS << "  i" << Tree.parent(I) << " -> i" << I << ";\n";
  if (Limit < T.size())
    OS << "  truncated [shape=plaintext, label=\"... " << (T.size() - Limit)
       << " more instances\"];\n";
  OS << "}\n";
  return OS.str();
}

std::string viz::depGraphToDot(const lang::Program &Prog,
                               const ddg::DepGraph &G,
                               const std::vector<bool> *Filter,
                               size_t MaxNodes) {
  const interp::ExecutionTrace &T = G.trace();
  auto Included = [&](TraceIdx I) {
    return (!Filter || (*Filter)[I]) && I < MaxNodes;
  };

  std::ostringstream OS;
  OS << "digraph ddg {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  size_t Shown = 0;
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (!Included(I))
      continue;
    ++Shown;
    OS << "  i" << I << " [label=\"[" << I << "] "
       << stmtLabel(Prog, T.step(I).Stmt) << "\"];\n";
  }
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (!Included(I))
      continue;
    for (const interp::UseRecord &Use : T.uses(I))
      if (Use.Def != InvalidId && Included(Use.Def))
        OS << "  i" << I << " -> i" << Use.Def << ";\n";
    if (T.step(I).CdParent != InvalidId && Included(T.step(I).CdParent))
      OS << "  i" << I << " -> i" << T.step(I).CdParent
         << " [style=dashed];\n";
  }
  for (const ddg::DepGraph::ImplicitEdge &E : G.implicitEdges())
    if (Included(E.Use) && Included(E.Pred))
      OS << "  i" << E.Use << " -> i" << E.Pred
         << " [color=red, penwidth=2, label=\""
         << (E.Strong ? "strong id" : "id") << "\"];\n";
  if (Shown == 0)
    OS << "  empty [shape=plaintext, label=\"(no instances selected)\"];\n";
  OS << "}\n";
  return OS.str();
}
