//===-- examples/align_explorer.cpp - Region trees and alignment ----------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Visualizes the machinery of section 3.1: runs the paper's Figure 2
// program, prints both executions' region decompositions (Definition 3)
// as indented trees, and shows the alignment verdict for every instance
// of the original run.
//
//   $ ./examples/align_explorer
//
//===----------------------------------------------------------------------===//

#include "align/Aligner.h"
#include "analysis/StaticAnalysis.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "support/Diagnostic.h"

#include <cstdio>
#include <string>

using namespace eoe;
using namespace eoe::align;
using namespace eoe::interp;

namespace {

const char *Source = "fn main() {\n"     // 1
                     "var i = 0;\n"      // 2
                     "var t = 0;\n"      // 3
                     "var x = 0;\n"      // 4
                     "var P = 0;\n"      // 5
                     "var C2 = 0;\n"     // 6
                     "var y = 0;\n"      // 7
                     "if (P) {\n"        // 8   <- switched
                     "t = 2;\n"          // 9
                     "x = 42;\n"         // 10
                     "}\n"
                     "while (i < t) {\n" // 12
                     "y = y + 1;\n"      // 13
                     "i = i + 1;\n"      // 14
                     "}\n"
                     "if (C2 == 0) {\n"  // 16
                     "y = x;\n"          // 17
                     "}\n"
                     "print(y);\n"       // 19
                     "}\n";

void printRegion(const lang::Program &Prog, const ExecutionTrace &T,
                 const RegionTree &Tree, TraceIdx Head, int Indent) {
  std::printf("%*s[%u] %s\n", Indent * 2, "", Head,
              lang::stmtToString(Prog.statement(T.step(Head).Stmt)).c_str());
  for (TraceIdx Child : Tree.children(Head))
    printRegion(Prog, T, Tree, Child, Indent + 1);
}

void printForest(const lang::Program &Prog, const ExecutionTrace &T,
                 const RegionTree &Tree, const char *Title) {
  std::printf("\n%s\n", Title);
  for (TraceIdx Root : Tree.children(InvalidId))
    printRegion(Prog, T, Tree, Root, 1);
}

} // namespace

int main() {
  std::printf("== Region trees and execution alignment ==\n\n%s\n", Source);

  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "parse failed:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);

  ExecutionTrace E = Interp.run({});
  SwitchSpec Spec{Prog->statementAtLine(8), 1};
  ExecutionTrace EP = Interp.runSwitched({}, Spec, 100000);

  ExecutionAligner Aligner(E, EP);
  printForest(*Prog, E, Aligner.originalTree(),
              "original execution's region forest (Definition 3):");
  // The aligner indexes the switched run only from its switch point on
  // (the runs agree before it); print the whole forest.
  printForest(*Prog, EP, RegionTree(EP),
              "switched execution's region forest (if (P) forced true; the "
              "while loop now runs twice):");

  std::printf("\nalignment of every original instance (Algorithm 1):\n");
  bool AllExplained = true;
  for (TraceIdx I = 0; I < E.size(); ++I) {
    AlignResult R = Aligner.match(I);
    std::string Verdict;
    if (R.found())
      Verdict = "-> " + std::to_string(R.Matched);
    else if (R.Why == AlignFailure::BranchDiverged)
      Verdict = "no match (branch diverged)";
    else if (R.Why == AlignFailure::RegionEndedEarly)
      Verdict = "no match (region ended early)";
    else
      Verdict = "no match";
    std::printf("  [%2u] %-24s %s\n", I,
                lang::stmtToString(Prog->statement(E.step(I).Stmt)).c_str(),
                Verdict.c_str());
    if (R.found() && E.step(I).Stmt != EP.step(R.Matched).Stmt)
      AllExplained = false;
  }
  std::printf("\nevery match pairs identical statements: %s\n",
              AllExplained ? "yes" : "NO (bug!)");
  return AllExplained ? 0 : 1;
}
