//===-- bench/bench_figure2_alignment.cpp - Figures 2 and 3 --------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Regenerates the paper's Figure 2 (execution alignment across a
// predicate switch: executions (1), (2), (3)) and Figure 3 (the
// single-entry-multiple-exit case), printing the region decomposition and
// the match verdicts the paper derives:
//   - 15(1) matches 15(2) even though the switch inserts a loop between
//     them (2(1) -id-> 15(1) does NOT hold in execution (2): an explicit
//     path exists instead);
//   - 15(1) has no match in execution (3) => 2(1) -id-> 15(1) holds.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "align/Aligner.h"
#include "analysis/StaticAnalysis.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "support/Diagnostic.h"

#include <cstdio>
#include <string>

using namespace eoe;
using namespace eoe::bench;
using namespace eoe::interp;

namespace {

std::string figure2Source(bool C2Faulty) {
  std::string Body = C2Faulty ? "C2 = 1;" : "C2 = 0;";
  return std::string("fn main() {\n"     // 1
                     "var i = 0;\n"      // 2
                     "var t = 0;\n"      // 3
                     "var x = 0;\n"      // 4
                     "var P = 0;\n"      // 5
                     "var C1 = 0;\n"     // 6
                     "var C2 = 0;\n"     // 7
                     "var y = 0;\n"      // 8
                     "if (P) {\n"        // 9: the paper's "2"
                     "t = 1;\n") +       // 10: "3"
         Body + "\n"                     // 11
                "x = 42;\n"              // 12: "4"
                "}\n"                    // 13
                "while (i < t) {\n"      // 14: "6"
                "y = y + 1;\n"           // 15: "7"
                "if (C1) {\n"            // 16: "8"
                "y = y + 2;\n"           // 17: "9"
                "}\n"                    // 18
                "i = i + 1;\n"           // 19: "11"
                "}\n"                    // 20
                "if (1) {\n"             // 21: "13"
                "if (C2 == 0) {\n"       // 22: "14"
                "y = x;\n"               // 23: "15" -- the use of x
                "}\n"                    // 24
                "y = y + 3;\n"           // 25: "17"
                "}\n"                    // 26
                "print(y);\n"            // 27
                "}\n";
}

void printTrace(const lang::Program &Prog, const ExecutionTrace &T,
                const char *Label) {
  std::printf("%s:", Label);
  for (TraceIdx I = 0; I < T.size(); ++I)
    std::printf(" %u", Prog.statement(T.step(I).Stmt)->loc().Line);
  std::printf("\n");
}

int runScenario(bool C2Faulty, const char *Title, bool ExpectMatch) {
  std::printf("\n--- %s ---\n", Title);
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(figure2Source(C2Faulty), Diags);
  if (!Prog) {
    std::fprintf(stderr, "parse error:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);

  ExecutionTrace E = Interp.run({});
  SwitchSpec Spec{Prog->statementAtLine(9), 1};
  ExecutionTrace EP = Interp.runSwitched({}, Spec, 100000);
  printTrace(*Prog, E, "original trace (source lines)");
  printTrace(*Prog, EP, "switched trace (source lines)");

  TraceIdx U = InvalidId;
  StmtId UseStmt = Prog->statementAtLine(23);
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).Stmt == UseStmt)
      U = I;
  if (U == InvalidId) {
    std::fprintf(stderr, "error: use statement not executed\n");
    return 1;
  }

  align::ExecutionAligner A(E, EP);
  align::AlignResult R = A.match(U);
  if (R.found())
    std::printf("match of 15(1) [y = x at index %u]: FOUND at switched "
                "index %u (reads x = %lld)\n",
                U, R.Matched,
                static_cast<long long>(EP.uses(R.Matched).empty()
                                           ? -1
                                           : EP.uses(R.Matched)[0].Value));
  else
    std::printf("match of 15(1): NOT FOUND (%s)\n",
                R.Why == align::AlignFailure::BranchDiverged
                    ? "a predicate on the path took the other branch"
                    : "region ended early");
  bool Ok = R.found() == ExpectMatch;
  std::printf("paper's verdict %s\n", Ok ? "reproduced" : "VIOLATED");
  return Ok ? 0 : 1;
}

int runFigure3() {
  std::printf("\n--- Figure 3: single-entry-multiple-exit regions ---\n");
  // The paper's loop with a data-dependent break: switching P changes C0,
  // and the match of 7 is not found because the region exits early.
  const char *Src = "fn main() {\n"         // 1
                    "var P = 0;\n"          // 2
                    "var c0 = 0;\n"         // 3
                    "if (P) {\n"            // 4  <- switched ("1")
                    "c0 = 1;\n"             // 5
                    "}\n"                   // 6
                    "var i = 0;\n"          // 7
                    "var x = 9;\n"          // 8
                    "var y = 0;\n"          // 9
                    "while (i < 2) {\n"     // 10: "3"
                    "if (c0) {\n"           // 11: "4"
                    "break;\n"              // 12: "5"
                    "}\n"                   // 13
                    "if (1) {\n"            // 14: "6"
                    "y = x;\n"              // 15: "7" -- the use
                    "}\n"                   // 16
                    "i = i + 1;\n"          // 17: "8"
                    "}\n"                   // 18
                    "print(y);\n"           // 19: "10"
                    "}\n";
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Src, Diags);
  if (!Prog) {
    std::fprintf(stderr, "parse error:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);
  ExecutionTrace E = Interp.run({});
  ExecutionTrace EP =
      Interp.runSwitched({}, {Prog->statementAtLine(4), 1}, 100000);
  printTrace(*Prog, E, "original trace (source lines)");
  printTrace(*Prog, EP, "switched trace (source lines)");

  TraceIdx U = InvalidId;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).Stmt == Prog->statementAtLine(15) &&
        E.step(I).InstanceNo == 1)
      U = I;
  align::ExecutionAligner A(E, EP);
  align::AlignResult R = A.match(U);
  std::printf("match of 7 (y = x, iteration 1): %s\n",
              R.found() ? "FOUND (unexpected!)" : "NOT FOUND");
  std::printf("paper's verdict (no match: the loop exits by break) %s\n",
              !R.found() ? "reproduced" : "VIOLATED");
  return R.found() ? 1 : 0;
}

} // namespace

int main() {
  banner("Figures 2 and 3: region-based execution alignment");
  int Rc = 0;
  Rc |= runScenario(false, "Figure 2, executions (1) vs (2): match exists",
                    /*ExpectMatch=*/true);
  Rc |= runScenario(true,
                    "Figure 2, executions (1) vs (3): no match "
                    "(t = C2 = 1 variant)",
                    /*ExpectMatch=*/false);
  Rc |= runFigure3();
  return Rc;
}
