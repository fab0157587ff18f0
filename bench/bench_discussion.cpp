//===-- bench/bench_discussion.cpp - Table 5: feasibility and soundness --------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Regenerates the paper's section 5 discussion examples:
//   Table 5(a) feasibility -- forcing a predicate may traverse a path
//   infeasible in the faulty program; the dependence is still reported
//   (the predicate itself may be the error).
//   Table 5(b) soundness -- two nested predicates testing the same faulty
//   definition: switching one at a time misses the implicit dependence
//   (the technique's documented unsoundness).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/ValuePerturb.h"
#include "core/VerifyDep.h"
#include "analysis/StaticAnalysis.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "slicing/OutputVerdicts.h"
#include "support/Diagnostic.h"

#include <cstdio>

using namespace eoe;
using namespace eoe::bench;
using namespace eoe::core;
using namespace eoe::interp;

namespace {

/// Runs one VerifyDep query over a tiny scenario.
DepVerdict runCase(const char *Src, std::vector<int64_t> Input,
                   uint32_t PredLine, uint32_t UseLine, const char *VarName,
                   int64_t Vexp) {
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Src, Diags);
  if (!Prog) {
    std::fprintf(stderr, "parse error:\n%s", Diags.str().c_str());
    return DepVerdict::NotImplicit;
  }
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);
  ExecutionTrace T = Interp.run(Input);

  slicing::OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = Vexp;

  ImplicitDepVerifier Verifier(Interp, T, Input, V,
                               ImplicitDepVerifier::Config());
  TraceIdx P = InvalidId, U = InvalidId;
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (T.step(I).Stmt == Prog->statementAtLine(PredLine))
      P = I;
    if (T.step(I).Stmt == Prog->statementAtLine(UseLine))
      U = I;
  }
  for (const UseRecord &Use : T.uses(U))
    if (isValidId(Use.Var) && Prog->variable(Use.Var).Name == VarName)
      return Verifier.verify(P, U, Use.LoadExpr);
  std::fprintf(stderr, "error: use of %s not found\n", VarName);
  return DepVerdict::NotImplicit;
}

} // namespace

int main() {
  banner("Table 5: discussion examples (feasibility and soundness)");

  // Table 5(a): A = 15 takes P1; P2 is false. Forcing P2 true follows a
  // path infeasible in this program text -- the dependence is reported
  // anyway, by design.
  const char *FeasSrc = "fn main() {\n"
                        "var A = input();\n" // 2
                        "var X = 1;\n"       // 3: S1
                        "if (A > 10) {\n"    // 4: P1
                        "A = 3;\n"           // 5: S2
                        "}\n"
                        "if (A > 100) {\n"   // 7: P2
                        "X = 2;\n"           // 8: S3
                        "}\n"
                        "print(X);\n"        // 10: S3's use
                        "}";
  DepVerdict Feas = runCase(FeasSrc, {15}, 7, 10, "X", /*Vexp=*/42);
  std::printf("\nTable 5(a) feasibility: VerifyDep(P2, X@print) = %s\n",
              depVerdictName(Feas));
  bool FeasOk = Feas != DepVerdict::NotImplicit;
  std::printf("paper: the (possibly infeasible) dependence IS exposed -- "
              "%s\n", FeasOk ? "reproduced" : "VIOLATED");

  // Table 5(b): A = 5; P1 false, P2 guarded by P1 also tests A. Switching
  // P1 alone makes P2 evaluate false, so no dependence is found although
  // one exists per Definition 2 -- the documented miss.
  const char *SoundSrc = "fn main() {\n"
                         "var A = input();\n" // 2
                         "var X = 1;\n"       // 3: S1
                         "if (A > 10) {\n"    // 4: P1
                         "if (A < 5) {\n"     // 5: P2
                         "X = 2;\n"           // 6: S2
                         "}\n"
                         "}\n"
                         "print(X);\n"        // 9: S4
                         "}";
  DepVerdict Sound = runCase(SoundSrc, {5}, 4, 9, "X", /*Vexp=*/42);
  std::printf("\nTable 5(b) soundness: VerifyDep(P1, X@print) = %s\n",
              depVerdictName(Sound));
  bool SoundOk = Sound == DepVerdict::NotImplicit;
  std::printf("paper: the dependence is MISSED (nested predicates share "
              "the faulty definition) -- %s\n",
              SoundOk ? "reproduced" : "VIOLATED");

  // Section 5's proposed remedy: perturb the faulty definition's value
  // instead of a branch outcome. Satisfiable variant of 5(b): the
  // correct A (20) would take both nested guards.
  std::printf("\nSection 5 extension: value perturbation on the nested-"
              "predicate case\n");
  const char *PerturbSrc = "fn main() {\n"
                           "var A = input();\n" // 2 (faulty: 5, correct: 20)
                           "var X = 1;\n"       // 3
                           "if (A > 10) {\n"    // 4
                           "if (A > 15) {\n"    // 5
                           "X = 2;\n"           // 6
                           "}\n"
                           "}\n"
                           "print(X);\n"        // 9
                           "}";
  bool PerturbOk = false;
  {
    DiagnosticEngine Diags;
    auto Prog = lang::parseAndCheck(PerturbSrc, Diags);
    if (Prog) {
      analysis::StaticAnalysis SA(*Prog);
      Interpreter Interp(*Prog, SA);
      ExecutionTrace T = Interp.run({5});
      slicing::OutputVerdicts V;
      V.WrongOutput = 0;
      V.ExpectedValue = 2;
      TraceIdx DefA = InvalidId, Use = InvalidId;
      ExprId Load = InvalidId;
      for (TraceIdx I = 0; I < T.size(); ++I) {
        if (T.step(I).Stmt == Prog->statementAtLine(2))
          DefA = I;
        if (T.step(I).Stmt == Prog->statementAtLine(9))
          Use = I;
      }
      for (const UseRecord &U : T.uses(Use))
        Load = U.LoadExpr;
      ValuePerturbVerifier Verifier(Interp, T, {5}, V,
                                    ValuePerturbVerifier::Config());
      auto R = Verifier.verify(DefA, Use, Load, {7, 12, 20, 25});
      std::printf("  candidates {7, 12, 20, 25}: exposed=%s, output "
                  "corrected=%s, witness=%lld, re-executions=%zu\n",
                  R.DependenceExposed ? "yes" : "no",
                  R.OutputCorrected ? "yes" : "no",
                  static_cast<long long>(R.WitnessValue), R.Reexecutions);
      PerturbOk = R.DependenceExposed && R.OutputCorrected;
    }
  }
  std::printf("paper: 'perturb the value of A instead of the branch "
              "outcome, which is much more expensive' -- dependence "
              "exposed at integer-domain cost: %s\n",
              PerturbOk ? "reproduced" : "VIOLATED");

  return (FeasOk && SoundOk && PerturbOk) ? 0 : 1;
}
