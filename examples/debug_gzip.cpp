//===-- examples/debug_gzip.cpp - The Figure 1 session, end to end --------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Replays the paper's motivating debugging session on the mini-gzip
// workload: the ORIG_NAME flag never reaches the output header because
// save_orig_name is computed false. Shows every stage a user of the
// library would drive: output diffing, slicing baselines, single
// dependence verification, and the full demand-driven procedure.
//
//   $ ./examples/debug_gzip
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "lang/PrettyPrinter.h"
#include "workloads/Runner.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace eoe;
using namespace eoe::workloads;

int main() {
  std::printf("== Debugging mini-gzip (the paper's Figure 1) ==\n\n");
  const FaultInfo *Fault = findFault("gzip-v2-f3");
  if (!Fault) {
    std::fprintf(stderr, "gzip-v2-f3 not registered\n");
    return 1;
  }
  FaultRunner Runner(*Fault);
  if (!Runner.valid()) {
    std::fprintf(stderr, "fault did not reproduce\n");
    return 1;
  }
  const lang::Program &Prog = Runner.faultyProgram();
  std::printf("root cause: %s\n\n",
              lang::describeStmt(Prog, Runner.rootCause()).c_str());

  core::DebugSession Session(Prog, Fault->FailingInput,
                             Runner.expectedOutputs(), Fault->TestSuite);
  if (!Session.hasFailure()) {
    std::fprintf(stderr, "no observable failure\n");
    return 1;
  }

  // Stage 1: the observable failure.
  const auto &V = Session.verdicts();
  std::printf("stage 1 -- output diff: %zu correct values precede the "
              "wrong one;\n  output #%zu is %lld, expected %lld (the "
              "header's flags byte)\n\n",
              V.CorrectOutputs.size(), V.WrongOutput,
              static_cast<long long>(
                  Session.trace().Outputs[V.WrongOutput].Value),
              static_cast<long long>(V.ExpectedValue));

  // Stage 2: slicing baselines.
  auto DS = Session.dynamicSlice();
  auto RS = Session.relevantSlice();
  std::printf("stage 2 -- baselines:\n");
  std::printf("  DS %zu/%zu (root: %s), RS %zu/%zu (root: %s)\n\n",
              DS.Stats.StaticStmts, DS.Stats.DynamicInstances,
              DS.containsStmt(Session.trace(), Runner.rootCause()) ? "in"
                                                                   : "MISSING",
              RS.Slice.Stats.StaticStmts, RS.Slice.Stats.DynamicInstances,
              RS.Slice.containsStmt(Session.trace(), Runner.rootCause())
                  ? "in"
                  : "missing");

  // Stage 3: verify one implicit dependence by hand, like section 3.1:
  // does the flags value used by the header write depend on the
  // "if (save_orig_name)" guard?
  std::printf("stage 3 -- manual verification via predicate switching:\n");
  const auto &T = Session.trace();
  StmtId FlagsGuard = InvalidId;
  for (const lang::Stmt *S : Prog.statements()) {
    if (!S->isPredicate())
      continue;
    std::string Text = lang::stmtToString(S);
    if (Text.find("save_orig_name") != std::string::npos &&
        FlagsGuard == InvalidId)
      FlagsGuard = S->id();
  }
  TraceIdx GuardInst = InvalidId, FlagsUseInst = InvalidId;
  ExprId FlagsLoad = InvalidId;
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (T.step(I).Stmt == FlagsGuard && GuardInst == InvalidId)
      GuardInst = I;
    for (const interp::UseRecord &Use : T.uses(I)) {
      if (isValidId(Use.Var) && Prog.variable(Use.Var).Name == "flags" &&
          I > GuardInst && GuardInst != InvalidId &&
          FlagsUseInst == InvalidId) {
        FlagsUseInst = I;
        FlagsLoad = Use.LoadExpr;
      }
    }
  }
  if (GuardInst == InvalidId || FlagsUseInst == InvalidId) {
    std::fprintf(stderr, "could not find the Figure 1 sites\n");
    return 1;
  }
  core::DepVerdict Verdict =
      Session.verifier().verify(GuardInst, FlagsUseInst, FlagsLoad);
  std::printf("  VerifyDep(%s, flags@%s) = %s\n\n",
              lang::describeStmt(Prog, FlagsGuard).c_str(),
              lang::describeStmt(Prog, T.step(FlagsUseInst).Stmt).c_str(),
              core::depVerdictName(Verdict));

  // Stage 4: the full demand-driven procedure.
  ProtocolOracle Oracle(Runner.rootCause(), nullptr);
  core::LocateReport Report = Session.locate(Oracle);
  std::printf("stage 4 -- Algorithm 2: located=%s, %zu iterations, %zu "
              "verifications, %zu edges (%zu strong)\n",
              Report.RootCauseFound ? "yes" : "no", Report.Iterations,
              Report.Verifications, Report.ExpandedEdges,
              Report.StrongEdges);
  std::printf("\nfailure-inducing chain (OS):\n");
  std::vector<bool> Chain = Session.failureChain(Runner.rootCause());
  for (TraceIdx I = 0; I < T.size(); ++I)
    if (Chain[I])
      std::printf("  [%u] %s\n", I,
                  lang::describeStmt(Prog, T.step(I).Stmt).c_str());
  return Report.RootCauseFound && Verdict == core::DepVerdict::StrongImplicit
             ? 0
             : 1;
}
