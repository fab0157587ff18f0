//===-- tools/eoec.cpp - The EOE command-line driver ----------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// A command-line front end over the whole pipeline, operating on Siml
// source files:
//
//   eoec run     <file> [--input 1,2,3] [--no-trace] [--max-steps N]
//   eoec trace   <file> [--input ...] [--save out.eoetrace]
//   eoec switch  <file> --line L [--instance K] [--input ...]
//   eoec slice   <file> --expected v1,v2,... [--input ...] [--relevant]
//   eoec locate  <file> --expected v1,v2,... --root-line N [--input ...]
//   eoec dot-cfg     <file> [--function name]        (GraphViz to stdout)
//   eoec dot-regions <file> [--input ...]
//   eoec dot-ddg     <file> [--input ...] [--expected ... for slice-only]
//
// `--expected` is the output sequence of a correct run (e.g. obtained by
// running the fixed program); the first mismatch defines the wrong
// output o-cross and the expected value vexp.
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "support/Diagnostic.h"
#include "support/EventTracer.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "interp/TraceIO.h"
#include "viz/Dot.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace eoe;

namespace {

struct CliOptions {
  std::string Command;
  std::string File;
  std::vector<int64_t> Input;
  std::vector<int64_t> Expected;
  /// Every shared knob (budgets, checkpoint options) lives in the
  /// unified bundle, parsed by support::parseCommonOption so the CLI
  /// cannot drift from the structs. Opt.Exec.Stats/Tracer are wired by main() when Cli asks
  /// for them.
  eoe::Options Opt;
  /// Observability requests (--stats[=json], --trace-out=FILE); the
  /// sinks are owned by main() and live through the whole command.
  support::CommonCliState Cli;
  uint32_t Line = 0;
  uint32_t Instance = 1;
  uint32_t RootLine = 0;
  bool NoTrace = false;
  bool Relevant = false;
  std::string Function = "main";
  std::string SavePath;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: eoec <command> <file.siml> [options]\n"
      "commands:\n"
      "  run      execute the program and print its outputs\n"
      "  trace    execute and dump the statement-instance trace\n"
      "  switch   re-execute with a predicate instance's outcome negated\n"
      "           (--line L [--instance K])\n"
      "  slice    dynamic slice of the wrong output (--expected ...;\n"
      "           add --relevant for the relevant slice)\n"
      "  locate   run the demand-driven implicit-dependence locator\n"
      "           (--expected ... --root-line N)\n"
      "options:\n"
      "  --input v1,v2,...     program input values (default: empty)\n"
      "  --expected v1,v2,...  correct-run outputs (slice/locate)\n"
      "  --line L              predicate source line (switch)\n"
      "  --instance K          1-based instance number (default 1)\n"
      "  --root-line N         known root cause line (locate)\n"
      "  --no-trace            run without dependence tracing (run)\n");
  std::fputs(support::commonOptionsHelp(), stderr);
}

/// Parses \p Text, the value of \p Flag, as comma-separated whole
/// decimal numbers into \p Out (blank fields are skipped); false, after
/// an error naming the flag, at the first field that is not one.
bool parseIntList(const char *Flag, const std::string &Text,
                  std::vector<int64_t> &Out) {
  Out.clear();
  for (const std::string &Part : splitString(Text, ',')) {
    std::string_view Field = trim(Part);
    if (Field.empty())
      continue;
    int64_t N = 0;
    if (!support::parseFlagNumber(Flag, Field, N))
      return false;
    Out.push_back(N);
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  if (Argc < 3)
    return false;
  Opts.Command = Argv[1];
  Opts.File = Argv[2];
  for (int I = 3; I < Argc; ++I) {
    // The shared knobs (budgets, checkpoint flags, observability) are
    // handled by the one parser every front end uses; only
    // command-specific flags remain below.
    switch (support::parseCommonOption(Argc, Argv, I, Opts.Opt, &Opts.Cli)) {
    case support::ParseResult::Ok:
      continue;
    case support::ParseResult::Error:
      return false;
    case support::ParseResult::NoMatch:
      break;
    }
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--input") {
      const char *V = Next();
      if (!V || !parseIntList("--input", V, Opts.Input))
        return false;
    } else if (Arg == "--expected") {
      const char *V = Next();
      if (!V || !parseIntList("--expected", V, Opts.Expected))
        return false;
    } else if (Arg == "--line") {
      const char *V = Next();
      if (!V || !support::parseFlagNumber("--line", V, Opts.Line))
        return false;
    } else if (Arg == "--instance") {
      const char *V = Next();
      if (!V || !support::parseFlagNumber("--instance", V, Opts.Instance))
        return false;
    } else if (Arg == "--root-line") {
      const char *V = Next();
      if (!V || !support::parseFlagNumber("--root-line", V, Opts.RootLine))
        return false;
    } else if (Arg == "--save") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SavePath = V;
    } else if (Arg == "--function") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.Function = V;
    } else if (Arg == "--no-trace") {
      Opts.NoTrace = true;
    } else if (Arg == "--relevant") {
      Opts.Relevant = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<lang::Program> loadProgram(const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Buffer.str(), Diags);
  if (!Prog)
    std::fprintf(stderr, "%s", Diags.str().c_str());
  return Prog;
}

const char *exitReasonName(interp::ExitReason Reason) {
  switch (Reason) {
  case interp::ExitReason::Finished:
    return "finished";
  case interp::ExitReason::StepLimit:
    return "step limit exceeded";
  case interp::ExitReason::RuntimeError:
    return "runtime error";
  }
  return "?";
}

/// slice/locate when the session found no wrong output value: "no
/// failure" and 0 only when the run finished with as many outputs as
/// --expected lists (all of them equal, then); otherwise the exit reason
/// and how many of the expected outputs the run produced, and 1.
int reportNoWrongValue(const CliOptions &Opts,
                       const core::DebugSession &Session) {
  const interp::ExecutionTrace &T = Session.trace();
  if (T.Exit == interp::ExitReason::Finished &&
      T.Outputs.size() == Opts.Expected.size()) {
    std::printf("no failure: outputs match the expected sequence\n");
    return 0;
  }
  std::printf("outputs do not match the expected sequence: %s, %zu of %zu "
              "expected outputs\n",
              exitReasonName(T.Exit), T.Outputs.size(), Opts.Expected.size());
  return 1;
}

int cmdRun(const CliOptions &Opts, const lang::Program &Prog) {
  analysis::StaticAnalysis SA(Prog);
  interp::Interpreter Interp(Prog, SA, Opts.Opt.Exec.Stats);
  interp::Interpreter::Options RunOpts;
  RunOpts.MaxSteps = Opts.Opt.Exec.MaxSteps;
  RunOpts.Trace = !Opts.NoTrace;
  interp::ExecutionTrace T;
  {
    support::EventTracer::Span Span(Opts.Opt.Exec.Tracer, "interpret", "interp");
    T = Interp.run(Opts.Input, RunOpts);
  }
  for (const interp::OutputEvent &E : T.Outputs)
    std::printf("%lld\n", static_cast<long long>(E.Value));
  std::fprintf(stderr, "[%s; exit value %lld; %zu instances; %zu outputs]\n",
               exitReasonName(T.Exit), static_cast<long long>(T.ExitValue),
               T.size(), T.Outputs.size());
  return T.Exit == interp::ExitReason::Finished ? 0 : 1;
}

int cmdTrace(const CliOptions &Opts, const lang::Program &Prog) {
  analysis::StaticAnalysis SA(Prog);
  interp::Interpreter Interp(Prog, SA, Opts.Opt.Exec.Stats);
  interp::Interpreter::Options RunOpts;
  RunOpts.MaxSteps = Opts.Opt.Exec.MaxSteps;
  interp::ExecutionTrace T;
  {
    support::EventTracer::Span Span(Opts.Opt.Exec.Tracer, "interpret", "interp");
    T = Interp.run(Opts.Input, RunOpts);
  }
  if (!Opts.SavePath.empty()) {
    std::ofstream Out(Opts.SavePath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   Opts.SavePath.c_str());
      return 2;
    }
    Out << interp::serializeTrace(T);
    std::fprintf(stderr, "[trace with %zu instances written to %s]\n",
                 T.size(), Opts.SavePath.c_str());
    return 0;
  }
  for (TraceIdx I = 0; I < T.size(); ++I) {
    const interp::StepRecord &Step = T.step(I);
    std::printf("%6u  parent=%-6s branch=%s  %s\n", I,
                Step.CdParent == InvalidId
                    ? "-"
                    : std::to_string(Step.CdParent).c_str(),
                Step.BranchTaken < 0 ? "-" : (Step.branch() ? "T" : "F"),
                lang::describeStmt(Prog, Step.Stmt).c_str());
  }
  return 0;
}

int cmdSwitch(const CliOptions &Opts, const lang::Program &Prog) {
  if (Opts.Line == 0) {
    std::fprintf(stderr, "error: switch requires --line\n");
    return 2;
  }
  StmtId Pred = Prog.statementAtLine(Opts.Line);
  if (!isValidId(Pred) || !Prog.statement(Pred)->isPredicate()) {
    std::fprintf(stderr, "error: no predicate on line %u\n", Opts.Line);
    return 2;
  }
  analysis::StaticAnalysis SA(Prog);
  interp::Interpreter Interp(Prog, SA, Opts.Opt.Exec.Stats);
  interp::ExecutionTrace Original, Switched;
  {
    support::EventTracer::Span Span(Opts.Opt.Exec.Tracer, "interpret", "interp");
    Original = Interp.run(Opts.Input);
  }
  {
    support::EventTracer::Span Span(Opts.Opt.Exec.Tracer, "reexec", "interp");
    Switched = Interp.runSwitched(Opts.Input, {Pred, Opts.Instance},
                                  Opts.Opt.Exec.MaxSteps);
  }

  std::printf("original outputs: ");
  for (int64_t V : Original.outputValues())
    std::printf("%lld ", static_cast<long long>(V));
  std::printf("\nswitched outputs: ");
  for (int64_t V : Switched.outputValues())
    std::printf("%lld ", static_cast<long long>(V));
  std::printf("\n");
  if (Switched.SwitchedStep == InvalidId) {
    std::fprintf(stderr, "warning: instance %u of line %u never executed\n",
                 Opts.Instance, Opts.Line);
    return 1;
  }
  std::fprintf(stderr, "[switched at instance index %u; %s]\n",
               Switched.SwitchedStep, exitReasonName(Switched.Exit));
  return 0;
}

int cmdSlice(const CliOptions &Opts, const lang::Program &Prog) {
  if (Opts.Expected.empty()) {
    std::fprintf(stderr, "error: slice requires --expected\n");
    return 2;
  }
  core::DebugSession::Config Config;
  Config.Opt = Opts.Opt;
  core::DebugSession Session(Prog, Opts.Input, Opts.Expected, {}, Config);
  if (!Session.hasFailure())
    return reportNoWrongValue(Opts, Session);
  const auto &V = Session.verdicts();
  std::printf("wrong output #%zu: %lld (expected %lld)\n", V.WrongOutput,
              static_cast<long long>(
                  Session.trace().Outputs[V.WrongOutput].Value),
              static_cast<long long>(V.ExpectedValue));

  std::vector<bool> Member;
  if (Opts.Relevant) {
    auto RS = Session.relevantSlice();
    std::printf("relevant slice: %zu statements / %zu instances\n",
                RS.Slice.Stats.StaticStmts, RS.Slice.Stats.DynamicInstances);
    Member = RS.Slice.Member;
  } else {
    auto DS = Session.dynamicSlice();
    std::printf("dynamic slice: %zu statements / %zu instances\n",
                DS.Stats.StaticStmts, DS.Stats.DynamicInstances);
    Member = DS.Member;
  }
  std::set<StmtId> Seen;
  for (TraceIdx I = 0; I < Member.size(); ++I) {
    if (!Member[I])
      continue;
    StmtId S = Session.trace().step(I).Stmt;
    if (Seen.insert(S).second)
      std::printf("  %s\n", lang::describeStmt(Prog, S).c_str());
  }
  return 0;
}

/// Oracle for the CLI: the user supplies the root line; nothing is ever
/// declared benign (fully automatic pruning).
class CliOracle : public slicing::Oracle {
public:
  explicit CliOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

int cmdLocate(const CliOptions &Opts, const lang::Program &Prog) {
  if (Opts.Expected.empty() || Opts.RootLine == 0) {
    std::fprintf(stderr,
                 "error: locate requires --expected and --root-line\n");
    return 2;
  }
  StmtId Root = Prog.statementAtLine(Opts.RootLine);
  if (!isValidId(Root)) {
    std::fprintf(stderr, "error: no statement on line %u\n", Opts.RootLine);
    return 2;
  }
  core::DebugSession::Config Config;
  // The whole unified knob bundle forwards in one assignment; the
  // parser already filled every budget/reuse/observability field.
  Config.Opt = Opts.Opt;
  core::DebugSession Session(Prog, Opts.Input, Opts.Expected, {}, Config);
  if (!Session.hasFailure())
    return reportNoWrongValue(Opts, Session);
  CliOracle Oracle(Root);
  core::LocateReport R = Session.locate(Oracle);
  std::printf("located: %s\n", R.RootCauseFound ? "yes" : "no");
  std::printf("iterations=%zu verifications=%zu re-executions=%zu "
              "edges=%zu (%zu strong)\n",
              R.Iterations, R.Verifications, R.Reexecutions, R.ExpandedEdges,
              R.StrongEdges);
  std::printf("implicit dependence edges:\n");
  for (const auto &E : Session.graph().implicitEdges())
    std::printf("  [%s] --> [%s]%s\n",
                lang::describeStmt(Prog, Session.trace().step(E.Use).Stmt)
                    .c_str(),
                lang::describeStmt(Prog, Session.trace().step(E.Pred).Stmt)
                    .c_str(),
                E.Strong ? "  (strong)" : "");
  std::printf("fault candidates (unique statements, ranked):\n");
  std::set<StmtId> Seen;
  for (TraceIdx I : R.FinalPrunedSlice) {
    StmtId S = Session.trace().step(I).Stmt;
    if (Seen.insert(S).second)
      std::printf("  %s%s\n", lang::describeStmt(Prog, S).c_str(),
                  S == Root ? "   <== root cause" : "");
  }
  return R.RootCauseFound ? 0 : 1;
}

int cmdDot(const CliOptions &Opts, const lang::Program &Prog) {
  if (Opts.Command == "dot-cfg") {
    FuncId F = Prog.findFunction(Opts.Function);
    if (!isValidId(F)) {
      std::fprintf(stderr, "error: no function '%s'\n",
                   Opts.Function.c_str());
      return 2;
    }
    analysis::StaticAnalysis SA(Prog);
    std::printf("%s", viz::cfgToDot(Prog, SA.cfg(F), *Prog.function(F))
                          .c_str());
    return 0;
  }

  analysis::StaticAnalysis SA(Prog);
  interp::Interpreter Interp(Prog, SA);
  interp::Interpreter::Options RunOpts;
  RunOpts.MaxSteps = Opts.Opt.Exec.MaxSteps;
  interp::ExecutionTrace T = Interp.run(Opts.Input, RunOpts);

  if (Opts.Command == "dot-regions") {
    align::RegionTree Tree(T);
    std::printf("%s", viz::regionTreeToDot(Prog, T, Tree).c_str());
    return 0;
  }
  // dot-ddg: optionally restricted to the wrong output's slice.
  ddg::DepGraph G(T);
  std::vector<bool> Member;
  const std::vector<bool> *Filter = nullptr;
  if (!Opts.Expected.empty()) {
    if (auto V = slicing::diffOutputs(T, Opts.Expected)) {
      Member = G.backwardClosure({T.Outputs.at(V->WrongOutput).Step},
                                 ddg::DepGraph::ClosureOptions());
      Filter = &Member;
    }
  }
  std::printf("%s", viz::depGraphToDot(Prog, G, Filter).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 2;
  }
  std::unique_ptr<lang::Program> Prog = loadProgram(Opts.File);
  if (!Prog)
    return 2;

  // The sinks outlive the command so the final dump sees everything.
  support::StatsRegistry Stats;
  support::EventTracer Tracer;
  if (Opts.Cli.Stats || !Opts.Cli.TraceOut.empty())
    Opts.Opt.Exec.Stats = &Stats;
  if (!Opts.Cli.TraceOut.empty())
    Opts.Opt.Exec.Tracer = &Tracer;

  int Rc = 2;
  bool Known = true;
  if (Opts.Command == "run")
    Rc = cmdRun(Opts, *Prog);
  else if (Opts.Command == "trace")
    Rc = cmdTrace(Opts, *Prog);
  else if (Opts.Command == "switch")
    Rc = cmdSwitch(Opts, *Prog);
  else if (Opts.Command == "slice")
    Rc = cmdSlice(Opts, *Prog);
  else if (Opts.Command == "locate")
    Rc = cmdLocate(Opts, *Prog);
  else if (Opts.Command == "dot-cfg" || Opts.Command == "dot-regions" ||
           Opts.Command == "dot-ddg")
    Rc = cmdDot(Opts, *Prog);
  else
    Known = false;
  if (!Known) {
    std::fprintf(stderr, "error: unknown command '%s'\n",
                 Opts.Command.c_str());
    usage();
    return 2;
  }

  if (!Opts.Cli.TraceOut.empty() && !Tracer.writeFile(Opts.Cli.TraceOut)) {
    std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                 Opts.Cli.TraceOut.c_str());
    return 2;
  }
  if (Opts.Cli.StatsJson)
    std::printf("%s\n", Stats.toJson().c_str());
  else if (Opts.Cli.Stats)
    std::fprintf(stderr, "%s", Stats.str().c_str());
  return Rc;
}
