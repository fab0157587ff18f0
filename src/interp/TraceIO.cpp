//===-- interp/TraceIO.cpp - Trace serialization --------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/TraceIO.h"

#include <sstream>

using namespace eoe;
using namespace eoe::interp;

namespace {

constexpr const char *Magic = "EOETRACE";
// Version 2 added the `firstinput` record (the input-independence
// watermark). Version-1 documents are still read: they predate the field,
// which then keeps its InvalidId default.
constexpr int Version = 2;
constexpr int MinVersion = 1;

const char *exitName(ExitReason Reason) {
  switch (Reason) {
  case ExitReason::Finished:
    return "finished";
  case ExitReason::StepLimit:
    return "steplimit";
  case ExitReason::RuntimeError:
    return "runtimeerror";
  }
  return "?";
}

bool parseExit(const std::string &Name, ExitReason &Out) {
  if (Name == "finished")
    Out = ExitReason::Finished;
  else if (Name == "steplimit")
    Out = ExitReason::StepLimit;
  else if (Name == "runtimeerror")
    Out = ExitReason::RuntimeError;
  else
    return false;
  return true;
}

bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

} // namespace

std::string eoe::interp::serializeTrace(const ExecutionTrace &Trace) {
  std::ostringstream OS;
  OS << Magic << ' ' << Version << '\n';
  OS << "exit " << exitName(Trace.Exit) << ' ' << Trace.ExitValue << '\n';
  OS << "switched ";
  if (Trace.SwitchedStep == InvalidId)
    OS << '-';
  else
    OS << Trace.SwitchedStep;
  OS << '\n';
  OS << "firstinput ";
  if (Trace.FirstInputStep == InvalidId)
    OS << '-';
  else
    OS << Trace.FirstInputStep;
  OS << '\n';

  OS << "steps " << Trace.Steps.size() << '\n';
  for (const StepRecord &Step : Trace.Steps) {
    OS << "s " << Step.Stmt << ' ';
    if (Step.CdParent == InvalidId)
      OS << '-';
    else
      OS << Step.CdParent;
    OS << ' ' << Step.InstanceNo << ' ' << static_cast<int>(Step.BranchTaken)
       << ' ' << Step.Value << ' ' << Step.NumUses << ' ' << Step.NumDefs
       << '\n';
    for (const UseRecord &Use : Trace.uses(Step)) {
      OS << "u " << Use.Loc.Raw << ' ';
      if (Use.Def == InvalidId)
        OS << '-';
      else
        OS << Use.Def;
      OS << ' ' << Use.LoadExpr << ' ';
      if (Use.Var == InvalidId)
        OS << '-';
      else
        OS << Use.Var;
      OS << ' ' << Use.Value << '\n';
    }
    for (const DefRecord &Def : Trace.defs(Step)) {
      OS << "d " << Def.Loc.Raw << ' ';
      if (Def.Var == InvalidId)
        OS << '-';
      else
        OS << Def.Var;
      OS << ' ' << Def.Value << '\n';
    }
  }

  OS << "outputs " << Trace.Outputs.size() << '\n';
  for (const OutputEvent &E : Trace.Outputs)
    OS << "o " << E.Step << ' ' << E.ArgNo << ' ' << E.ArgExpr << ' '
       << E.Value << '\n';
  return OS.str();
}

namespace {

/// Reads a uint32 field that may be the '-' sentinel.
bool readIdx(std::istream &IS, uint32_t &Out) {
  std::string Tok;
  if (!(IS >> Tok))
    return false;
  if (Tok == "-") {
    Out = InvalidId;
    return true;
  }
  char *End = nullptr;
  unsigned long Value = std::strtoul(Tok.c_str(), &End, 10);
  if (End == Tok.c_str() || *End != '\0')
    return false;
  Out = static_cast<uint32_t>(Value);
  return true;
}

} // namespace

std::optional<ExecutionTrace>
eoe::interp::deserializeTrace(const std::string &Text, std::string *Error) {
  std::istringstream IS(Text);
  std::string Word;
  int Ver = 0;
  if (!(IS >> Word >> Ver) || Word != Magic) {
    fail(Error, "bad header");
    return std::nullopt;
  }
  if (Ver < MinVersion || Ver > Version) {
    fail(Error, "unsupported version " + std::to_string(Ver));
    return std::nullopt;
  }

  ExecutionTrace Trace;
  std::string ExitWord;
  if (!(IS >> Word >> ExitWord >> Trace.ExitValue) || Word != "exit" ||
      !parseExit(ExitWord, Trace.Exit)) {
    fail(Error, "bad exit record");
    return std::nullopt;
  }
  if (!(IS >> Word) || Word != "switched" ||
      !readIdx(IS, Trace.SwitchedStep)) {
    fail(Error, "bad switched record");
    return std::nullopt;
  }
  if (Ver >= 2) {
    if (!(IS >> Word) || Word != "firstinput" ||
        !readIdx(IS, Trace.FirstInputStep)) {
      fail(Error, "bad firstinput record");
      return std::nullopt;
    }
  }

  size_t NumSteps = 0;
  if (!(IS >> Word >> NumSteps) || Word != "steps") {
    fail(Error, "bad steps header");
    return std::nullopt;
  }
  Trace.Steps.reserve(NumSteps);
  for (size_t I = 0; I < NumSteps; ++I) {
    StepRecord Step;
    Step.UseBegin = static_cast<uint32_t>(Trace.Uses.size());
    Step.DefBegin = static_cast<uint32_t>(Trace.Defs.size());
    int Branch = 0;
    size_t NumUses = 0, NumDefs = 0;
    if (!(IS >> Word) || Word != "s" || !readIdx(IS, Step.Stmt) ||
        !readIdx(IS, Step.CdParent) || !(IS >> Step.InstanceNo) ||
        !(IS >> Branch) || !(IS >> Step.Value) || !(IS >> NumUses) ||
        !(IS >> NumDefs)) {
      fail(Error, "bad step record " + std::to_string(I));
      return std::nullopt;
    }
    Step.BranchTaken = static_cast<int8_t>(Branch);
    if (Step.CdParent != InvalidId && Step.CdParent >= I) {
      fail(Error, "step " + std::to_string(I) + " parent out of order");
      return std::nullopt;
    }
    for (size_t U = 0; U < NumUses; ++U) {
      UseRecord Use;
      if (!(IS >> Word) || Word != "u" || !(IS >> Use.Loc.Raw) ||
          !readIdx(IS, Use.Def) || !readIdx(IS, Use.LoadExpr) ||
          !readIdx(IS, Use.Var) || !(IS >> Use.Value)) {
        fail(Error, "bad use record in step " + std::to_string(I));
        return std::nullopt;
      }
      Trace.Uses.push_back(Use);
    }
    for (size_t D = 0; D < NumDefs; ++D) {
      DefRecord Def;
      if (!(IS >> Word) || Word != "d" || !(IS >> Def.Loc.Raw) ||
          !readIdx(IS, Def.Var) || !(IS >> Def.Value)) {
        fail(Error, "bad def record in step " + std::to_string(I));
        return std::nullopt;
      }
      Trace.Defs.push_back(Def);
    }
    Step.NumUses = static_cast<uint32_t>(NumUses);
    Step.NumDefs = static_cast<uint32_t>(NumDefs);
    Trace.Steps.push_back(Step);
  }

  size_t NumOutputs = 0;
  if (!(IS >> Word >> NumOutputs) || Word != "outputs") {
    fail(Error, "bad outputs header");
    return std::nullopt;
  }
  for (size_t I = 0; I < NumOutputs; ++I) {
    OutputEvent E;
    if (!(IS >> Word) || Word != "o" || !readIdx(IS, E.Step) ||
        !(IS >> E.ArgNo) || !readIdx(IS, E.ArgExpr) || !(IS >> E.Value)) {
      fail(Error, "bad output record " + std::to_string(I));
      return std::nullopt;
    }
    if (E.Step != InvalidId && E.Step >= Trace.Steps.size()) {
      fail(Error, "output " + std::to_string(I) + " dangling step index");
      return std::nullopt;
    }
    Trace.Outputs.push_back(E);
  }

  if (Trace.FirstInputStep != InvalidId &&
      Trace.FirstInputStep >= Trace.Steps.size()) {
    fail(Error, "firstinput dangling step index");
    return std::nullopt;
  }

  // Use records may reference defining instances *later* in the trace
  // (call-site reads of return values), so validate them at the end.
  for (size_t I = 0; I < Trace.Steps.size(); ++I)
    for (const UseRecord &Use : Trace.uses(static_cast<TraceIdx>(I)))
      if (Use.Def != InvalidId && Use.Def >= Trace.Steps.size()) {
        fail(Error, "step " + std::to_string(I) + " dangling def index");
        return std::nullopt;
      }
  return Trace;
}
