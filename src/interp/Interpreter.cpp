//===-- interp/Interpreter.cpp - Tracing interpreter -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::lang;

namespace {

/// Two's-complement wrapping arithmetic: Siml semantics define + - * to
/// wrap (like hardware), avoiding undefined behaviour in the host.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Statement-level control flow outcome.
enum class Flow { Normal, Break, Continue, Return, Halt };

/// One activation record: interp::ExecFrame, pooled by the run's
/// ExecContext so recursive calls stop malloc-thrashing across the
/// verifier's many re-executions.
using Frame = ExecFrame;

/// The mutable interpretation engine for a single run. All reusable
/// per-run state (shadow memory, instance counters, the frame freelist)
/// lives in the caller-provided ExecContext; the engine itself only owns
/// the trace it is building.
class Engine {
public:
  Engine(const Program &Prog, const analysis::StaticAnalysis &SA,
         const std::vector<int64_t> &Input, const Interpreter::Options &Opts,
         ExecContext &Ctx)
      : Prog(Prog), SA(SA), Input(Input), Opts(Opts), Ctx(Ctx),
        GlobalMem(Ctx.GlobalMem), GlobalLastDef(Ctx.GlobalLastDef),
        InstCount(Ctx.InstCount), Tracing(Opts.Trace),
        Collecting(Opts.Trace && Opts.Checkpoints) {
    Ctx.beginRun(Prog.statements().size(), Prog.globalSlots());
  }

  ExecutionTrace run() {
    Trace.Steps.reserve(Ctx.stepsHint());
    Trace.Uses.reserve(Ctx.usesHint());
    Trace.Defs.reserve(Ctx.defsHint());
    initGlobals();
    if (Trace.Exit == ExitReason::Finished) {
      Frame Main = makeFrame(*Prog.function(Prog.mainFunction()), InvalidId);
      if (Collecting)
        Cont.push_back({&Main, InvalidId, 0});
      Flow F = execBody(Prog.function(Prog.mainFunction())->body(), Main);
      if (Collecting)
        Cont.pop_back();
      if (F == Flow::Return || F == Flow::Normal)
        Trace.ExitValue = Main.RetVal;
      Ctx.recycleFrame(std::move(Main));
    }
    Ctx.noteTraceSize(Trace.Steps.size(), Trace.Uses.size(),
                      Trace.Defs.size());
    return std::move(Trace);
  }

  /// Resumes the checkpointed execution. The returned trace holds only
  /// the records this run makes -- the call records open at CP's capture,
  /// listed in \p Reopened, then the steps from CP.Index on; the prefix
  /// stays in \p From (the trace of the run that captured \p CP). Read
  /// together they equal a full run() whose switch/perturbation targets
  /// lie at or after CP.Index, step for step -- see docs/checkpointing.md.
  /// The state restore is timed into \p SpliceTime.
  ExecutionTrace resume(const Checkpoint &CP, const ExecutionTrace &From,
                        support::StatTimer *SpliceTime,
                        std::vector<TraceIdx> &Reopened) {
    assert(Tracing && "resume requires a tracing run");
    assert(!Collecting && "checkpoints are captured by full runs only");
    assert(!CP.Frames.empty());
    {
      support::ScopedTimer Timed(SpliceTime);
      restore(CP, From);
    }

    // Each frame is restored as the resumed run re-enters it.
    Frame Main = CP.Frames.front().State;
    Flow F = resumeFrame(CP, /*Level=*/0, Main);
    if (F == Flow::Return || F == Flow::Normal)
      Trace.ExitValue = Main.RetVal;
    Ctx.recycleFrame(std::move(Main));
    // Like run(), leave the context the run's logical sizes, so a context
    // that only ever resumes reserves too: the source's entries below the
    // capture, taken pro rata, plus the run's own.
    auto SrcShare = [&](size_t N) {
      return From.Steps.empty() ? 0 : N * Base / From.Steps.size();
    };
    Ctx.noteTraceSize(Shift + Trace.Steps.size(),
                      SrcShare(From.Uses.size()) + Trace.Uses.size(),
                      SrcShare(From.Defs.size()) + Trace.Defs.size());
    Reopened = std::move(OpenBelow);
    return std::move(Trace);
  }

private:
  /// The state restore of resume(): afterwards the engine is where a full
  /// run was at CP's capture, except that the trace holds only the call
  /// records then open.
  void restore(const Checkpoint &CP, const ExecutionTrace &From) {
    // The context's hints are full-run sizes: scale them to the steps
    // past the capture.
    if (Ctx.stepsHint() > CP.Index) {
      const size_t Rest = Ctx.stepsHint() - CP.Index;
      Trace.Steps.reserve(Rest + CP.Frames.size());
      Trace.Uses.reserve(Ctx.usesHint() * Rest / Ctx.stepsHint());
      Trace.Defs.reserve(Ctx.defsHint() * Rest / Ctx.stepsHint());
    }
    // The call records still open at capture are this run's to complete:
    // they open its trace, outermost first, and their uses and defs so
    // far go back on the held stack; each reopens when its resumed callee
    // returns. Every other record below CP.Index is From's.
    Base = CP.Index;
    for (const CheckpointFrame &CF : CP.Frames)
      if (CF.PendingRec != InvalidId) {
        assert((OpenBelow.empty() || OpenBelow.back() < CF.PendingRec) &&
               "outer call records precede inner ones");
        OpenBelow.push_back(CF.PendingRec);
        Trace.Steps.push_back(CF.PendingSnapshot.Step);
      }
    Shift = Base - static_cast<TraceIdx>(OpenBelow.size());
    for (const CheckpointFrame &CF : CP.Frames)
      if (CF.PendingRec != InvalidId)
        hold(CF.PendingRec, CF.PendingSnapshot.Uses, CF.PendingSnapshot.Defs);
    SrcOutputs = CP.OutputCount;
    // The markers below the capture are From's (determinism); the prefix
    // read input iff From's first read lies in it.
    if (From.SwitchedStep != InvalidId && From.SwitchedStep < CP.Index)
      Trace.SwitchedStep = From.SwitchedStep;
    if (From.FirstInputStep != InvalidId && From.FirstInputStep < CP.Index) {
      Trace.FirstInputStep = From.FirstInputStep;
      InputSeen = true;
    }

    // Restore the interpreter state (beginRun() reset it in the ctor).
    GlobalMem = CP.GlobalMem;
    GlobalLastDef = CP.GlobalLastDef;
    InstCount = CP.InstCount;
    InputCursor = CP.InputCursor;
    StepCount = CP.StepCount;
    FrameCounter = CP.FrameCounter;
  }

  const Program &Prog;
  const analysis::StaticAnalysis &SA;
  const std::vector<int64_t> &Input;
  const Interpreter::Options &Opts;
  ExecContext &Ctx;

  /// The records this run makes. A full run's step I is Trace.Steps[I];
  /// a resumed run's are its reopened call records (OpenBelow) followed
  /// by its steps from Base on -- see rec().
  ExecutionTrace Trace;
  TraceIdx Base = 0;
  TraceIdx Shift = 0;
  std::vector<TraceIdx> OpenBelow;
  /// Outputs emitted before a resume's capture (they stay in its source).
  size_t SrcOutputs = 0;
  std::vector<int64_t> &GlobalMem;
  std::vector<TraceIdx> &GlobalLastDef;
  std::vector<uint32_t> &InstCount;
  size_t InputCursor = 0;
  /// True once any input() expression has been evaluated (even one that
  /// read past the end of the input vector), so the first one sets
  /// ExecutionTrace::FirstInputStep. InputCursor == 0 is not equivalent
  /// -- an exhausted read returns -1 without moving the cursor.
  bool InputSeen = false;
  uint64_t FrameCounter = 0;
  uint64_t StepCount = 0;
  bool Halted = false;
  bool Tracing;

  //===--------------------------------------------------------------------===//
  // Checkpoint capture state. Engaged only when Opts.Checkpoints names a
  // plan; otherwise every `if (Collecting)` below is a single never-taken
  // branch on a constant, so ordinary runs pay nothing.
  //===--------------------------------------------------------------------===//

  /// One live activation on the host stack, mirrored so a capture can
  /// walk the continuation without unwinding.
  struct ContLevel {
    Frame *F;
    /// The call-site record that created this frame (InvalidId for main).
    TraceIdx PendingRec;
    /// Index of this frame's first entry in Path.
    size_t PathStart;
  };

  /// True when this run captures checkpoints; it then maintains the
  /// continuation mirror (Cont/Path/DirtyCalls) a capture describes.
  const bool Collecting;
  /// Number of suspended calls that are not statement-root calls; while
  /// non-zero, a capture cannot describe the continuation and due
  /// captures wait for a clean instance.
  unsigned DirtyCalls = 0;
  /// Set by execStmt just before evaluating a statement whose root
  /// expression is exactly a call; consumed by evalCall.
  bool NextCallClean = false;
  /// The flattened descent path across all live frames; ContLevel's
  /// PathStart partitions it per frame.
  std::vector<ResumeEntry> Path;
  std::vector<ContLevel> Cont;

  //===--------------------------------------------------------------------===//
  // Trace recording helpers
  //===--------------------------------------------------------------------===//

  /// The record of step \p I, which this run makes: a step from Base on,
  /// or a call record reopened by a resume.
  StepRecord &rec(TraceIdx I) {
    if (I >= Base)
      return Trace.Steps[I - Shift];
    auto It = std::lower_bound(OpenBelow.begin(), OpenBelow.end(), I);
    assert(It != OpenBelow.end() && *It == I && "record in the source");
    return Trace.Steps[It - OpenBelow.begin()];
  }
  const StepRecord &rec(TraceIdx I) const {
    return const_cast<Engine *>(this)->rec(I);
  }

  /// Trace index of the next step to begin.
  TraceIdx nextIndex() const {
    return static_cast<TraceIdx>(Trace.Steps.size()) + Shift;
  }

  /// Capture hook, called at the top of beginStep: at a predicate
  /// instance where the plan has a capture due and admits it, snapshot the
  /// full interpreter state. Capturing *before* the instance-count bump
  /// means a resumed run re-executes this statement, so a switch targeting
  /// this predicate instance triggers naturally.
  void maybeCapture(const Stmt *S) {
    CheckpointPlan &Plan = *Opts.Checkpoints;
    if (StepCount < Plan.NextAt || !S->isPredicate() ||
        !Plan.admit(StepCount, DirtyCalls > 0, Trace.recordBytes()))
      return;
    support::ScopedTimer Timed(Plan.CaptureTime);
    Plan.take(StepCount, makeSnapshot());
  }

  /// Snapshots the full interpreter state at the current (clean)
  /// beginStep instant. Requires DirtyCalls == 0 and the Cont/Path
  /// mirror.
  Checkpoint makeSnapshot() const {
    // Every suspended call is a statement-root call with its arguments
    // already in its callee's frame.
    assert(Ctx.ArgStack.empty() && "capture inside an argument list");
    Checkpoint CP;
    CP.Index = nextIndex();
    CP.InputCursor = InputCursor;
    CP.StepCount = StepCount;
    CP.FrameCounter = FrameCounter;
    CP.OutputCount = SrcOutputs + Trace.Outputs.size();
    CP.GlobalMem = GlobalMem;
    CP.GlobalLastDef = GlobalLastDef;
    CP.InstCount = InstCount;
    CP.Frames.reserve(Cont.size());
    for (size_t L = 0; L < Cont.size(); ++L) {
      CheckpointFrame CF;
      CF.State = *Cont[L].F;
      size_t PathEnd =
          L + 1 < Cont.size() ? Cont[L + 1].PathStart : Path.size();
      CF.Path.assign(Path.begin() + Cont[L].PathStart, Path.begin() + PathEnd);
      if (L + 1 < Cont.size()) {
        CF.PendingRec = Cont[L + 1].PendingRec;
        CF.PendingSnapshot = heldStep(L, CF.PendingRec);
      }
      CP.Frames.push_back(std::move(CF));
    }
    return CP;
  }

  /// Starts a StepRecord for one execution of \p S in \p F, resolving the
  /// dynamic control-dependence parent. Returns the record's index, or
  /// InvalidId in non-tracing runs (which only count steps).
  TraceIdx beginStep(const Stmt *S, Frame &F) {
    if (Collecting)
      maybeCapture(S);
    ++InstCount[S->id()];
    if (++StepCount > Opts.MaxSteps)
      halt(ExitReason::StepLimit);
    if (!Tracing)
      return InvalidId;
    TraceIdx Idx = openStep(S->id(), InstCount[S->id()]);
    Trace.Steps.back().CdParent = resolveCdParent(S->id(), F);
    if (S->isPredicate())
      F.LastPredInstance[SA.predicateSlot(S->id())] = Idx;
    return Idx;
  }

  /// Appends the record of a new statement instance, open at the arrays'
  /// tails: every use and def recorded until the next step begins is its.
  TraceIdx openStep(StmtId Stmt, uint32_t InstanceNo) {
    StepRecord Rec;
    Rec.Stmt = Stmt;
    Rec.InstanceNo = InstanceNo;
    Rec.UseBegin = static_cast<uint32_t>(Trace.Uses.size());
    Rec.DefBegin = static_cast<uint32_t>(Trace.Defs.size());
    const TraceIdx Idx = nextIndex();
    Trace.Steps.push_back(Rec);
    return Idx;
  }

  void recordUse(TraceIdx Rec, const UseRecord &U) {
    StepRecord &S = rec(Rec);
    assert(S.UseBegin + S.NumUses == Trace.Uses.size() &&
           "uses are recorded on the open record only");
    Trace.Uses.push_back(U);
    ++S.NumUses;
  }

  void recordDef(TraceIdx Rec, const DefRecord &D) {
    StepRecord &S = rec(Rec);
    assert(S.DefBegin + S.NumDefs == Trace.Defs.size() &&
           "defs are recorded on the open record only");
    Trace.Defs.push_back(D);
    ++S.NumDefs;
  }

  /// Pushes \p Rec on the held stack with the given entries: the record
  /// stays open while the call it makes records the callee's steps.
  void hold(TraceIdx Rec, std::span<const UseRecord> Uses,
            std::span<const DefRecord> Defs) {
    Ctx.HeldStarts.push_back({Ctx.HeldUses.size(), Ctx.HeldDefs.size()});
    Ctx.HeldUses.insert(Ctx.HeldUses.end(), Uses.begin(), Uses.end());
    Ctx.HeldDefs.insert(Ctx.HeldDefs.end(), Defs.begin(), Defs.end());
    StepRecord &S = rec(Rec);
    S.NumUses = static_cast<uint32_t>(Uses.size());
    S.NumDefs = static_cast<uint32_t>(Defs.size());
  }

  /// Sets the open record \p Rec aside before its call runs the callee:
  /// its entries so far move from the arrays' tails to the held stack.
  void suspend(TraceIdx Rec) {
    const StepRecord &S = rec(Rec);
    hold(Rec, std::span<const UseRecord>(Trace.Uses).subspan(S.UseBegin),
         std::span<const DefRecord>(Trace.Defs).subspan(S.DefBegin));
    Trace.Uses.resize(S.UseBegin);
    Trace.Defs.resize(S.DefBegin);
  }

  /// Makes the innermost held record \p Rec the open record again once
  /// its callee has returned: its entries move back to the arrays' tails.
  void reopen(TraceIdx Rec) {
    auto [UseStart, DefStart] = Ctx.HeldStarts.back();
    Ctx.HeldStarts.pop_back();
    StepRecord &S = rec(Rec);
    assert(S.NumUses == Ctx.HeldUses.size() - UseStart &&
           S.NumDefs == Ctx.HeldDefs.size() - DefStart);
    S.UseBegin = static_cast<uint32_t>(Trace.Uses.size());
    S.DefBegin = static_cast<uint32_t>(Trace.Defs.size());
    Trace.Uses.insert(Trace.Uses.end(), Ctx.HeldUses.begin() + UseStart,
                      Ctx.HeldUses.end());
    Trace.Defs.insert(Trace.Defs.end(), Ctx.HeldDefs.begin() + DefStart,
                      Ctx.HeldDefs.end());
    Ctx.HeldUses.resize(UseStart);
    Ctx.HeldDefs.resize(DefStart);
  }

  /// The \p Level-th held record (outermost first), \p Rec, as it stands:
  /// what a snapshot keeps of a suspended call's record.
  OpenStep heldStep(size_t Level, TraceIdx Rec) const {
    assert(Level < Ctx.HeldStarts.size());
    auto [UseStart, DefStart] = Ctx.HeldStarts[Level];
    const StepRecord &S = rec(Rec);
    OpenStep P;
    P.Step = S;
    P.Step.UseBegin = P.Step.NumUses = P.Step.DefBegin = P.Step.NumDefs = 0;
    P.Uses.assign(Ctx.HeldUses.begin() + UseStart,
                  Ctx.HeldUses.begin() + UseStart + S.NumUses);
    P.Defs.assign(Ctx.HeldDefs.begin() + DefStart,
                  Ctx.HeldDefs.begin() + DefStart + S.NumDefs);
    return P;
  }

  /// The latest instance in \p F of one of \p S's static
  /// control-dependence parents; the call site when none has executed.
  TraceIdx resolveCdParent(StmtId S, const Frame &F) const {
    TraceIdx Best = InvalidId;
    for (uint32_t Slot : SA.cdParentSlots(S)) {
      const TraceIdx Last = F.LastPredInstance[Slot];
      if (Last != InvalidId && (Best == InvalidId || Last > Best))
        Best = Last;
    }
    return Best != InvalidId ? Best : F.CallSite;
  }

  /// Applies an active value perturbation at this definition instance.
  int64_t maybePerturb(StmtId Sid, TraceIdx Rec, int64_t Value) {
    if (Opts.Perturb && Opts.Perturb->Stmt == Sid &&
        Opts.Perturb->InstanceNo == InstCount[Sid]) {
      if (Trace.SwitchedStep == InvalidId)
        Trace.SwitchedStep = Rec;
      return Opts.Perturb->Value;
    }
    return Value;
  }

  void halt(ExitReason Reason) {
    if (!Halted) {
      Halted = true;
      Trace.Exit = Reason;
    }
  }

  //===--------------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------------===//

  void initGlobals() {
    // GlobalMem / GlobalLastDef / InstCount were reset by beginRun().
    for (VarDeclStmt *G : Prog.globals()) {
      const VarInfo &Info = Prog.variable(G->var());
      TraceIdx Idx = InvalidId;
      ++InstCount[G->id()];
      if (Tracing)
        Idx = openStep(G->id(), InstCount[G->id()]);
      if (Info.isArray())
        continue; // Array elements start as undefined zeros.
      int64_t Init = 0;
      if (G->init()) {
        [[maybe_unused]] bool IsConst = evaluateConstant(G->init(), Init);
        assert(IsConst && "non-constant global initializer survived Sema");
      }
      store(MemLoc::global(Info.Slot), G->var(), Init, Idx);
    }
  }

  /// Writes \p Value to \p Loc on behalf of instance \p Writer and records
  /// the definition (tracing runs only).
  void store(MemLoc Loc, VarId Var, int64_t Value, TraceIdx Writer) {
    if (Loc.isGlobal()) {
      GlobalMem[Loc.slot()] = Value;
      if (Tracing)
        GlobalLastDef[Loc.slot()] = Writer;
    }
    if (Writer != InvalidId)
      recordDef(Writer, {Loc, Var, Value});
  }

  void storeFrame(Frame &F, uint32_t Slot, VarId Var, int64_t Value,
                  TraceIdx Writer) {
    F.Mem[Slot] = Value;
    if (Tracing)
      F.LastDef[Slot] = Writer;
    if (Writer != InvalidId)
      recordDef(Writer, {MemLoc::frame(F.Serial, Slot), Var, Value});
  }

  /// Reads a location, recording the use on instance \p Reader.
  int64_t load(Frame &F, const VarInfo &Info, uint32_t SlotOffset, VarId Var,
               ExprId LoadExpr, TraceIdx Reader) {
    int64_t Value;
    MemLoc Loc;
    TraceIdx Def;
    if (Info.isGlobal()) {
      uint32_t Slot = Info.Slot + SlotOffset;
      Loc = MemLoc::global(Slot);
      Value = GlobalMem[Slot];
      Def = Tracing ? GlobalLastDef[Slot] : InvalidId;
    } else {
      uint32_t Slot = Info.Slot + SlotOffset;
      Loc = MemLoc::frame(F.Serial, Slot);
      Value = F.Mem[Slot];
      Def = Tracing ? F.LastDef[Slot] : InvalidId;
    }
    if (Reader != InvalidId)
      recordUse(Reader, {Loc, Def, LoadExpr, Var, Value});
    return Value;
  }

  Frame makeFrame(const Function &Func, TraceIdx CallSite) {
    Frame F = Ctx.takeFrame();
    F.Serial = ++FrameCounter;
    F.Func = &Func;
    F.Mem.assign(Func.frameSlots(), 0);
    F.LastDef.assign(Func.frameSlots(), InvalidId);
    F.LastPredInstance.assign(SA.predicateCount(Func.id()), InvalidId);
    F.CallSite = CallSite;
    return F;
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  int64_t evalExpr(const Expr *E, Frame &F, TraceIdx Rec) {
    if (Halted)
      return 0;
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      return cast<IntLitExpr>(E)->value();
    case Expr::Kind::VarRef: {
      const auto *Ref = cast<VarRefExpr>(E);
      const VarInfo &Info = Prog.variable(Ref->var());
      return load(F, Info, 0, Ref->var(), Ref->id(), Rec);
    }
    case Expr::Kind::ArrayRef: {
      const auto *Ref = cast<ArrayRefExpr>(E);
      int64_t Index = evalExpr(Ref->index(), F, Rec);
      if (Halted)
        return 0;
      const VarInfo &Info = Prog.variable(Ref->var());
      if (Index < 0 || Index >= Info.ArraySize) {
        halt(ExitReason::RuntimeError);
        return 0;
      }
      return load(F, Info, static_cast<uint32_t>(Index), Ref->var(), Ref->id(),
                  Rec);
    }
    case Expr::Kind::Input: {
      if (!InputSeen) {
        InputSeen = true;
        if (Rec != InvalidId)
          Trace.FirstInputStep = Rec;
      }
      if (InputCursor < Input.size())
        return Input[InputCursor++];
      return -1;
    }
    case Expr::Kind::Call:
      return evalCall(cast<CallExpr>(E), F, Rec);
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      int64_t Sub = evalExpr(U->sub(), F, Rec);
      switch (U->op()) {
      case UnaryOp::Neg:
        return wrapNeg(Sub);
      case UnaryOp::Not:
        return Sub == 0 ? 1 : 0;
      }
      return 0;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      // Short-circuit evaluation for && and ||.
      if (B->op() == BinaryOp::And) {
        int64_t L = evalExpr(B->lhs(), F, Rec);
        if (Halted || L == 0)
          return 0;
        return evalExpr(B->rhs(), F, Rec) != 0 ? 1 : 0;
      }
      if (B->op() == BinaryOp::Or) {
        int64_t L = evalExpr(B->lhs(), F, Rec);
        if (Halted)
          return 0;
        if (L != 0)
          return 1;
        return evalExpr(B->rhs(), F, Rec) != 0 ? 1 : 0;
      }
      int64_t L = evalExpr(B->lhs(), F, Rec);
      int64_t R = evalExpr(B->rhs(), F, Rec);
      if (Halted)
        return 0;
      switch (B->op()) {
      case BinaryOp::Add:
        return wrapAdd(L, R);
      case BinaryOp::Sub:
        return wrapSub(L, R);
      case BinaryOp::Mul:
        return wrapMul(L, R);
      case BinaryOp::Div:
        if (R == 0 || (L == INT64_MIN && R == -1)) {
          halt(ExitReason::RuntimeError);
          return 0;
        }
        return L / R;
      case BinaryOp::Mod:
        if (R == 0 || (L == INT64_MIN && R == -1)) {
          halt(ExitReason::RuntimeError);
          return 0;
        }
        return L % R;
      case BinaryOp::Eq:
        return L == R;
      case BinaryOp::Ne:
        return L != R;
      case BinaryOp::Lt:
        return L < R;
      case BinaryOp::Le:
        return L <= R;
      case BinaryOp::Gt:
        return L > R;
      case BinaryOp::Ge:
        return L >= R;
      case BinaryOp::And:
      case BinaryOp::Or:
        break; // Handled above.
      }
      return 0;
    }
    }
    return 0;
  }

  int64_t evalCall(const CallExpr *Call, Frame &F, TraceIdx Rec) {
    bool Clean = false;
    if (Collecting) {
      // Consume the flag here so calls nested in the arguments see false.
      Clean = NextCallClean && Rec != InvalidId;
      NextCallClean = false;
    }
    const Function &Callee = *Prog.function(Call->callee());
    // The argument values wait on the context's stack until the callee's
    // frame holds them; calls nested in the arguments push above them.
    std::vector<int64_t> &Args = Ctx.ArgStack;
    const size_t ArgBase = Args.size();
    for (const Expr *Arg : Call->args())
      Args.push_back(evalExpr(Arg, F, Rec));
    if (Halted) {
      Args.resize(ArgBase);
      return 0;
    }

    Frame Inner = makeFrame(Callee, Rec);
    // Parameter passing: the call-site instance defines the parameter
    // slots of the fresh frame, so the callee's parameter reads data-
    // depend on the argument computation.
    for (size_t I = 0; I < Callee.params().size(); ++I) {
      VarId Param = Callee.params()[I];
      const VarInfo &Info = Prog.variable(Param);
      storeFrame(Inner, Info.Slot, Param, Args[ArgBase + I], Rec);
    }
    Args.resize(ArgBase);

    if (Collecting) {
      if (!Clean)
        ++DirtyCalls;
      Cont.push_back({&Inner, Rec, Path.size()});
    }
    if (Rec != InvalidId)
      suspend(Rec);
    execBody(Callee.body(), Inner);
    if (Rec != InvalidId)
      reopen(Rec);
    if (Collecting) {
      Cont.pop_back();
      if (!Clean)
        --DirtyCalls;
    }
    if (Halted) {
      Ctx.recycleFrame(std::move(Inner));
      return 0;
    }

    // The return-value read: data-depends on the executed return.
    if (Rec != InvalidId)
      recordUse(Rec, {MemLoc::retVal(Inner.Serial), Inner.RetValDef,
                      Call->id(), /*Var=*/InvalidId, Inner.RetVal});
    int64_t RetVal = Inner.RetVal;
    Ctx.recycleFrame(std::move(Inner));
    return RetVal;
  }

  //===--------------------------------------------------------------------===//
  // Statement execution
  //===--------------------------------------------------------------------===//

  Flow execBody(const std::vector<Stmt *> &Body, Frame &F,
                ResumeEntry::Body In = ResumeEntry::Body::Func) {
    if (!Collecting) {
      for (Stmt *S : Body) {
        Flow Result = execStmt(S, F);
        if (Result != Flow::Normal)
          return Result;
      }
      return Flow::Normal;
    }
    // Collecting runs track the descent in Path so a capture can record
    // the continuation: one entry per live body, updated per statement.
    size_t Slot = Path.size();
    Path.push_back({In, 0});
    Flow Result = Flow::Normal;
    for (uint32_t I = 0; I < Body.size(); ++I) {
      Path[Slot].Index = I;
      Result = execStmt(Body[I], F);
      if (Result != Flow::Normal)
        break;
    }
    Path.resize(Slot);
    return Result;
  }

  /// Evaluates the condition of predicate instance \p Rec, applying the
  /// requested switch when this is the targeted instance.
  bool evalPredicate(const Expr *Cond, Frame &F, TraceIdx Rec, StmtId Sid) {
    bool Taken = evalExpr(Cond, F, Rec) != 0;
    if (Opts.Switch && Opts.Switch->Pred == Sid &&
        Opts.Switch->InstanceNo == InstCount[Sid]) {
      Taken = !Taken;
      // The first alteration marks the divergence point, where alignment
      // with the original run starts (a perturbation may precede it).
      if (Trace.SwitchedStep == InvalidId)
        Trace.SwitchedStep = Rec;
    }
    if (Rec != InvalidId) {
      StepRecord &Step = rec(Rec);
      Step.BranchTaken = Taken ? 1 : 0;
      Step.Value = Taken;
    }
    return Taken;
  }

  Flow execStmt(Stmt *S, Frame &F) {
    if (Halted)
      return Flow::Halt;
    switch (S->kind()) {
    case Stmt::Kind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      const VarInfo &Info = Prog.variable(Decl->var());
      if (Info.isArray())
        return Halted ? Flow::Halt : Flow::Normal;
      if (Collecting && Decl->init() && Decl->init()->kind() == Expr::Kind::Call)
        NextCallClean = true;
      int64_t Value = Decl->init() ? evalExpr(Decl->init(), F, Rec) : 0;
      if (Halted)
        return Flow::Halt;
      Value = maybePerturb(S->id(), Rec, Value);
      if (Rec != InvalidId)
        rec(Rec).Value = Value;
      if (Info.isGlobal())
        store(MemLoc::global(Info.Slot), Decl->var(), Value, Rec);
      else
        storeFrame(F, Info.Slot, Decl->var(), Value, Rec);
      return Flow::Normal;
    }
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      if (Collecting && A->value()->kind() == Expr::Kind::Call)
        NextCallClean = true;
      int64_t Value = evalExpr(A->value(), F, Rec);
      if (Halted)
        return Flow::Halt;
      Value = maybePerturb(S->id(), Rec, Value);
      if (Rec != InvalidId)
        rec(Rec).Value = Value;
      const VarInfo &Info = Prog.variable(A->var());
      if (Info.isGlobal())
        store(MemLoc::global(Info.Slot), A->var(), Value, Rec);
      else
        storeFrame(F, Info.Slot, A->var(), Value, Rec);
      return Flow::Normal;
    }
    case Stmt::Kind::ArrayAssign: {
      const auto *A = cast<ArrayAssignStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      int64_t Index = evalExpr(A->index(), F, Rec);
      int64_t Value = evalExpr(A->value(), F, Rec);
      if (Halted)
        return Flow::Halt;
      const VarInfo &Info = Prog.variable(A->var());
      if (Index < 0 || Index >= Info.ArraySize) {
        halt(ExitReason::RuntimeError);
        return Flow::Halt;
      }
      Value = maybePerturb(S->id(), Rec, Value);
      if (Rec != InvalidId)
        rec(Rec).Value = Value;
      uint32_t Slot = Info.Slot + static_cast<uint32_t>(Index);
      if (Info.isGlobal())
        store(MemLoc::global(Slot), A->var(), Value, Rec);
      else
        storeFrame(F, Slot, A->var(), Value, Rec);
      return Flow::Normal;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      bool Taken = evalPredicate(If->cond(), F, Rec, S->id());
      if (Halted)
        return Flow::Halt;
      return execBody(Taken ? If->thenBody() : If->elseBody(), F,
                      Taken ? ResumeEntry::Body::Then
                            : ResumeEntry::Body::Else);
    }
    case Stmt::Kind::While:
      return execWhileLoop(S, cast<WhileStmt>(S), F);
    case Stmt::Kind::Break:
      beginStep(S, F);
      return Halted ? Flow::Halt : Flow::Break;
    case Stmt::Kind::Continue:
      beginStep(S, F);
      return Halted ? Flow::Halt : Flow::Continue;
    case Stmt::Kind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      if (Collecting && R->value() && R->value()->kind() == Expr::Kind::Call)
        NextCallClean = true;
      int64_t Value = R->value() ? evalExpr(R->value(), F, Rec) : 0;
      if (Halted)
        return Flow::Halt;
      Value = maybePerturb(S->id(), Rec, Value);
      F.RetVal = Value;
      F.RetValDef = Rec;
      if (Rec != InvalidId) {
        rec(Rec).Value = Value;
        recordDef(Rec, {MemLoc::retVal(F.Serial), /*Var=*/InvalidId, Value});
      }
      return Flow::Return;
    }
    case Stmt::Kind::Print: {
      const auto *P = cast<PrintStmt>(S);
      TraceIdx Rec = beginStep(S, F);
      for (size_t I = 0; I < P->args().size(); ++I) {
        int64_t Value = evalExpr(P->args()[I], F, Rec);
        if (Halted)
          return Flow::Halt;
        if (I == 0 && Rec != InvalidId)
          rec(Rec).Value = Value;
        Trace.Outputs.push_back(
            {Rec, static_cast<uint32_t>(I), P->args()[I]->id(), Value});
      }
      return Flow::Normal;
    }
    case Stmt::Kind::CallStmt: {
      TraceIdx Rec = beginStep(S, F);
      if (Collecting)
        NextCallClean = true;
      evalCall(cast<CallStmtNode>(S)->call(), F, Rec);
      return Halted ? Flow::Halt : Flow::Normal;
    }
    }
    return Flow::Normal;
  }

  /// The while statement's execution loop, starting (and, on resume,
  /// restarting) at a condition test.
  Flow execWhileLoop(Stmt *S, const WhileStmt *W, Frame &F) {
    while (true) {
      TraceIdx Rec = beginStep(S, F);
      bool Taken = evalPredicate(W->cond(), F, Rec, S->id());
      if (Halted)
        return Flow::Halt;
      if (!Taken)
        return Flow::Normal;
      Flow Result = execBody(W->body(), F, ResumeEntry::Body::Loop);
      if (Result == Flow::Break)
        return Flow::Normal;
      if (Result == Flow::Return || Result == Flow::Halt)
        return Result;
      // Normal and Continue both re-test the condition.
    }
  }

  //===--------------------------------------------------------------------===//
  // Checkpoint resumption
  //===--------------------------------------------------------------------===//

  /// The statement-root call expression of a clean call site.
  static const CallExpr *rootCall(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::CallStmt:
      return cast<CallStmtNode>(S)->call();
    case Stmt::Kind::Assign:
      return cast<CallExpr>(cast<AssignStmt>(S)->value());
    case Stmt::Kind::VarDecl:
      return cast<CallExpr>(cast<VarDeclStmt>(S)->init());
    case Stmt::Kind::Return:
      return cast<CallExpr>(cast<ReturnStmt>(S)->value());
    default:
      return nullptr;
    }
  }

  Flow resumeFrame(const Checkpoint &CP, size_t Level, Frame &F) {
    assert(!CP.Frames[Level].Path.empty() && "active frame without a path");
    return resumePath(CP, Level, F, /*Depth=*/0, F.Func->body());
  }

  /// Re-descends one level of a captured continuation path: finishes the
  /// statement the path points at, then executes the remainder of the
  /// containing body exactly as execBody would have.
  Flow resumePath(const Checkpoint &CP, size_t Level, Frame &F, size_t Depth,
                  const std::vector<Stmt *> &Body) {
    const CheckpointFrame &CF = CP.Frames[Level];
    const ResumeEntry &E = CF.Path[Depth];
    assert(E.Index < Body.size());
    Stmt *S = Body[E.Index];
    const bool Terminal = Depth + 1 == CF.Path.size();

    Flow Result;
    if (Terminal && Level + 1 == CP.Frames.size()) {
      // The statement whose beginStep captured the snapshot: re-execute
      // it outright. A capture at a while condition re-test lands here
      // too -- execWhileLoop via execStmt *is* the remaining work, since
      // the restored instance counters embody the finished iterations.
      Result = execStmt(S, F);
    } else if (Terminal) {
      Result = resumeCallSite(CP, Level, S, F);
    } else {
      const ResumeEntry &Next = CF.Path[Depth + 1];
      switch (S->kind()) {
      case Stmt::Kind::If: {
        const auto *If = cast<IfStmt>(S);
        Result = resumePath(CP, Level, F, Depth + 1,
                            Next.In == ResumeEntry::Body::Else
                                ? If->elseBody()
                                : If->thenBody());
        break;
      }
      case Stmt::Kind::While: {
        const auto *W = cast<WhileStmt>(S);
        assert(Next.In == ResumeEntry::Body::Loop);
        Result = resumePath(CP, Level, F, Depth + 1, W->body());
        if (Result == Flow::Break)
          Result = Flow::Normal;
        else if (Result == Flow::Normal || Result == Flow::Continue)
          Result = execWhileLoop(S, W, F);
        break;
      }
      default:
        assert(false && "non-compound statement on a continuation path");
        Result = Flow::Halt;
        break;
      }
    }

    if (Result == Flow::Normal) {
      for (size_t I = E.Index + 1; I < Body.size(); ++I) {
        Result = execStmt(Body[I], F);
        if (Result != Flow::Normal)
          break;
      }
    }
    return Result;
  }

  /// Finishes a suspended clean call: rebuilds the callee frame, resumes
  /// it, then replicates evalCall's return sequence and the completion of
  /// the call-rooted statement (mirroring the execStmt cases).
  Flow resumeCallSite(const Checkpoint &CP, size_t Level, Stmt *S, Frame &F) {
    const TraceIdx Rec = CP.Frames[Level].PendingRec;
    const CallExpr *Call = rootCall(S);
    assert(Call && "pending call on a non-call-rooted statement");

    Frame Inner = CP.Frames[Level + 1].State;
    resumeFrame(CP, Level + 1, Inner);
    if (Rec != InvalidId)
      reopen(Rec);
    if (Halted) {
      Ctx.recycleFrame(std::move(Inner));
      return Flow::Halt;
    }

    if (Rec != InvalidId)
      recordUse(Rec, {MemLoc::retVal(Inner.Serial), Inner.RetValDef,
                      Call->id(), /*Var=*/InvalidId, Inner.RetVal});
    int64_t Value = Inner.RetVal;
    Ctx.recycleFrame(std::move(Inner));

    switch (S->kind()) {
    case Stmt::Kind::CallStmt:
      return Flow::Normal;
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      Value = maybePerturb(S->id(), Rec, Value);
      if (Rec != InvalidId)
        rec(Rec).Value = Value;
      const VarInfo &Info = Prog.variable(A->var());
      if (Info.isGlobal())
        store(MemLoc::global(Info.Slot), A->var(), Value, Rec);
      else
        storeFrame(F, Info.Slot, A->var(), Value, Rec);
      return Flow::Normal;
    }
    case Stmt::Kind::VarDecl: {
      const auto *Decl = cast<VarDeclStmt>(S);
      Value = maybePerturb(S->id(), Rec, Value);
      if (Rec != InvalidId)
        rec(Rec).Value = Value;
      const VarInfo &Info = Prog.variable(Decl->var());
      if (Info.isGlobal())
        store(MemLoc::global(Info.Slot), Decl->var(), Value, Rec);
      else
        storeFrame(F, Info.Slot, Decl->var(), Value, Rec);
      return Flow::Normal;
    }
    case Stmt::Kind::Return: {
      Value = maybePerturb(S->id(), Rec, Value);
      F.RetVal = Value;
      F.RetValDef = Rec;
      if (Rec != InvalidId) {
        rec(Rec).Value = Value;
        recordDef(Rec, {MemLoc::retVal(F.Serial), /*Var=*/InvalidId, Value});
      }
      return Flow::Return;
    }
    default:
      assert(false && "pending call on a non-call-rooted statement");
      return Flow::Halt;
    }
  }
};

} // namespace

Interpreter::Interpreter(const Program &Prog,
                         const analysis::StaticAnalysis &Analysis,
                         support::StatsRegistry *Stats)
    : Prog(Prog), Analysis(Analysis) {
  assert(isValidId(Prog.mainFunction()) && "program must be Sema-checked");
  if (Stats) {
    CRuns = &Stats->counter("interp.runs");
    CSwitchedRuns = &Stats->counter("interp.switched_runs");
    CResumedRuns = &Stats->counter("interp.resumed_runs");
    CSplicedSteps = &Stats->counter("interp.spliced_steps");
    CSteps = &Stats->counter("interp.steps");
    CTraceBytes = &Stats->counter("interp.trace_bytes");
    COutputs = &Stats->counter("interp.outputs");
    CAborts = &Stats->counter("interp.aborted_runs");
    TRunTime = &Stats->timer("interp.run_time");
    TSpliceTime = &Stats->timer("interp.splice_time");
  }
}

void Interpreter::record(size_t Steps, size_t Bytes, size_t Outputs,
                         ExitReason Exit, bool Switched, bool Resumed,
                         TraceIdx Spliced) const {
  if (!CRuns)
    return;
  CRuns->add();
  if (Switched)
    CSwitchedRuns->add();
  if (Resumed) {
    CResumedRuns->add();
    CSplicedSteps->add(Spliced);
  }
  CSteps->add(Steps); // Traced instances; plain runs record nothing.
  CTraceBytes->add(Bytes);
  COutputs->add(Outputs);
  if (Exit != ExitReason::Finished)
    CAborts->add();
}

ExecutionTrace Interpreter::run(const std::vector<int64_t> &Input,
                                const Options &Opts) const {
  ExecContext Ctx;
  return run(Input, Opts, Ctx);
}

ExecutionTrace Interpreter::run(const std::vector<int64_t> &Input,
                                const Options &Opts, ExecContext &Ctx) const {
  support::ScopedTimer Timed(TRunTime);
  Engine E(Prog, Analysis, Input, Opts, Ctx);
  ExecutionTrace T = E.run();
  record(T.size(), T.recordBytes(), T.Outputs.size(), T.Exit,
         Opts.Switch.has_value(), /*Resumed=*/false, 0);
  return T;
}

ResumedTrace Interpreter::runFrom(const Checkpoint &CP,
                                  const ExecutionTrace &SpliceFrom,
                                  const std::vector<int64_t> &Input,
                                  const Options &Opts,
                                  ExecContext &Ctx) const {
  assert(CP.Index <= SpliceFrom.size() &&
         CP.OutputCount <= SpliceFrom.Outputs.size());
  support::ScopedTimer Timed(TRunTime);
  Options Local = Opts;
  Local.Checkpoints = nullptr; // Checkpoints are captured by full runs only.
  Engine E(Prog, Analysis, Input, Local, Ctx);
  ResumedTrace R;
  R.Src = &SpliceFrom;
  R.Base = CP.Index;
  R.SrcOutputs = CP.OutputCount;
  R.Own = E.resume(CP, SpliceFrom, TSpliceTime, R.Reopened);
  record(R.size(), R.recordBytes(), R.outputCount(), R.exit(),
         Local.Switch.has_value(), /*Resumed=*/true, CP.Index);
  return R;
}

ExecutionTrace Interpreter::runSwitched(const std::vector<int64_t> &Input,
                                        SwitchSpec Spec, uint64_t MaxSteps,
                                        ExecContext *Ctx) const {
  Options Opts;
  Opts.MaxSteps = MaxSteps;
  Opts.Switch = Spec;
  if (Ctx)
    return run(Input, Opts, *Ctx);
  return run(Input, Opts);
}
