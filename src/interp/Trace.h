//===-- interp/Trace.h - Execution traces ------------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution trace produced by the tracing interpreter: one StepRecord
/// per executed statement instance, carrying the instance's dynamic
/// control-dependence parent, branch outcome, memory uses (each with the
/// defining instance -- the dynamic data dependences), and definitions.
/// The trace *is* the dynamic dependence graph; the ddg library only adds
/// closure algorithms and implicit edges on top.
///
/// Layout: structure of arrays. StepRecord is plain data; every step's
/// uses and definitions live in two trace-wide arrays, and a step names
/// its contiguous range in each (read through ExecutionTrace::uses() /
/// defs()). Recording a step allocates nothing once the arrays have
/// grown. The arrays hold ranges in the order the steps *completed*, not
/// the order they began: a call statement's record gains its return-value
/// use and its own definitions after the callee's steps, so the
/// interpreter holds such an open record aside until its statement
/// completes.
///
/// A run resumed from a checkpoint is a ResumedTrace: it owns only the
/// records it made and reads its prefix from the trace it resumed from.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_TRACE_H
#define EOE_INTERP_TRACE_H

#include "support/Ids.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace eoe {
namespace interp {

/// An abstract memory location.
///
/// Encoding: the upper 40 bits hold the frame serial (0 for global memory),
/// the lower 24 bits the slot within that frame or the global area. Slot
/// 0xffffff of a frame is its return-value cell.
struct MemLoc {
  uint64_t Raw = 0;

  static constexpr uint64_t SlotBits = 24;
  static constexpr uint64_t SlotMask = (1ull << SlotBits) - 1;
  static constexpr uint64_t RetValSlot = SlotMask;

  static MemLoc global(uint32_t Slot) { return {Slot}; }
  static MemLoc frame(uint64_t Serial, uint32_t Slot) {
    return {(Serial << SlotBits) | Slot};
  }
  static MemLoc retVal(uint64_t Serial) {
    return {(Serial << SlotBits) | RetValSlot};
  }

  uint64_t frameSerial() const { return Raw >> SlotBits; }
  uint32_t slot() const { return static_cast<uint32_t>(Raw & SlotMask); }
  bool isGlobal() const { return frameSerial() == 0; }
  bool isRetVal() const { return slot() == RetValSlot; }

  bool operator==(const MemLoc &O) const = default;
};

/// One memory read performed while executing a statement instance.
struct UseRecord {
  /// The concrete location read.
  MemLoc Loc;
  /// The instance that wrote the value (dynamic data dependence source);
  /// InvalidId when the location was never written (reads as 0).
  TraceIdx Def = InvalidId;
  /// The AST expression that performed the load (VarRef / ArrayRef node,
  /// or the CallExpr for a return-value read). Uses are matched across
  /// executions by this id, so "the same use" is stable even when array
  /// indices differ (the paper's outbuf[i+1] discussion).
  ExprId LoadExpr = InvalidId;
  /// Location class for potential-dependence queries: the variable
  /// (whole array) read, or InvalidId for return-value reads.
  VarId Var = InvalidId;
  /// The value observed by the read.
  int64_t Value = 0;

  bool operator==(const UseRecord &O) const = default;
};

/// One memory write performed by a statement instance.
struct DefRecord {
  MemLoc Loc;
  /// Location class written (InvalidId for return-value cells).
  VarId Var = InvalidId;
  int64_t Value = 0;

  bool operator==(const DefRecord &O) const = default;
};

/// One executed statement instance. Plain data: its uses and definitions
/// live in the owning ExecutionTrace's arrays.
struct StepRecord {
  /// Value summary: the defined value, branch condition value, or first
  /// printed value, depending on the statement kind.
  int64_t Value = 0;
  StmtId Stmt = InvalidId;
  /// The instance this one is dynamically control dependent on: the most
  /// recent instance of one of the statement's static control-dependence
  /// parents in the same invocation, or the calling statement's instance
  /// for a function's top-level statements; InvalidId at main's top level.
  /// The CdParent relation is the paper's region tree (Definition 3).
  TraceIdx CdParent = InvalidId;
  /// 1-based occurrence number of this statement in the execution.
  uint32_t InstanceNo = 0;
  /// Where the step's uses and definitions sit in its trace's Uses and
  /// Defs arrays. Placement only: not part of the recorded facts.
  uint32_t UseBegin = 0;
  uint32_t NumUses = 0;
  uint32_t DefBegin = 0;
  uint32_t NumDefs = 0;
  /// Predicate outcome: -1 for non-predicates, else 0/1.
  int8_t BranchTaken = -1;

  bool isPredicateInstance() const { return BranchTaken >= 0; }
  bool branch() const { return BranchTaken == 1; }

  /// Equality of the recorded fields. Placement in the arrays is not
  /// compared; ResumedTrace::sameStep compares a step's use and def
  /// sequences too.
  bool operator==(const StepRecord &O) const {
    return Value == O.Value && Stmt == O.Stmt && CdParent == O.CdParent &&
           InstanceNo == O.InstanceNo && BranchTaken == O.BranchTaken;
  }
};

/// A step record whose statement has not completed, with the uses and
/// definitions recorded so far: a call statement suspended in its callee.
/// Checkpoints hold one per suspended call (CheckpointFrame).
struct OpenStep {
  /// The record's fields as of now; placement fields are zero.
  StepRecord Step;
  std::vector<UseRecord> Uses;
  std::vector<DefRecord> Defs;
};

/// One value printed by a print statement.
struct OutputEvent {
  /// The print instance that emitted the value.
  TraceIdx Step = InvalidId;
  /// Zero-based argument position within the print statement.
  uint32_t ArgNo = 0;
  /// The argument expression (used to find the matching output in a
  /// switched execution).
  ExprId ArgExpr = InvalidId;
  int64_t Value = 0;

  bool operator==(const OutputEvent &O) const = default;
};

/// How an execution ended.
enum class ExitReason {
  /// main returned normally.
  Finished,
  /// The step budget ran out -- the paper's verification timeout.
  StepLimit,
  /// Out-of-bounds array access or division by zero.
  RuntimeError
};

/// A complete traced execution.
struct ExecutionTrace {
  std::vector<StepRecord> Steps;
  /// Every step's uses and definitions; StepRecord::UseBegin / DefBegin
  /// address them. Read them through uses() / defs().
  std::vector<UseRecord> Uses;
  std::vector<DefRecord> Defs;
  std::vector<OutputEvent> Outputs;
  ExitReason Exit = ExitReason::Finished;
  /// main's return value when Exit == Finished.
  int64_t ExitValue = 0;
  /// The instance where the execution was forcibly altered, if any: the
  /// switched predicate instance, or the value-perturbed definition
  /// instance. Everything before this index is byte-identical to the
  /// unaltered run on the same input -- the invariant the aligner uses.
  TraceIdx SwitchedStep = InvalidId;
  /// The first step during which an input() expression was evaluated, or
  /// InvalidId if the run never read input. Every step before this index
  /// is a function of the program alone.
  TraceIdx FirstInputStep = InvalidId;

  size_t size() const { return Steps.size(); }
  const StepRecord &step(TraceIdx I) const { return Steps.at(I); }

  /// The memory reads of a step, in evaluation order.
  std::span<const UseRecord> uses(const StepRecord &S) const {
    return {Uses.data() + S.UseBegin, S.NumUses};
  }
  std::span<const UseRecord> uses(TraceIdx I) const { return uses(step(I)); }
  /// The memory writes of a step, in execution order.
  std::span<const DefRecord> defs(const StepRecord &S) const {
    return {Defs.data() + S.DefBegin, S.NumDefs};
  }
  std::span<const DefRecord> defs(TraceIdx I) const { return defs(step(I)); }

  /// Bytes of the step, use and def arrays, counted by element (the
  /// interp.trace_bytes statistic).
  size_t recordBytes() const {
    return Steps.size() * sizeof(StepRecord) +
           Uses.size() * sizeof(UseRecord) + Defs.size() * sizeof(DefRecord);
  }

  /// Output values in emission order (the observable behaviour).
  std::vector<int64_t> outputValues() const {
    std::vector<int64_t> V;
    V.reserve(Outputs.size());
    for (const OutputEvent &E : Outputs)
      V.push_back(E.Value);
    return V;
  }
};

/// A traced run resumed from a checkpoint (Interpreter::runFrom) that
/// shares its prefix with its splice source instead of copying it. The
/// run records only what it executed itself -- the steps from base() on,
/// plus the call records still open at the capture, which it completed
/// (reopened()) -- and reads every other step, use, def, output and
/// marker below base() from the source, which must outlive it. Read
/// through the accessors, it is exactly the trace full interpretation
/// produces.
///
/// A ResumedTrace made from a whole ExecutionTrace owns every step (a run
/// resumed at step 0); view() shares every step of one instead.
class ResumedTrace {
public:
  ResumedTrace() = default;
  explicit ResumedTrace(ExecutionTrace Whole) : Own(std::move(Whole)) {}

  /// A run sharing every step of \p Whole, which must outlive it.
  static ResumedTrace view(const ExecutionTrace &Whole) {
    ResumedTrace V;
    V.Src = &Whole;
    V.Base = static_cast<TraceIdx>(Whole.size());
    V.SrcOutputs = Whole.Outputs.size();
    V.Own.Exit = Whole.Exit;
    V.Own.ExitValue = Whole.ExitValue;
    V.Own.SwitchedStep = Whole.SwitchedStep;
    V.Own.FirstInputStep = Whole.FirstInputStep;
    return V;
  }
  /// A temporary would dangle.
  static ResumedTrace view(const ExecutionTrace &&) = delete;

  /// The logical length: what full interpretation records.
  size_t size() const { return Base + Own.Steps.size() - Reopened.size(); }

  const StepRecord &step(TraceIdx I) const { return *at(I).second; }
  std::span<const UseRecord> uses(TraceIdx I) const {
    auto [T, S] = at(I);
    return T->uses(*S);
  }
  std::span<const DefRecord> defs(TraceIdx I) const {
    auto [T, S] = at(I);
    return T->defs(*S);
  }

  /// True when step \p I of this run and step \p J of \p O record the
  /// same fields and the same use and def sequences.
  bool sameStep(TraceIdx I, const ExecutionTrace &O, TraceIdx J) const {
    if (!(step(I) == O.step(J)))
      return false;
    std::span<const UseRecord> UA = uses(I), UB = O.uses(J);
    std::span<const DefRecord> DA = defs(I), DB = O.defs(J);
    return std::equal(UA.begin(), UA.end(), UB.begin(), UB.end()) &&
           std::equal(DA.begin(), DA.end(), DB.begin(), DB.end());
  }

  /// Printed values in emission order: the source's first ones, then the
  /// run's own.
  size_t outputCount() const { return SrcOutputs + Own.Outputs.size(); }
  const OutputEvent &output(size_t I) const {
    return I < SrcOutputs ? Src->Outputs[I] : Own.Outputs.at(I - SrcOutputs);
  }
  std::vector<int64_t> outputValues() const {
    std::vector<int64_t> V;
    V.reserve(outputCount());
    for (size_t I = 0; I < outputCount(); ++I)
      V.push_back(output(I).Value);
    return V;
  }

  ExitReason exit() const { return Own.Exit; }
  int64_t exitValue() const { return Own.ExitValue; }
  /// ExecutionTrace::SwitchedStep / FirstInputStep of the full run.
  TraceIdx switchedStep() const { return Own.SwitchedStep; }
  TraceIdx firstInputStep() const { return Own.FirstInputStep; }

  /// The first step the run executed itself (0 for a run owning all).
  TraceIdx base() const { return Base; }
  /// The trace the steps below base() are read from; null when none.
  const ExecutionTrace *source() const { return Src; }
  /// The records the run holds: its reopened call records, then its
  /// steps from base() on. Their use and def ranges index these arrays.
  const ExecutionTrace &own() const { return Own; }
  /// The call records below base() the run completed itself, ascending;
  /// own().Steps[K] is the record of reopened()[K].
  std::span<const TraceIdx> reopened() const { return Reopened; }

  /// Bytes of the run's own step, use and def arrays (interp.trace_bytes).
  size_t recordBytes() const { return Own.recordBytes(); }

private:
  friend class Interpreter;

  /// The trace holding step \p I, and the record within it.
  std::pair<const ExecutionTrace *, const StepRecord *> at(TraceIdx I) const {
    if (I >= Base)
      return {&Own, &Own.Steps.at(I - Base + Reopened.size())};
    auto It = std::lower_bound(Reopened.begin(), Reopened.end(), I);
    if (It != Reopened.end() && *It == I)
      return {&Own, &Own.Steps[It - Reopened.begin()]};
    return {Src, &Src->Steps[I]};
  }

  /// The run's own records; its Exit, ExitValue and markers are the full
  /// run's.
  ExecutionTrace Own;
  const ExecutionTrace *Src = nullptr;
  TraceIdx Base = 0;
  /// Outputs read from the source: those emitted before the capture.
  size_t SrcOutputs = 0;
  std::vector<TraceIdx> Reopened;
};

/// Identifies the predicate instance to switch in a re-execution: the
/// InstanceNo-th evaluation of statement Pred has its outcome negated.
struct SwitchSpec {
  StmtId Pred = InvalidId;
  uint32_t InstanceNo = 0;
};

/// Identifies a definition instance whose produced value is replaced in
/// a re-execution: the InstanceNo-th execution of statement Stmt defines
/// Value instead of what it computed. This realizes the paper's section
/// 5 proposal of perturbing a value rather than a branch outcome -- the
/// sound-but-expensive way around the nested-predicate unsoundness.
struct PerturbSpec {
  StmtId Stmt = InvalidId;
  uint32_t InstanceNo = 0;
  int64_t Value = 0;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_TRACE_H
