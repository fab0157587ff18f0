//===-- interp/Checkpoint.h - Interpreter snapshots --------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpointed re-execution for switched runs. The paper's implicit-
/// dependence check re-executes the program with one predicate instance
/// switched; because executions are deterministic functions of (program,
/// input, switch), the switched run is bit-identical to the original up
/// to the switch point. A Checkpoint captures the full interpreter state
/// at a predicate instance of the *original* run, so a switched run whose
/// switch point lies at or after the snapshot can share the recorded
/// prefix of the original trace and resume execution there -- turning
/// O(prefix) replay per candidate into an O(state) restore plus
/// O(suffix) execution, with none of the prefix's interpretation cost.
///
/// The interpreter is a recursive tree walker, so "interpreter state" is
/// a continuation: per active frame, the path of statement indices from
/// the function body root down to the active statement (CheckpointFrame::
/// Path), plus the frame itself. Checkpoints are only taken at *clean*
/// instants -- the active statement in every non-innermost frame is a
/// statement-root call (`f(x);`, `v = f(x);`, `var v = f(x);`,
/// `return f(x);`) whose arguments are fully evaluated -- so the work
/// remaining in each suspended frame is describable without capturing
/// partially evaluated expressions. Predicate instances inside e.g.
/// `x = f(1) + f(2)` are skipped (CheckpointPlan::SkippedDirty); a due
/// capture waits for the next clean one.
///
/// Trace records of statements still on the host stack at capture time
/// are still open (a call-site record gains its return-value use and its
/// definitions when the callee returns), so each CheckpointFrame stores
/// its pending call-site record as of capture, uses and definitions
/// included (an OpenStep). A resumed run (ResumedTrace) shares every
/// record complete at capture with the original trace and owns those few
/// reopened records, which it completes, plus the steps it executes:
/// read through its accessors it equals a full replay step for step. See
/// docs/checkpointing.md for the full determinism argument.
///
/// Snapshots are taken by the traced run that records the original
/// trace, on a schedule that needs no candidates (CheckpointPlan): one
/// clean predicate instance per spacing interval, thinned to every other
/// snapshot with the spacing doubled whenever the store outgrows its
/// snapshot cap or its byte budget. The store is filled once and then only
/// read (CheckpointStore).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_CHECKPOINT_H
#define EOE_INTERP_CHECKPOINT_H

#include "interp/ExecContext.h"
#include "interp/Trace.h"
#include "support/Stats.h"
#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace eoe {
namespace interp {

/// Single source of truth for the checkpoint byte budget; every layer's
/// knob (session, workloads, CLI) defaults to this.
inline constexpr size_t DefaultCheckpointMemBytes = 256ull << 20;

/// One level of the captured continuation: which body of the enclosing
/// construct execution descended into, and the statement index within it.
struct ResumeEntry {
  enum class Body : uint8_t {
    Func, ///< \p Index into the frame function's body.
    Then, ///< ... into the then-body of the If at the previous level.
    Else, ///< ... into the else-body of the If at the previous level.
    Loop, ///< ... into the body of the While at the previous level.
  };
  Body In = Body::Func;
  /// Statement index within that body. The entry's statement is the one
  /// execution was inside at capture time: for non-terminal levels an
  /// If/While/call statement, for the terminal level of the innermost
  /// frame the statement whose beginStep took the snapshot.
  uint32_t Index = 0;
};

/// One suspended activation record.
struct CheckpointFrame {
  /// Copy of the frame (locals, last-def table, serial, call site,
  /// last-predicate-instance table) as of the capture instant.
  ExecFrame State;
  /// Path from the function body root to the active statement.
  std::vector<ResumeEntry> Path;
  /// For non-innermost frames: the trace record of the call statement
  /// that created the next frame, and its as-of-capture contents with the
  /// uses and definitions recorded so far (the record is still open; it
  /// completes when the callee returns). InvalidId for the innermost
  /// frame.
  TraceIdx PendingRec = InvalidId;
  OpenStep PendingSnapshot;
};

/// Full interpreter state at the top of beginStep for one statement
/// instance of the original (unswitched) run -- captured before the
/// instance counter bump, so resuming re-executes that statement and a
/// switch targeting it triggers naturally.
struct Checkpoint {
  /// Trace index the capture happened at: the resumed run's first
  /// executed statement produces record Index.
  TraceIdx Index = 0;
  size_t InputCursor = 0;
  uint64_t StepCount = 0;
  uint64_t FrameCounter = 0;
  /// Outputs emitted so far (prefix of the original trace's Outputs).
  size_t OutputCount = 0;
  std::vector<int64_t> GlobalMem;
  std::vector<TraceIdx> GlobalLastDef;
  std::vector<uint32_t> InstCount;
  /// Active frames, outermost (main) first.
  std::vector<CheckpointFrame> Frames;

  /// Approximate resident size, charged against the plan's budget.
  size_t bytes() const;
};

/// The snapshots of one run, in ascending trace-index order. A
/// CheckpointPlan fills it during the traced run that records the original
/// trace; afterwards it is only read. It is not synchronized: fill it on
/// one thread, then share it read-only (concurrent nearest() calls and
/// restores from one snapshot are race-free, since resuming only reads).
class CheckpointStore {
public:
  /// Appends \p CP, whose Index must exceed every stored snapshot's.
  void insert(Checkpoint CP);

  /// Drops every other snapshot, counting back from the newest, which
  /// stays.
  void thin();

  /// Returns the checkpoint with the largest Index <= \p At (the nearest
  /// dominating snapshot for a switch at \p At), or null if none exists
  /// -- the caller then falls back to full replay.
  const Checkpoint *nearest(TraceIdx At) const;

  const std::vector<Checkpoint> &snapshots() const { return Snaps; }
  size_t count() const { return Snaps.size(); }
  /// Bytes retained: Checkpoint::bytes() summed over the snapshots.
  size_t bytes() const { return Bytes; }
  /// Snapshots inserted and later dropped by thin().
  size_t thinned() const { return Thinned; }

private:
  std::vector<Checkpoint> Snaps;
  size_t Bytes = 0;
  size_t Thinned = 0;
};

/// The capture schedule of one traced run: which predicate instances it
/// snapshots into Store. The snapshot set is a deterministic function of
/// program, input and the plan's fields.
///
///  - A capture is due once the run has executed NextAt steps. It is taken
///    at the first clean predicate instance from there on (dirty ones are
///    skipped and counted); the next is then due Spacing steps later.
///  - No capture is taken past LastStep executed steps: a run resumed from
///    it would start past the step where a full run under that step
///    budget halts.
///  - Whenever the store holds more than Cap snapshots or more than
///    BudgetBytes, it thins to every other snapshot and Spacing doubles.
///    A snapshot larger than the whole budget is not kept.
///  - With a Cap, an interval takes no snapshot when the retained bytes,
///    plus one more snapshot of the last one's size, would exceed a
///    quarter of the trace bytes recorded so far: a large interpreter
///    state is snapshotted only as often as the trace can carry it.
struct CheckpointPlan {
  /// DebugSession's schedule: spacing 128 from step 128, at most 64
  /// snapshots.
  static constexpr uint64_t DefaultSpacing = 128;
  static constexpr size_t DefaultCap = 64;

  CheckpointPlan(CheckpointStore &Store, uint64_t LastStep,
                 size_t BudgetBytes = DefaultCheckpointMemBytes)
      : Store(Store), LastStep(LastStep), BudgetBytes(BudgetBytes) {}

  /// The exhaustive schedule of the fuzzers and tests: every clean
  /// predicate instance up to \p LastStep, with no cap and no trace-share
  /// gate.
  static CheckpointPlan everyPredicate(CheckpointStore &Store,
                                       uint64_t LastStep) {
    CheckpointPlan P(Store, LastStep);
    P.Spacing = 1;
    P.NextAt = 0;
    P.Cap = 0;
    return P;
  }

  CheckpointStore &Store;
  uint64_t LastStep;
  size_t BudgetBytes;
  /// Steps between snapshots; doubles at each thinning.
  uint64_t Spacing = DefaultSpacing;
  /// Executed steps at which the next capture is due.
  uint64_t NextAt = DefaultSpacing;
  /// Snapshots kept before the store thins; 0 = unbounded, which also
  /// lifts the trace-share gate.
  size_t Cap = DefaultCap;
  /// Optional timer around each capture and the thinning it triggers.
  support::StatTimer *CaptureTime = nullptr;

  /// Filled by the run: predicate instances where a capture was due but a
  /// suspended call was not clean.
  size_t SkippedDirty = 0;

  /// Called at a predicate instance, after \p Step executed steps, once a
  /// capture is due (Step >= NextAt): whether to capture there. \p Dirty
  /// says a suspended call is not clean; \p TraceBytes is what the run has
  /// recorded so far.
  bool admit(uint64_t Step, bool Dirty, size_t TraceBytes);

  /// Keeps \p CP, taken after \p Step executed steps, and thins the store
  /// as the cap and the budget require.
  void take(uint64_t Step, Checkpoint CP);

private:
  /// The last snapshot's size: the estimate of the next one's.
  size_t LastBytes = 0;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_CHECKPOINT_H
