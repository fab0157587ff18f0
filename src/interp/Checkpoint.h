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
/// partially evaluated expressions. Candidate sites inside e.g.
/// `x = f(1) + f(2)` are skipped (CheckpointPlan::SkippedDirty) and fall
/// back to full replay.
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
/// Snapshots live in a byte-budgeted LRU store (CheckpointStore); the
/// collection stride can be autotuned from the first capture's size,
/// the candidate density, and that budget (CheckpointPlan).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_CHECKPOINT_H
#define EOE_INTERP_CHECKPOINT_H

#include "interp/ExecContext.h"
#include "interp/Trace.h"
#include "support/Ids.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace eoe {
namespace interp {

/// Single source of truth for the checkpoint LRU byte budget; every
/// layer's knob (verifier, locate, workloads, CLI) defaults to this.
inline constexpr size_t DefaultCheckpointMemBytes = 256ull << 20;

/// Stride sentinel: pick the stride automatically from trace length,
/// candidate density, and the byte budget (see CheckpointPlan).
inline constexpr unsigned CheckpointStrideAuto = 0;

/// Stride sentinel: checkpointing disabled entirely (the full-replay
/// reference behavior).
inline constexpr unsigned CheckpointsOff = ~0u;

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
  /// last-predicate-instance map) as of the capture instant.
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

  /// Approximate resident size, used against the store's LRU budget.
  size_t bytes() const;
};

/// Thread-safe LRU-bounded container of checkpoints keyed by trace
/// index. Inserts happen during the single-threaded collection pass;
/// lookups (nearest dominating snapshot) come from the verifier, which
/// may be called from several threads. Checkpoints are handed out as
/// shared_ptr<const>: resuming only reads, so concurrent restores from
/// one snapshot are race-free.
class CheckpointStore {
public:
  explicit CheckpointStore(size_t BudgetBytes) : Budget(BudgetBytes) {}

  /// Inserts \p CP, evicting least-recently-used snapshots if the byte
  /// budget overflows. A snapshot larger than the whole budget is dropped
  /// outright (counted as an eviction). Duplicate indices are ignored.
  void insert(std::shared_ptr<const Checkpoint> CP);

  /// Returns the checkpoint with the largest Index <= \p At (the nearest
  /// dominating snapshot for a switch at \p At), or null if none exists
  /// -- the caller then falls back to full replay.
  std::shared_ptr<const Checkpoint> nearest(TraceIdx At);

  size_t count() const;
  /// Bytes currently retained -- what the LRU budget is charged with.
  size_t bytes() const;
  size_t evictions() const;

private:
  struct Entry {
    std::shared_ptr<const Checkpoint> CP;
    size_t Bytes = 0;
    uint64_t LastUse = 0;
  };

  /// Evicts least-recently-used entries other than \p Keep until the
  /// retained bytes fit the budget.
  void evictLocked(TraceIdx Keep);

  mutable std::mutex M;
  std::map<TraceIdx, Entry> ByIndex;
  size_t Budget;
  size_t Bytes = 0;
  size_t Evicted = 0;
  uint64_t Tick = 0;
};

/// Instructions for one instrumented collection run: snapshot at these
/// trace indices (ascending, deduplicated; each must be a predicate
/// instance of the run being traced). The engine writes back how many
/// sites were skipped because a surrounding call was not clean.
struct CheckpointPlan {
  std::vector<TraceIdx> Sites;
  CheckpointStore *Store = nullptr;

  /// Stride autotuning (CheckpointStrideAuto): when AutoBudgetBytes is
  /// non-zero, Sites holds *every* candidate and the engine thins them
  /// itself -- it captures the first clean site, estimates the per-
  /// snapshot cost from that capture, then keeps every Nth site so that
  /// about 2x AutoBudgetBytes of snapshots are attempted (the LRU keeps
  /// the resident set under the actual budget while switched runs lean
  /// on nearest-dominating resume), subject to a minimum average spacing
  /// between snapshots derived from TraceLength / |Sites|.
  /// Deterministic: the choice depends only on (program, input, budget).
  size_t AutoBudgetBytes = 0;
  /// Length of the trace the sites were drawn from (density input).
  size_t TraceLength = 0;

  /// Out-params filled by the collection run.
  size_t Collected = 0;
  size_t SkippedDirty = 0;
  /// The stride the engine chose (auto mode only; 0 otherwise).
  unsigned AutoStride = 0;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_CHECKPOINT_H
