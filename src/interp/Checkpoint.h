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
/// Storage is adaptive along three axes (docs/checkpointing.md):
///  - snapshots are *delta-compressed* against their predecessor on the
///    same path (frame memory, last-def tables, and instance counters
///    change slowly between adjacent snapshots), with a full keyframe
///    every KeyframeInterval entries so restore cost stays bounded;
///  - snapshots taken before the first input() read are *input-
///    independent* and can be promoted into a SharedCheckpointStore that
///    seeds later sessions over the same program on different inputs;
///  - the collection stride can be *autotuned* from the first capture's
///    size, the candidate density, and the byte budget (CheckpointPlan).
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
#include <utility>
#include <vector>

namespace eoe {

namespace lang {
class Program;
}

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

/// Every KeyframeInterval-th snapshot retained on a path is stored whole;
/// the ones between are sparse diffs, so a restore decodes at most
/// KeyframeInterval - 1 deltas.
inline constexpr unsigned DefaultKeyframeInterval = 8;

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

  bool operator==(const ResumeEntry &O) const = default;
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

  bool operator==(const CheckpointFrame &O) const = default;
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
  /// True when no input() expression had been evaluated before capture:
  /// the snapshot -- and the trace prefix it splices -- is a function of
  /// the program alone, so it is valid for *any* input of the same
  /// program (the cross-input sharing precondition; see
  /// SharedCheckpointStore and ExecutionTrace::FirstInputStep).
  bool InputIndependent = false;
  std::vector<int64_t> GlobalMem;
  std::vector<TraceIdx> GlobalLastDef;
  std::vector<uint32_t> InstCount;
  /// Active frames, outermost (main) first.
  std::vector<CheckpointFrame> Frames;
  /// Divergence key: the ordered forced alterations (switches /
  /// perturbations) the capturing run had applied before this snapshot.
  /// Empty for original-run snapshots. A snapshot with a non-empty key
  /// only resumes runs whose requested decision sequence starts with it
  /// (see SwitchedRunStore); such snapshots are never promoted into the
  /// cross-input SharedCheckpointStore or the on-disk cache.
  std::vector<SwitchDecision> Divergence;

  /// Approximate resident size, used against the store's LRU budget.
  size_t bytes() const;

  /// Value equality over the full state (the delta round-trip property:
  /// decode(encode(base, cp)) == cp, byte for byte).
  bool operator==(const Checkpoint &O) const = default;
};

/// Sparse diff of an array against a base version: the new size plus the
/// (index, value) pairs that differ. Entries past the base's size are
/// always listed, so apply() can default-extend and then overwrite.
template <typename T> struct ArrayDelta {
  uint32_t Size = 0;
  std::vector<std::pair<uint32_t, T>> Changed;

  static ArrayDelta diff(const std::vector<T> &Base,
                         const std::vector<T> &Cur) {
    ArrayDelta D;
    D.Size = static_cast<uint32_t>(Cur.size());
    size_t Common = Base.size() < Cur.size() ? Base.size() : Cur.size();
    for (size_t I = 0; I < Common; ++I)
      if (!(Base[I] == Cur[I]))
        D.Changed.push_back({static_cast<uint32_t>(I), Cur[I]});
    for (size_t I = Common; I < Cur.size(); ++I)
      D.Changed.push_back({static_cast<uint32_t>(I), Cur[I]});
    return D;
  }

  void apply(const std::vector<T> &Base, std::vector<T> &Out) const {
    size_t Keep = Base.size() < Size ? Base.size() : Size;
    Out.assign(Base.begin(), Base.begin() + Keep);
    Out.resize(Size);
    for (const auto &Change : Changed)
      Out[Change.first] = Change.second;
  }

  size_t bytes() const {
    return sizeof(ArrayDelta) +
           Changed.capacity() * sizeof(std::pair<uint32_t, T>);
  }
};

/// Sparse diff of the per-frame last-predicate-instance map.
struct PredMapDelta {
  std::vector<std::pair<StmtId, TraceIdx>> Upserts;
  std::vector<StmtId> Erased;

  size_t bytes() const {
    return sizeof(PredMapDelta) +
           Upserts.capacity() * sizeof(std::pair<StmtId, TraceIdx>) +
           Erased.capacity() * sizeof(StmtId);
  }
};

/// One suspended frame, encoded against the frame at the same depth of
/// the base checkpoint. When the activation differs (another Serial),
/// the frame is stored whole instead.
struct CheckpointFrameDelta {
  bool Full = false;
  CheckpointFrame Whole; ///< Set when Full.

  // Delta form: scalars verbatim, arrays and the predicate map as diffs
  // against the base frame's State. Func is inherited from the base
  // (same Serial => same activation => same function).
  uint64_t Serial = 0;
  int64_t RetVal = 0;
  TraceIdx RetValDef = InvalidId;
  TraceIdx CallSite = InvalidId;
  ArrayDelta<int64_t> Mem;
  ArrayDelta<TraceIdx> LastDef;
  PredMapDelta Preds;
  std::vector<ResumeEntry> Path;
  TraceIdx PendingRec = InvalidId;
  OpenStep PendingSnapshot;

  size_t bytes() const;
};

/// A Checkpoint encoded against its predecessor on the same collection
/// path. The slowly-changing bulk (frame memory, last-def tables,
/// instance counters) becomes sparse diffs; everything else is verbatim.
struct CheckpointDelta {
  TraceIdx Index = 0;
  size_t InputCursor = 0;
  uint64_t StepCount = 0;
  uint64_t FrameCounter = 0;
  size_t OutputCount = 0;
  bool InputIndependent = false;
  ArrayDelta<int64_t> GlobalMem;
  ArrayDelta<TraceIdx> GlobalLastDef;
  ArrayDelta<uint32_t> InstCount;
  std::vector<CheckpointFrameDelta> Frames;
  /// Carried verbatim (short; switched-run chains share one key).
  std::vector<SwitchDecision> Divergence;

  size_t bytes() const;
};

/// Fills \p Out (expected empty) with the trace \p From held at \p CP's
/// capture instant, as one self-contained ExecutionTrace: the first
/// CP.Index steps, the uses and definitions of every step complete at
/// that instant, the first CP.OutputCount outputs, and the switch and
/// first-input markers that lie before CP.Index. Each call record then
/// suspended (CheckpointFrame::PendingRec) keeps its as-of-capture fields
/// and empty ranges; its entries so far are in the frame's
/// PendingSnapshot. \p CP must have been captured by the run \p From
/// records, at or after its base(). This materialises a switched-run
/// bundle's prefix, which outlives the session whose runs it came from
/// (SwitchedRunStore); resumed runs share their prefix instead.
void tracePrefix(const ResumedTrace &From, const Checkpoint &CP,
                 ExecutionTrace &Out);

/// Encodes \p Cur as a diff against \p Base (any two snapshots of the
/// same program run; adjacency just makes the diff small).
CheckpointDelta encodeCheckpointDelta(const Checkpoint &Base,
                                      const Checkpoint &Cur);

/// Reconstructs the checkpoint \p D was encoded from, given the same
/// \p Base. decode(encode(Base, Cur)) == Cur exactly.
std::shared_ptr<Checkpoint> applyCheckpointDelta(const Checkpoint &Base,
                                                 const CheckpointDelta &D);

/// Thread-safe LRU-bounded container of checkpoints keyed by trace
/// index. Inserts happen during the single-threaded collection pass;
/// lookups (nearest dominating snapshot) come from concurrent
/// verification tasks. Checkpoints are handed out as shared_ptr<const>:
/// resuming only reads, so concurrent restores from one snapshot are
/// race-free.
///
/// With delta encoding on, consecutive inserts form *segments*: a full
/// keyframe followed by up to KeyframeInterval - 1 sparse diffs, each
/// encoded against the previous insert. The LRU budget is charged with
/// *encoded* bytes, and eviction removes whole segments (a delta is
/// useless without its bases), so effective snapshot capacity grows by
/// roughly the compression ratio. nearest() reconstructs delta entries
/// by replaying the segment's chain from its keyframe.
class CheckpointStore {
public:
  struct Options {
    size_t BudgetBytes = DefaultCheckpointMemBytes;
    bool DeltaEncode = false;
    unsigned KeyframeInterval = DefaultKeyframeInterval;
  };

  /// Reference configuration: every snapshot stored whole (the PR-3
  /// behavior; also what the eviction arithmetic of older tests assume).
  explicit CheckpointStore(size_t BudgetBytes)
      : CheckpointStore(Options{BudgetBytes, false,
                                DefaultKeyframeInterval}) {}
  explicit CheckpointStore(const Options &O);

  /// Inserts \p CP, evicting least-recently-used segments if the byte
  /// budget overflows. A keyframe larger than the whole budget is
  /// dropped outright (counted as an eviction). Duplicate indices are
  /// ignored and do not perturb the delta chain.
  void insert(std::shared_ptr<const Checkpoint> CP);

  /// Returns the checkpoint with the largest Index <= \p At (the nearest
  /// dominating snapshot for a switch at \p At), or null if none exists
  /// -- the caller then falls back to full replay. Delta entries are
  /// decoded on the way out (at most KeyframeInterval - 1 applications).
  std::shared_ptr<const Checkpoint> nearest(TraceIdx At);

  size_t count() const;
  /// Encoded bytes currently retained -- what the LRU budget is charged
  /// with (equals rawBytes() when delta encoding is off).
  size_t bytes() const;
  size_t encodedBytes() const { return bytes(); }
  /// Bytes the retained snapshots would occupy stored whole; the
  /// rawBytes() / encodedBytes() ratio is the effective capacity gain.
  size_t rawBytes() const;
  /// Cumulative snapshots stored whole / stored as deltas.
  size_t keyframes() const;
  size_t deltaCount() const;
  size_t evictions() const;

private:
  struct Entry {
    std::shared_ptr<const Checkpoint> Full; ///< Keyframes only.
    CheckpointDelta Delta;                  ///< Delta entries only.
    bool IsDelta = false;
    size_t Encoded = 0;
    size_t Raw = 0;
  };
  /// A keyframe plus the deltas chained off it, evicted as one unit.
  struct Segment {
    std::vector<Entry> Chain;
    uint64_t LastUse = 0;
    size_t Encoded = 0;
    size_t Raw = 0;
  };

  void evictLocked(uint64_t KeepSeg);
  void dropSegmentLocked(uint64_t SegId);

  mutable std::mutex M;
  std::map<uint64_t, Segment> Segments;
  /// Trace index -> (segment id, position in that segment's chain).
  std::map<TraceIdx, std::pair<uint64_t, uint32_t>> ByIndex;
  /// Base for the next delta: the last checkpoint actually inserted.
  std::shared_ptr<const Checkpoint> LastInserted;
  uint64_t CurSeg = 0;
  uint64_t NextSegId = 1;
  size_t Budget;
  bool DeltaEncode;
  unsigned KeyframeInterval;
  size_t Bytes = 0;
  size_t RawTotal = 0;
  size_t Evicted = 0;
  size_t KeyframeCount = 0;
  size_t DeltaEncoded = 0;
  uint64_t Tick = 0;
};

/// Immutable, thread-safe store of *input-independent* snapshots shared
/// across verifier sessions over the same program -- the profiler's and
/// the protocol's many-input re-runs all execute the identical prefix up
/// to the first input() read, so a snapshot captured there on one input
/// is a valid resume point on every other input.
///
/// Validity key: entries are registered under (program hash, program
/// identity, switched-run step budget). The hash (FNV-1a over the
/// pretty-printed source) makes the key content-addressed; the Program
/// pointer pins the AST the snapshot's frames reference, so a snapshot
/// can never be adopted by a session over a different (even textually
/// identical) Program object whose lifetime the snapshots do not cover;
/// the budget guarantees a resumed run never exceeds the capturing run's
/// step allowance. The store must outlive every session seeded from it
/// (the multi-input coordinator -- FaultRunner, a bench, the CLI -- owns
/// it).
class SharedCheckpointStore {
public:
  explicit SharedCheckpointStore(
      size_t BudgetBytes = DefaultCheckpointMemBytes / 4)
      : Budget(BudgetBytes) {}

  /// Registers \p CP under the given validity key. Returns false (and
  /// leaves the store unchanged) when the snapshot is not input-
  /// independent, already present, or the byte budget is exhausted --
  /// shared entries are immutable and never evicted, so the budget is a
  /// hard admission cap. \p FromDisk marks entries revived from the
  /// persistent cache (CheckpointDiskStore::load); resumes from them are
  /// attributed to verify.ckpt.disk_hits. A snapshot first promoted by a
  /// live collection pass keeps its live origin even if the cache later
  /// offers the same index.
  bool promote(const std::shared_ptr<const Checkpoint> &CP,
               uint64_t ProgramHash, const void *Program, uint64_t MaxSteps,
               bool FromDisk = false);

  /// All snapshots registered under the key, ascending by trace index.
  std::vector<std::shared_ptr<const Checkpoint>>
  snapshotsFor(uint64_t ProgramHash, const void *Program,
               uint64_t MaxSteps) const;

  /// Trace indices of the key's entries that came from the persistent
  /// cache (promote with FromDisk), ascending.
  std::vector<TraceIdx> diskIndicesFor(uint64_t ProgramHash,
                                       const void *Program,
                                       uint64_t MaxSteps) const;

  size_t count() const;
  size_t bytes() const;
  /// Promotions refused because the admission budget was exhausted.
  size_t rejected() const;

  /// FNV-1a over the pretty-printed program source: the content half of
  /// the validity key.
  static uint64_t hashProgram(const lang::Program &Prog);

private:
  struct Key {
    uint64_t Hash = 0;
    const void *Program = nullptr;
    uint64_t MaxSteps = 0;
    bool operator<(const Key &O) const {
      if (Hash != O.Hash)
        return Hash < O.Hash;
      if (Program != O.Program)
        return Program < O.Program;
      return MaxSteps < O.MaxSteps;
    }
  };

  mutable std::mutex M;
  std::map<Key, std::map<TraceIdx, std::shared_ptr<const Checkpoint>>>
      Entries;
  /// Subset of each key's indices that were promoted FromDisk.
  std::map<Key, std::vector<TraceIdx>> DiskOrigin;
  size_t Budget;
  size_t Bytes = 0;
  size_t Rejected = 0;
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
  /// about 2x AutoBudgetBytes of raw snapshots are attempted (the LRU --
  /// and the delta encoder, when on -- keep the resident set under the
  /// actual budget while switched runs lean on nearest-dominating
  /// resume), subject to a minimum average spacing between snapshots
  /// derived from TraceLength / |Sites|. Deterministic: the choice
  /// depends only on (program, input, budget).
  size_t AutoBudgetBytes = 0;
  /// Length of the trace the sites were drawn from (density input).
  size_t TraceLength = 0;

  /// Cross-input sharing: when set, every captured snapshot that is
  /// input-independent is also promoted here under the given key.
  SharedCheckpointStore *Share = nullptr;
  uint64_t ShareHash = 0;
  const void *ShareProgram = nullptr;
  uint64_t ShareMaxSteps = 0;

  /// Out-params filled by the collection run.
  size_t Collected = 0;
  size_t SkippedDirty = 0;
  /// The stride the engine chose (auto mode only; 0 otherwise).
  unsigned AutoStride = 0;
  /// Snapshots promoted into Share.
  size_t Promoted = 0;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_CHECKPOINT_H
