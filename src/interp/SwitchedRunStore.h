//===-- interp/SwitchedRunStore.h - Switched-run snapshot cache --*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-input reuse of *switched* runs. CheckpointStore amortizes the
/// original-trace prefix of every switched run; this layer amortizes the
/// switched part: during a switched run (SwitchedCapturePlan), the engine
/// keeps capturing checkpoints *past* the switch point, each tagged with
/// the run's divergence key (the ordered SwitchDecision sequence applied
/// so far). A later run requesting a decision sequence that starts with
/// a stored key resumes from the deepest such snapshot -- it reads its
/// switched prefix from the capturing run's trace exactly the way
/// runFrom shares original prefixes.
///
/// Determinism (the hard invariant: bit-identical results at any thread
/// count) shapes the store's API. True LRU admission is arrival-order-
/// dependent -- with a 15 MB budget and concurrent arrivals A(10 MB),
/// B(10 MB), C(4 MB), the retained set depends on which of A/B lands
/// first -- so the store is *two-phase*: runs stage() bundles in any
/// order, and a single-threaded seal() between sessions sorts the staged
/// multiset into a canonical order and admits greedily into the byte
/// budget. The sealed set is a pure function of the staged multiset, and
/// lookup() only ever sees sealed bundles, so cache hits (and the stats
/// keyed off them) are identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_SWITCHEDRUNSTORE_H
#define EOE_INTERP_SWITCHEDRUNSTORE_H

#include "interp/Checkpoint.h"
#include "interp/Trace.h"

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace eoe {
namespace interp {

/// Default byte budget for the switched-run snapshot cache (staged +
/// sealed bundles). 0 disables the feature everywhere.
inline constexpr size_t DefaultSwitchedCacheBytes = 64ull << 20;

/// Per-run instruction to capture divergence-keyed snapshots on a
/// switched/perturbed run. Owned by the caller (one per run; written by
/// the engine, so never shared between concurrent runs).
struct SwitchedCapturePlan {
  /// Minimum steps between captures, counted from the last applied
  /// decision (the prefix store already covers everything before it).
  uint64_t SpacingSteps = 2048;
  /// Hard cap per run.
  size_t MaxSnapshots = 8;

  /// Out-params: the captured snapshots (ascending by Index, Divergence
  /// set to the run's applied decisions) and sites skipped because a
  /// surrounding call was mid-expression.
  std::vector<std::shared_ptr<const Checkpoint>> Captured;
  size_t SkippedDirty = 0;
};

/// Thread-safe, deterministically admitted store of switched-run
/// snapshot bundles, keyed by (program, input, step budget) validity and
/// looked up by divergence key. See the file comment for why admission
/// is two-phase (stage/seal) rather than LRU-on-insert.
class SwitchedRunStore {
public:
  /// Validity key: bundles only serve runs of the same program (content
  /// hash + AST identity, mirroring SharedCheckpointStore) on the same
  /// input under the same step budget.
  struct ValidityKey {
    uint64_t ProgramHash = 0;
    const void *Program = nullptr;
    uint64_t InputHash = 0;
    uint64_t MaxSteps = 0;

    bool operator<(const ValidityKey &O) const {
      if (ProgramHash != O.ProgramHash)
        return ProgramHash < O.ProgramHash;
      if (Program != O.Program)
        return Program < O.Program;
      if (InputHash != O.InputHash)
        return InputHash < O.InputHash;
      return MaxSteps < O.MaxSteps;
    }
    bool operator==(const ValidityKey &O) const = default;
  };

  /// One capturing run's contribution: its divergence key, its trace as
  /// of the deepest snapshot (tracePrefix; the resume splice source), and
  /// the snapshots themselves (ascending by Index; every Divergence ==
  /// Key).
  struct Bundle {
    std::vector<SwitchDecision> Key;
    std::shared_ptr<const ExecutionTrace> Prefix;
    std::vector<std::shared_ptr<const Checkpoint>> Snapshots;
  };

  /// A successful lookup: resume with Interpreter::runFrom(*CP, *Prefix).
  struct Hit {
    std::shared_ptr<const Checkpoint> CP;
    std::shared_ptr<const ExecutionTrace> Prefix;
  };

  explicit SwitchedRunStore(size_t BudgetBytes = DefaultSwitchedCacheBytes)
      : Budget(BudgetBytes) {}

  /// Queues \p B for the next seal(). Thread-safe; never visible to
  /// lookup() until sealed. Bundles with no snapshots are ignored.
  void stage(const ValidityKey &K, Bundle B);

  /// Rebuilds the sealed set from everything staged so far: sort by
  /// (validity key, earliest divergence step, divergence key), dedup by
  /// (validity key, divergence key) keeping the first, then admit
  /// greedily into the byte budget. Single canonical order => the sealed
  /// set is independent of staging order. Call from one thread between
  /// verification sessions. Returns the number of sealed bundles.
  size_t seal();

  /// Deepest sealed snapshot usable for \p Requested under \p K: its
  /// bundle's divergence key must be a prefix of \p Requested, and every
  /// decision *not* yet covered by the key must still be ahead of the
  /// snapshot (its instance counter below the decision's instance). On
  /// an equal-depth tie the longer key wins -- it covers more of the
  /// request. This longest-matching-prefix rule is what lets a depth-k
  /// chain's captures seed every depth-k+1 extension (docs/chains.md).
  /// Deterministic given the sealed set. Null before the first seal().
  std::optional<Hit> lookup(const ValidityKey &K,
                            const std::vector<SwitchDecision> &Requested);

  bool sealed() const;
  size_t stagedCount() const;
  size_t sealedCount() const;
  /// Bundles dropped by the last seal()'s byte budget.
  size_t droppedCount() const;
  /// Bytes retained by the sealed set.
  size_t bytes() const;
  size_t lookups() const;
  size_t hits() const;

  /// FNV-1a over the input vector: the input half of the validity key.
  static uint64_t hashInput(const std::vector<int64_t> &Input);
  /// Approximate resident size of a trace (the bundle byte accounting).
  static size_t traceBytes(const ExecutionTrace &T);

private:
  struct StagedBundle {
    ValidityKey K;
    Bundle B;
    size_t Bytes = 0;
  };

  mutable std::mutex M;
  /// deque: stage() keeps appending after seal(), and the sealed index
  /// holds pointers into this container -- addresses must be stable.
  std::deque<StagedBundle> Staged;
  std::map<ValidityKey, std::vector<const StagedBundle *>> Sealed;
  size_t Budget;
  bool SealedOnce = false;
  size_t SealedN = 0;
  size_t DroppedN = 0;
  size_t SealedBytes = 0;
  size_t Lookups = 0;
  size_t Hits = 0;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_SWITCHEDRUNSTORE_H
