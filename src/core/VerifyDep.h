//===-- core/VerifyDep.h - Implicit dependence verification ------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implicit dependence verification: the paper's VerifyDep() (section
/// 3.2), realizing Definition 2 (implicit dependence) and Definition 4
/// (strong implicit dependence).
///
/// To test whether use u implicitly depends on predicate instance p, the
/// program is re-executed with p's branch outcome switched and the two
/// runs are aligned (Algorithm 1):
///  - if the point matching the wrong output exists in the switched run
///    and carries the expected value vexp, the dependence is STRONG;
///  - if u has no matching point, the dependence holds (u was affected);
///  - if u's match exists but its reaching definition lies inside the
///    switched predicate's region, a new definition reached u: the
///    dependence holds (the paper's deliberately "unsafe" edge-based
///    check -- cheaper than full path reasoning, see section 3.2);
///  - otherwise there is no implicit dependence.
///
/// A switched run that exhausts its step budget or crashes simply fails
/// to produce matches, which the paper treats as "verification fails".
///
/// Concurrency: locateFault verifies on its calling thread, one request
/// at a time, but the verifier stays safe to call from multiple threads.
/// The switched-run cache is a mutex-guarded map of once-initialized
/// cells, so one re-execution serves every use verified against the same
/// predicate instance even under concurrent demand; verdicts are
/// memoized under a second mutex. Each re-execution leases recycled
/// interpreter state from an internal ExecContextPool, and the snapshot
/// store it resumes from is only read. Verdicts are pure
/// functions of (program, input, switched predicate instance, use), so
/// results -- and the Verifications / Reexecutions counters, which count
/// distinct keys -- do not depend on which thread asks, or in which
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_VERIFYDEP_H
#define EOE_CORE_VERIFYDEP_H

#include "align/Aligner.h"
#include "interp/ExecContext.h"
#include "interp/Interpreter.h"
#include "slicing/OutputVerdicts.h"
#include "support/EventTracer.h"
#include "support/Stats.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

namespace eoe {
namespace core {

/// Outcome of one verification (the paper's STRONG_ID / ID / NOT_ID).
enum class DepVerdict { StrongImplicit, Implicit, NotImplicit };

/// Returns "STRONG_ID" / "ID" / "NOT_ID".
const char *depVerdictName(DepVerdict V);

/// Verifies implicit dependences against one failing execution,
/// re-executing with predicate switches on demand. Switched runs and
/// their alignments are cached per predicate instance, so verifying many
/// uses against the same predicate costs one re-execution.
class ImplicitDepVerifier {
public:
  struct Config {
    /// Step budget for switched runs (the paper's timer).
    uint64_t MaxSteps = 2'000'000;
    /// Definition 2 asks for an explicit dependence *path* between p'
    /// and u' in the switched run; the paper's VerifyDep deliberately
    /// checks only a single data *edge* (u's matched definition inside
    /// p's region), trading a documented unsoundness for far fewer fault
    /// candidates per step (section 3.2). Enable this to use the safe
    /// path check instead.
    bool UsePathCheck = false;
    /// External observability sinks. When Stats is null the verifier
    /// records into a private registry, so the distinct-key counters (and
    /// their accessors) work identically either way; when Tracer is null
    /// no spans are emitted.
    support::StatsRegistry *Stats = nullptr;
    support::EventTracer *Tracer = nullptr;
  };

  /// \p E must be the unswitched trace of running \p Input. \p Snapshots,
  /// when given, holds snapshots the run that recorded \p E captured
  /// (docs/checkpointing.md), and must outlive the verifier: a switched
  /// run then resumes from the nearest one at or before its switch,
  /// sharing E's prefix instead of replaying it, with byte-identical
  /// results. Without it every switched run replays in full. Their
  /// capture must have stopped at Config::MaxSteps executed steps.
  ImplicitDepVerifier(const interp::Interpreter &Interp,
                      const interp::ExecutionTrace &E,
                      std::vector<int64_t> Input,
                      const slicing::OutputVerdicts &V, Config C,
                      const interp::CheckpointStore *Snapshots = nullptr);
  ~ImplicitDepVerifier();

  /// VerifyDep(p, u): does the use at (\p UseInst, \p UseLoad) implicitly
  /// depend on predicate instance \p PredInst? Thread-safe.
  DepVerdict verify(TraceIdx PredInst, TraceIdx UseInst, ExprId UseLoad);

  /// Number of distinct (p, u) verifications performed (Table 3). A thin
  /// view over the registry's verify.verifications counter: one atomic
  /// metric serves the accessor, --stats, and the bench dumps, so there
  /// is a single source of truth and snapshotting involves no locks.
  size_t verificationCount() const { return CVerifications->get(); }

  /// Number of switched re-executions actually run (Table 4's Verif cost
  /// driver; smaller than verificationCount thanks to caching). Thin view
  /// over verify.reexecutions.
  size_t reexecutionCount() const { return CReexecutions->get(); }

  /// The registry verification metrics land in: the externally configured
  /// one, else the verifier's private fallback. Never null.
  support::StatsRegistry &stats() { return *Reg; }

  /// The configured tracer; null when tracing is off.
  support::EventTracer *tracer() const { return C.Tracer; }

  /// The switched run used to verify against \p PredInst (for reports).
  const interp::ResumedTrace *switchedRun(TraceIdx PredInst) const;

private:
  /// One cached switched run. Cells are created under RunsMutex but
  /// computed outside it via call_once, so concurrent demands for
  /// *different* predicates re-execute in parallel while concurrent
  /// demands for the *same* predicate share one re-execution.
  struct SwitchedRun {
    std::once_flag Computed;
    std::atomic<bool> Ready{false};
    /// Shares its prefix with E.
    interp::ResumedTrace Trace;
    std::unique_ptr<align::ExecutionAligner> Aligner;
    /// Instances explicitly (data/control) reachable from the switched
    /// predicate in the switched run; built on demand for the path
    /// check.
    std::once_flag ReachableOnce;
    std::vector<bool> ReachableFromSwitch;
  };

  SwitchedRun &cellFor(TraceIdx PredInst);
  SwitchedRun &switchedRunFor(TraceIdx PredInst);
  /// Re-executes with predicate instance \p PredInst switched, resuming
  /// from the nearest snapshot at or before it, and builds the run's
  /// alignment.
  void computeRun(TraceIdx PredInst, SwitchedRun &Run);
  /// verify()'s verdict ladder: classifies (UseInst, UseLoad) against one
  /// switched run. Pure given the run.
  DepVerdict classify(SwitchedRun &Run, TraceIdx UseInst, ExprId UseLoad);
  const std::vector<bool> &reachableFromSwitch(SwitchedRun &Run);

  const interp::Interpreter &Interp;
  const interp::ExecutionTrace &E;
  std::vector<int64_t> Input;
  const slicing::OutputVerdicts &V;
  Config C;

  mutable std::mutex RunsMutex;
  std::map<TraceIdx, std::unique_ptr<SwitchedRun>> Runs;
  std::mutex VerdictMutex;
  std::map<std::tuple<TraceIdx, TraceIdx, ExprId>, DepVerdict> VerdictCache;

  /// Fallback registry when none is configured; Reg points at it or at
  /// C.Stats. The paper's Table 3/4 counters used to be two ad-hoc
  /// atomics here -- they now live in the registry so one mechanism
  /// covers accessors, JSON dumps, and snapshots.
  support::StatsRegistry OwnStats;
  support::StatsRegistry *Reg = nullptr;
  support::StatCounter *CVerifications = nullptr;
  support::StatCounter *CReexecutions = nullptr;
  support::StatCounter *CVerdictCacheHits = nullptr;
  support::StatCounter *CVerdictCacheMisses = nullptr;
  support::StatCounter *CVerdictStrong = nullptr;
  support::StatCounter *CVerdictImplicit = nullptr;
  support::StatCounter *CVerdictNot = nullptr;
  support::StatCounter *CReexecAborts = nullptr;
  support::StatCounter *CCkptHits = nullptr;
  support::StatCounter *CCkptMisses = nullptr;
  support::StatTimer *TReexec = nullptr;
  support::StatTimer *TLatStrong = nullptr;
  support::StatTimer *TLatImplicit = nullptr;
  support::StatTimer *TLatNot = nullptr;
  support::StatHistogram *HReexecSteps = nullptr;

  /// Recycled per-run interpreter state for switched re-executions.
  interp::ExecContextPool Arena;

  /// Snapshots of the run that recorded E; null for full replay.
  const interp::CheckpointStore *Ckpts;

  /// The original trace's region tree, built once and shared by every
  /// aligner (it is identical across all switched runs).
  std::once_flag OrigTreeOnce;
  std::unique_ptr<align::RegionTree> OrigTree;
};

} // namespace core
} // namespace eoe

#endif // EOE_CORE_VERIFYDEP_H
