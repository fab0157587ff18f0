//===-- core/DebugSession.h - End-to-end debugging facade --------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level public API: owns every stage of the paper's pipeline for
/// one failing program run --
///
///   parse/check -> static analysis -> profile test suite (value profile,
///   and union deps under the UnionGraph backend) -> trace the failing
///   run, capturing resume snapshots
///   -> label outputs -> DS / RS / PS baselines -> demand-driven
///   implicit-dependence location.
///
/// This mirrors the paper's prototype structure: an online component
/// (tracing interpreter), a static component (CFG + control dependence +
/// union dependence graph), and the debugging component (confidence
/// pruning, demand-driven expansion, verification).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_DEBUGSESSION_H
#define EOE_CORE_DEBUGSESSION_H

#include "analysis/StaticAnalysis.h"
#include "core/LocateFault.h"
#include "core/VerifyDep.h"
#include "ddg/DepGraph.h"
#include "interp/Interpreter.h"
#include "interp/Profiler.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/RelevantSlicer.h"
#include "support/Options.h"

#include <memory>
#include <optional>
#include <vector>

namespace eoe {

//===----------------------------------------------------------------------===//
// Compatibility shims. e2ebench/Bench.cpp constructs a cross-input
// checkpoint store and a switched-run store per two-phase subject, wires
// them into DebugSession::Config::{SharedCheckpoints, SwitchedRuns} and
// seals the latter between the phases (with
// ReuseOptions::SwitchedCacheBytes as its budget). Both layers are gone:
// these types hold and do nothing, nothing reads the two Config fields,
// and no other code uses any of them. e2ebench also sets
// ExecOptions::Threads to 1; verification always runs on the calling
// thread, and nothing reads that field either. They go together with a
// benchmark edit that drops that wiring.
//===----------------------------------------------------------------------===//
namespace interp {
class SharedCheckpointStore {};
class SwitchedRunStore {
public:
  explicit SwitchedRunStore(size_t) {}
  void seal() {}
};
} // namespace interp

namespace core {

/// A complete debugging session over one failing input.
class DebugSession {
public:
  struct Config {
    /// Backend for Definition 1(iv); the paper's prototype used the
    /// profile-union graph, the pure static backend is more conservative.
    /// The test-suite profile fills the union graph only for UnionGraph.
    slicing::PotentialDepAnalyzer::Backend PDBackend =
        slicing::PotentialDepAnalyzer::Backend::Static;
    /// Compatibility shims (see above); never read.
    interp::SharedCheckpointStore *SharedCheckpoints = nullptr;
    interp::SwitchedRunStore *SwitchedRuns = nullptr;
    /// Algorithm 2 tunables.
    LocateConfig Locate;
    /// The unified knob bundle (support/Options.h): Opt.Exec.MaxSteps is
    /// the failing-run step budget, Opt.Exec.Stats/Tracer the
    /// observability sinks wired through every pipeline layer, and
    /// Opt.Reuse the checkpoint knobs. The failing run captures the
    /// checkpoints itself, none past Locate.MaxSteps.
    eoe::Options Opt;
  };

  /// \p Prog must outlive the session. \p ExpectedOutputs is the output
  /// sequence of the correct program on \p FailingInput (how vexp and the
  /// Ov/o-cross labels are derived). \p TestSuite are passing inputs used
  /// for profiling; may be empty.
  DebugSession(const lang::Program &Prog, std::vector<int64_t> FailingInput,
               std::vector<int64_t> ExpectedOutputs,
               std::vector<std::vector<int64_t>> TestSuite, Config C);

  /// Same, with default configuration.
  DebugSession(const lang::Program &Prog, std::vector<int64_t> FailingInput,
               std::vector<int64_t> ExpectedOutputs,
               std::vector<std::vector<int64_t>> TestSuite)
      : DebugSession(Prog, std::move(FailingInput), std::move(ExpectedOutputs),
                     std::move(TestSuite), Config()) {}

  /// False when the run produced no observable wrong value (nothing to
  /// debug). All further queries require hasFailure().
  bool hasFailure() const { return Verdicts.has_value(); }

  const lang::Program &program() const { return Prog; }
  const analysis::StaticAnalysis &staticAnalysis() const { return SA; }
  const interp::Interpreter &interpreter() const { return Interp; }
  const interp::ExecutionTrace &trace() const { return Trace; }
  const interp::Profile &profile() const { return Prof; }
  const slicing::OutputVerdicts &verdicts() const { return *Verdicts; }
  ddg::DepGraph &graph() { return *Graph; }
  const ddg::DepGraph &graph() const { return *Graph; }
  const slicing::PotentialDepAnalyzer &potentialDeps() const { return *PD; }

  /// Classic dynamic slice of the wrong output (Table 2's DS).
  slicing::SliceResult dynamicSlice() const;

  /// Relevant slice of the wrong output (Table 2's RS).
  slicing::RelevantSliceResult relevantSlice() const;

  /// Automatically pruned dynamic slice (Table 2's PS): confidence
  /// pruning from Ov and o-cross with no user interaction.
  std::vector<TraceIdx> prunedSlice() const;

  /// Runs the paper's Algorithm 2; adds verified implicit edges to
  /// graph() and returns the Table 3 counters.
  LocateReport locate(slicing::Oracle &O);

  /// OS (the failure-inducing chain) on the current graph; meaningful
  /// after locate() has added the implicit edges.
  std::vector<bool> failureChain(StmtId RootCause) const;

  /// The verifier, exposed so examples can verify single dependences.
  ImplicitDepVerifier &verifier() { return *Verifier; }

  /// The snapshots the failing run captured for the verifier to resume
  /// from; null when Opt.Reuse.Checkpoints is off.
  const interp::CheckpointStore *checkpoints() const {
    return Snapshots ? &*Snapshots : nullptr;
  }

private:
  const lang::Program &Prog;
  std::vector<int64_t> FailingInput;
  std::vector<int64_t> ExpectedOutputs;
  Config C;

  analysis::StaticAnalysis SA;
  interp::Interpreter Interp;
  interp::Profile Prof;
  interp::ExecutionTrace Trace;
  std::optional<interp::CheckpointStore> Snapshots;
  std::optional<slicing::OutputVerdicts> Verdicts;
  std::unique_ptr<ddg::DepGraph> Graph;
  std::unique_ptr<slicing::PotentialDepAnalyzer> PD;
  std::unique_ptr<ImplicitDepVerifier> Verifier;
};

} // namespace core
} // namespace eoe

#endif // EOE_CORE_DEBUGSESSION_H
