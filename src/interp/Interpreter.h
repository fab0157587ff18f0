//===-- interp/Interpreter.h - Tracing interpreter ---------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing interpreter: Siml's execution substrate, standing in for
/// the paper's valgrind-based online component. One run yields an
/// ExecutionTrace carrying the full dynamic dependence information, and
/// optionally applies a predicate switch (the paper section 3's forced
/// branch outcome) at a chosen predicate instance.
///
/// Executions are deterministic functions of (program, input, switch
/// spec), which is what makes instance numbers stable between an original
/// and a switched run up to the switch point.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_INTERP_INTERPRETER_H
#define EOE_INTERP_INTERPRETER_H

#include "analysis/StaticAnalysis.h"
#include "interp/Checkpoint.h"
#include "interp/ExecContext.h"
#include "interp/Trace.h"
#include "lang/AST.h"
#include "support/Stats.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace eoe {
namespace interp {

/// Executes Siml programs with full dependence tracing.
class Interpreter {
public:
  struct Options {
    /// Statement-instance budget; hitting it ends the run with
    /// ExitReason::StepLimit. This implements the paper's verification
    /// timer ("we set a timer which if expires, we aggressively conclude
    /// the verification fails").
    uint64_t MaxSteps = 5'000'000;
    /// Optional predicate switch to apply.
    std::optional<SwitchSpec> Switch;
    /// Optional value perturbation to apply (mutually exclusive with
    /// Switch in practice; both honored if given).
    std::optional<PerturbSpec> Perturb;
    /// When false, the program runs without recording steps, uses, or
    /// definitions (outputs are still collected). This is the "Plain"
    /// baseline of the paper's Table 4 -- execution without the
    /// dependence-graph instrumentation.
    bool Trace = true;
    /// When set, this (tracing) run snapshots interpreter state into
    /// Checkpoints->Store at the predicate instances the plan's schedule
    /// picks, skipping instances reached through a non-statement-root
    /// call (see Checkpoint.h). The plan's schedule state and SkippedDirty
    /// are written back. The trace is the one the run records without a
    /// plan. Ignored by runFrom.
    CheckpointPlan *Checkpoints = nullptr;
  };

  /// \p Analysis must have been built for \p Prog. When \p Stats is
  /// given, every run records per-run cost into it (interp.runs,
  /// interp.steps, interp.run_time, ...); the instrumentation is per run,
  /// not per step, so the enabled overhead is a handful of atomic adds
  /// per execution and the disabled overhead is one branch.
  Interpreter(const lang::Program &Prog,
              const analysis::StaticAnalysis &Analysis,
              support::StatsRegistry *Stats = nullptr);

  /// Runs the program on \p Input and returns the trace.
  ExecutionTrace run(const std::vector<int64_t> &Input,
                     const Options &Opts) const;

  /// Same, executing on \p Ctx's recycled buffers. The interpreter itself
  /// is immutable, so concurrent runs are safe as long as each supplies
  /// its own context (the verifier leases one per re-execution from an
  /// ExecContextPool).
  ExecutionTrace run(const std::vector<int64_t> &Input, const Options &Opts,
                     ExecContext &Ctx) const;

  /// Runs with default options (no switch, default step budget).
  ExecutionTrace run(const std::vector<int64_t> &Input) const {
    return run(Input, Options());
  }

  /// Convenience: runs with \p Spec switched. When \p Ctx is given the
  /// run executes on its recycled buffers (callers looping over switched
  /// runs should reuse one context instead of paying a fresh shadow-state
  /// allocation per call).
  ExecutionTrace runSwitched(const std::vector<int64_t> &Input,
                             SwitchSpec Spec, uint64_t MaxSteps,
                             ExecContext *Ctx = nullptr) const;

  /// Resumes execution from \p CP, reading the prefix from \p SpliceFrom
  /// (the trace of the run that captured \p CP, or any trace holding its
  /// first CP.Index steps) instead of re-executing it. \p Input must be
  /// the input of the capturing run. Read through its accessors, the
  /// result is byte-identical to run(Input, Opts) for any Opts whose
  /// switch/perturbation targets lie at or after CP.Index and whose
  /// MaxSteps is no lower than the capturing run's budget at capture
  /// time. It records only the steps from CP.Index on and the call
  /// records open at the capture, and reads the rest from \p SpliceFrom,
  /// which must outlive it.
  ///
  /// Opts.Trace must be true; Opts.Checkpoints is ignored. Executes on
  /// \p Ctx's recycled buffers, like run().
  ResumedTrace runFrom(const Checkpoint &CP, const ExecutionTrace &SpliceFrom,
                       const std::vector<int64_t> &Input, const Options &Opts,
                       ExecContext &Ctx) const;
  /// The result reads its prefix from \p SpliceFrom: a temporary would
  /// dangle.
  ResumedTrace runFrom(const Checkpoint &CP, const ExecutionTrace &&SpliceFrom,
                       const std::vector<int64_t> &Input, const Options &Opts,
                       ExecContext &Ctx) const = delete;

private:
  const lang::Program &Prog;
  const analysis::StaticAnalysis &Analysis;

  /// Metric handles resolved once at construction; all null when the
  /// interpreter runs unobserved.
  support::StatCounter *CRuns = nullptr;
  support::StatCounter *CSwitchedRuns = nullptr;
  support::StatCounter *CResumedRuns = nullptr;
  support::StatCounter *CSplicedSteps = nullptr;
  support::StatCounter *CSteps = nullptr;
  support::StatCounter *CTraceBytes = nullptr;
  support::StatCounter *COutputs = nullptr;
  support::StatCounter *CAborts = nullptr;
  support::StatTimer *TRunTime = nullptr;
  support::StatTimer *TSpliceTime = nullptr;

  /// Records one run's cost: its logical length, the bytes of the
  /// records it holds, its outputs and exit.
  void record(size_t Steps, size_t Bytes, size_t Outputs, ExitReason Exit,
              bool Switched, bool Resumed, TraceIdx Spliced) const;
};

} // namespace interp
} // namespace eoe

#endif // EOE_INTERP_INTERPRETER_H
