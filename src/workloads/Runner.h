//===-- workloads/Runner.h - Experiment driver -------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver reproducing the paper's evaluation protocol for
/// one fault:
///
///  Phase A ("manual OS identification"): run the demand-driven locator
///  with an oracle that knows only the root cause; once located, derive
///  OS -- the failure-inducing chain -- from the expanded graph.
///
///  Phase B (the measured run): a fresh session whose oracle answers the
///  paper's way ("statement instances not in OS were selected from the
///  pruned slice in order as being benign"), producing Table 3's user
///  prunings / verifications / iterations / expanded edges / IPS, with
///  Table 2's RS / DS / PS computed on the same failing execution.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_WORKLOADS_RUNNER_H
#define EOE_WORKLOADS_RUNNER_H

#include "core/DebugSession.h"
#include "support/Options.h"
#include "workloads/Workloads.h"

#include <memory>
#include <optional>

namespace eoe {
namespace workloads {

/// Oracle that knows the root cause; optionally also the OS chain for
/// benign answers (the paper's protocol).
class ProtocolOracle : public slicing::Oracle {
public:
  ProtocolOracle(StmtId Root, const std::vector<bool> *Chain)
      : Root(Root), Chain(Chain) {}

  bool isBenign(TraceIdx I) override { return Chain && !(*Chain)[I]; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
  const std::vector<bool> *Chain;
};

/// Everything the benches report about one fault.
struct ExperimentResult {
  std::string FaultId;
  bool Valid = false;

  // Table 2.
  ddg::SliceStats RS, DS, PS;
  size_t RSPotentialEdges = 0;
  bool RSHasRoot = false, DSHasRoot = false, PSHasRoot = false;

  // Table 3 (from the measured phase-B run).
  core::LocateReport Report;
  ddg::SliceStats OS;

  // Table 4 (seconds; only filled when Options::MeasureTimes).
  double PlainSeconds = 0;
  double GraphSeconds = 0;
  double VerifySeconds = 0;

  size_t TraceLength = 0;
};

/// Runs the full protocol for one fault.
class FaultRunner {
public:
  struct Options {
    slicing::PotentialDepAnalyzer::Backend Backend =
        slicing::PotentialDepAnalyzer::Backend::Static;
    bool VerifyFanout = true;
    bool OnePerPredicate = true;
    bool UsePathCheck = false;
    bool MeasureTimes = false;
    /// Skip the (slow) relevant-slice computation when only Table 3 is
    /// needed.
    bool ComputeSlices = true;

    /// The unified knob bundle (support/Options.h), forwarded wholesale
    /// into both DebugSessions the protocol creates: Opt.Reuse carries the
    /// checkpoint knobs, Opt.Exec the step budget and the observability
    /// sinks.
    eoe::Options Opt;
  };

  explicit FaultRunner(const FaultInfo &Fault);

  /// False when the fault did not reproduce (fixed and faulty outputs
  /// agree) -- treated as a harness bug by the benches.
  bool valid() const { return Valid; }

  /// The faulty program's root cause statement.
  StmtId rootCause() const { return Root; }

  /// Executes the two-phase protocol and collects all numbers.
  ExperimentResult run(const Options &Opts);

  /// Expected (fixed-program) outputs on the failing input.
  const std::vector<int64_t> &expectedOutputs() const { return Expected; }

  const lang::Program &faultyProgram() const { return *Faulty; }

private:
  std::unique_ptr<core::DebugSession> makeSession(const Options &Opts) const;

  const FaultInfo &Fault;
  std::unique_ptr<lang::Program> Faulty;
  std::unique_ptr<lang::Program> Fixed;
  std::vector<int64_t> Expected;
  StmtId Root = InvalidId;
  bool Valid = false;
};

} // namespace workloads
} // namespace eoe

#endif // EOE_WORKLOADS_RUNNER_H
