//===-- support/Options.h - Unified configuration surface --------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one configuration surface shared by `DebugSession::Config` and
/// `FaultRunner::Options` (and handed to `core::locateFault`).
/// `eoe::Options` is embedded by value in both, so a knob added here is
/// immediately available everywhere, and `support::parseCommonOption` is
/// the single flag parser (used by `eoec` and the benches) so the CLI and
/// the structs cannot drift.
///
/// The split mirrors what the knobs govern:
///  - `ReuseOptions`: everything that only trades re-execution work for
///    memory/disk -- checkpoint stride/budget, the switched-run cache,
///    the persistent cache directory, and the perturbation-chain
///    depth/budget. Every combination yields bit-identical reports.
///  - `ExecOptions`: execution-shape knobs -- step budget, worker
///    threads, and the observability sinks.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SUPPORT_OPTIONS_H
#define EOE_SUPPORT_OPTIONS_H

#include "interp/Checkpoint.h"
#include "interp/SwitchedRunStore.h"

#include <cstdint>
#include <string>

namespace eoe {

namespace support {
class StatsRegistry;
class EventTracer;
} // namespace support

/// Default maximum decisions per perturbation chain. 1 means chaining is
/// off: the locator only ever issues single-switch runs (the pre-chain
/// behavior). Depth >= 2 lets `core::ChainSearch` extend inconclusive
/// single-switch verdicts with follow-up switches (paper section 5's
/// perturbation chains).
inline constexpr unsigned DefaultChainDepth = 1;

/// Default total chained re-executions allowed per locate call. The
/// budget is consumed deterministically (serial chain enumeration), so
/// any value is thread-count invariant.
inline constexpr unsigned DefaultChainBudget = 32;

/// Reuse/caching knobs. Every field only trades re-execution work for
/// memory or disk: all combinations produce bit-identical locate
/// reports at any thread count.
struct ReuseOptions {
  /// Checkpoint stride for switched runs: snapshot every Nth candidate
  /// predicate instance and resume instead of replaying the prefix.
  /// interp::CheckpointStrideAuto (default) tunes the stride from trace
  /// length, candidate density, and the memory budget;
  /// interp::CheckpointsOff disables checkpointing (full replay).
  unsigned Checkpoints = interp::CheckpointStrideAuto;
  /// Checkpoint LRU memory budget in bytes.
  size_t CheckpointMemBytes = interp::DefaultCheckpointMemBytes;
  /// Delta-compress consecutive snapshots, charging the budget with
  /// encoded bytes.
  bool CheckpointDelta = true;
  /// Promote input-independent snapshots into a cross-session store.
  bool CheckpointShare = true;
  /// Persistent checkpoint cache directory: load input-independent
  /// snapshots on start, write them back atomically on exit. Empty =
  /// no persistence. Requires CheckpointShare.
  std::string CheckpointDir;
  /// After saving, cap CheckpointDir at this many bytes (stale-tmp
  /// age-out, then oldest-mtime eviction). 0 = unlimited.
  size_t CheckpointDirCapBytes = 0;
  /// Switched-run snapshot cache budget in bytes: capture
  /// divergence-keyed snapshots past the switch point and resume deeper
  /// switched runs from them. 0 = always interpret the full switched
  /// run.
  size_t SwitchedCacheBytes = interp::DefaultSwitchedCacheBytes;
  /// Maximum decisions per perturbation chain (1 = chaining off).
  unsigned ChainDepth = DefaultChainDepth;
  /// Total chained re-executions allowed per locate call.
  unsigned ChainBudget = DefaultChainBudget;
};

/// Execution-shape knobs: budgets, parallelism, observability.
struct ExecOptions {
  /// Statement-instance budget for the failing run.
  uint64_t MaxSteps = 5'000'000;
  /// Verification worker threads. 0 = all hardware threads, 1 = the
  /// serial reference (bit-identical to any other value).
  unsigned Threads = 0;
  /// Optional metrics sink; null = observability disabled.
  support::StatsRegistry *Stats = nullptr;
  /// Optional Chrome trace_event sink; null = disabled.
  support::EventTracer *Tracer = nullptr;
};

/// The unified knob bundle embedded in DebugSession::Config and
/// FaultRunner::Options.
struct Options {
  ReuseOptions Reuse;
  ExecOptions Exec;
};

namespace support {

/// Result of offering one argv slot to the common-option parser.
enum class ParseResult {
  Ok,      ///< Consumed (possibly also the following value token).
  NoMatch, ///< Not a common option; caller handles it.
  Error,   ///< Recognized but malformed (message already printed).
};

/// Observability flags that need main()-owned sinks rather than Options
/// fields: parseCommonOption records the request here and the front end
/// wires Stats/Tracer pointers itself.
struct CommonCliState {
  bool Stats = false;
  bool StatsJson = false;
  std::string TraceOut;
};

/// Offers Argv[I] to the shared flag parser. Handles every
/// ReuseOptions/ExecOptions field (--max-steps, --threads,
/// --checkpoints, --checkpoint-mem, --checkpoint-delta,
/// --checkpoint-share, --switched-cache, --checkpoint-dir,
/// --checkpoint-dir-cap, --chain-depth, --chain-budget) in both
/// "--flag=value" and "--flag value" forms, plus --stats[=json] /
/// --trace-out when \p Cli is given. Advances \p I past a consumed
/// value token.
ParseResult parseCommonOption(int Argc, char **Argv, int &I, Options &O,
                              CommonCliState *Cli = nullptr);

/// The help text for everything parseCommonOption accepts, grouped into
/// "common options:", "checkpoint options ...", and "chain options ..."
/// sections. Front ends print this after their command-specific flags
/// so the CLI surface and the Options structs share one source of
/// truth.
const char *commonOptionsHelp();

} // namespace support
} // namespace eoe

#endif // EOE_SUPPORT_OPTIONS_H
