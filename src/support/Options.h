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
///  - `ReuseOptions`: checkpointing on or off and its byte budget, which
///    only trade re-execution work for memory (every combination yields
///    bit-identical reports).
///  - `ExecOptions`: execution-shape knobs -- the step budget and the
///    observability sinks.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_SUPPORT_OPTIONS_H
#define EOE_SUPPORT_OPTIONS_H

#include "interp/Checkpoint.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace eoe {

namespace support {
class StatsRegistry;
class EventTracer;
} // namespace support

/// Re-execution knobs. They only trade re-execution work for memory: all
/// their combinations produce bit-identical locate reports.
struct ReuseOptions {
  /// Checkpointed re-execution: the failing run snapshots the
  /// interpreter state on interp::CheckpointPlan's schedule, and switched
  /// runs resume from those snapshots instead of replaying the prefix.
  /// Off = full replay.
  bool Checkpoints = true;
  /// Byte budget for the retained snapshots; past it the store thins.
  size_t CheckpointMemBytes = interp::DefaultCheckpointMemBytes;

  /// Compatibility shim (see the block in core/DebugSession.h): the
  /// switched-run cache is gone, and e2ebench still reads its budget
  /// here. Not settable.
  static constexpr size_t SwitchedCacheBytes = 0;
};

/// Execution-shape knobs: the step budget and observability.
struct ExecOptions {
  /// Statement-instance budget for the failing run.
  uint64_t MaxSteps = 5'000'000;
  /// Compatibility shim (see the block in core/DebugSession.h):
  /// verification runs on the calling thread, and e2ebench still sets
  /// this. Nothing reads it.
  unsigned Threads = 1;
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

/// Offers Argv[I] to the shared flag parser. Handles every settable
/// ReuseOptions/ExecOptions field (--max-steps, --checkpoints,
/// --checkpoint-mem) in both "--flag=value" and "--flag value" forms,
/// plus --stats[=json] / --trace-out when \p Cli is given. Advances \p I
/// past a consumed value token. A numeric value that is not a whole decimal number in
/// range, or a --checkpoints value other than auto or off, prints an
/// error naming the flag and returns Error.
ParseResult parseCommonOption(int Argc, char **Argv, int &I, Options &O,
                              CommonCliState *Cli = nullptr);

/// Stores \p Text, the value given for flag \p Flag, in \p Out when it is
/// a whole decimal number no larger than \p Max (parseDecimal); otherwise
/// prints an "error:" line naming the flag and returns false. Every
/// numeric command-line flag goes through this.
template <typename T>
bool parseFlagNumber(const char *Flag, std::string_view Text, T &Out,
                     T Max = std::numeric_limits<T>::max()) {
  if (std::optional<T> N = parseDecimal<T>(Text, Max)) {
    Out = *N;
    return true;
  }
  std::fprintf(stderr,
               "error: %s takes a whole decimal number from %s to %s, got "
               "'%.*s'\n",
               Flag, std::to_string(std::numeric_limits<T>::min()).c_str(),
               std::to_string(Max).c_str(), static_cast<int>(Text.size()),
               Text.data());
  return false;
}

/// The help text for everything parseCommonOption accepts, grouped into
/// "common options:" and "checkpoint options ..." sections. Front ends print this after their command-specific flags
/// so the CLI surface and the Options structs share one source of
/// truth.
const char *commonOptionsHelp();

} // namespace support
} // namespace eoe

#endif // EOE_SUPPORT_OPTIONS_H
