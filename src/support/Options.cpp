//===-- support/Options.cpp - Shared flag parsing --------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace eoe {
namespace support {

namespace {

/// Matches Argv[I] against \p Name in both "--flag=value" and
/// "--flag value" forms. On a match returns true with \p Val filled
/// (advancing \p I for the two-token form); a matched flag with no
/// value prints an error and sets \p Err.
bool takeValue(int Argc, char **Argv, int &I, const char *Name,
               std::string &Val, bool &Err) {
  const char *Arg = Argv[I];
  size_t NameLen = std::strlen(Name);
  if (std::strncmp(Arg, Name, NameLen) == 0 && Arg[NameLen] == '=') {
    Val = Arg + NameLen + 1;
    return true;
  }
  if (std::strcmp(Arg, Name) == 0) {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Name);
      Err = true;
      return true;
    }
    Val = Argv[++I];
    return true;
  }
  return false;
}

} // namespace

ParseResult parseCommonOption(int Argc, char **Argv, int &I, Options &O,
                              CommonCliState *Cli) {
  bool Err = false;
  std::string V;
  auto Take = [&](const char *Name) {
    return takeValue(Argc, Argv, I, Name, V, Err);
  };
  auto Mebibytes = [&]() {
    return static_cast<size_t>(std::strtoull(V.c_str(), nullptr, 10)) << 20;
  };

  if (Take("--max-steps")) {
    if (Err)
      return ParseResult::Error;
    O.Exec.MaxSteps = std::strtoull(V.c_str(), nullptr, 10);
    return ParseResult::Ok;
  }
  if (Take("--threads")) {
    if (Err)
      return ParseResult::Error;
    O.Exec.Threads = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    return ParseResult::Ok;
  }
  if (Take("--checkpoints")) {
    if (Err)
      return ParseResult::Error;
    O.Reuse.Checkpoints =
        V == "off" ? interp::CheckpointsOff
        : V == "auto"
            ? interp::CheckpointStrideAuto
            : static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    return ParseResult::Ok;
  }
  if (Take("--checkpoint-mem")) {
    if (Err)
      return ParseResult::Error;
    O.Reuse.CheckpointMemBytes = Mebibytes();
    return ParseResult::Ok;
  }
  if (Take("--chain-depth")) {
    if (Err)
      return ParseResult::Error;
    O.Reuse.ChainDepth =
        static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    return ParseResult::Ok;
  }
  if (Take("--chain-budget")) {
    if (Err)
      return ParseResult::Error;
    O.Reuse.ChainBudget =
        static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    return ParseResult::Ok;
  }
  if (Cli) {
    if (std::strcmp(Argv[I], "--stats") == 0) {
      Cli->Stats = true;
      return ParseResult::Ok;
    }
    if (std::strcmp(Argv[I], "--stats=json") == 0) {
      Cli->Stats = true;
      Cli->StatsJson = true;
      return ParseResult::Ok;
    }
    if (Take("--trace-out")) {
      if (Err)
        return ParseResult::Error;
      Cli->TraceOut = V;
      return ParseResult::Ok;
    }
  }
  return ParseResult::NoMatch;
}

const char *commonOptionsHelp() {
  return
      "common options:\n"
      "  --max-steps N         step budget (default 5000000)\n"
      "  --threads N           verification worker threads (locate);\n"
      "                        0 = all hardware threads, 1 = serial\n"
      "  --stats[=json]        per-phase pipeline statistics: a table on\n"
      "                        stderr, or =json for schema eoe-stats-v1\n"
      "                        JSON as the last stdout line\n"
      "  --trace-out=FILE      write a Chrome trace_event JSON timeline\n"
      "                        (open in chrome://tracing or Perfetto)\n"
      "checkpoint options (locate; every knob yields bit-identical\n"
      "reports -- they only trade re-execution work for memory):\n"
      "  --checkpoints=N|auto|off\n"
      "                        checkpoint stride for switched runs:\n"
      "                        snapshot every Nth candidate predicate\n"
      "                        instance and resume instead of replaying\n"
      "                        the prefix; auto (default) tunes the\n"
      "                        stride from trace length, candidate\n"
      "                        density, and the memory budget; off = full\n"
      "                        replay\n"
      "  --checkpoint-mem MB   checkpoint LRU memory budget in MiB\n"
      "                        (default 256)\n"
      "chain options (locate; multi-switch perturbation chains --\n"
      "bit-identical at any thread count):\n"
      "  --chain-depth=N       maximum decisions per perturbation chain:\n"
      "                        1 (default) issues only single-switch\n"
      "                        runs, N>=2 lets the locator extend\n"
      "                        inconclusive single-switch verdicts with\n"
      "                        follow-up switches\n"
      "  --chain-budget=N      total chained re-executions allowed per\n"
      "                        locate call (default 32)\n";
}

} // namespace support
} // namespace eoe
