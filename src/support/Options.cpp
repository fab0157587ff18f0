//===-- support/Options.cpp - Shared flag parsing --------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <cstdint>
#include <cstdio>
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

  if (Take("--max-steps"))
    return !Err && parseFlagNumber("--max-steps", V, O.Exec.MaxSteps)
               ? ParseResult::Ok
               : ParseResult::Error;
  if (Take("--checkpoints")) {
    if (Err)
      return ParseResult::Error;
    if (V != "auto" && V != "off") {
      std::fprintf(stderr, "error: --checkpoints takes auto or off, got '%s'\n",
                   V.c_str());
      return ParseResult::Error;
    }
    O.Reuse.Checkpoints = V == "auto";
    return ParseResult::Ok;
  }
  if (Take("--checkpoint-mem")) {
    // MiB, shifted to bytes: the largest value is the one that still
    // fits after the shift.
    size_t MiB = 0;
    if (Err || !parseFlagNumber("--checkpoint-mem", V, MiB, SIZE_MAX >> 20))
      return ParseResult::Error;
    O.Reuse.CheckpointMemBytes = MiB << 20;
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
      "  --stats[=json]        per-phase pipeline statistics: a table on\n"
      "                        stderr, or =json for schema eoe-stats-v1\n"
      "                        JSON as the last stdout line\n"
      "  --trace-out=FILE      write a Chrome trace_event JSON timeline\n"
      "                        (open in chrome://tracing or Perfetto)\n"
      "checkpoint options (locate; every knob yields bit-identical\n"
      "reports -- they only trade re-execution work for memory):\n"
      "  --checkpoints=auto|off\n"
      "                        auto (default): the failing run snapshots\n"
      "                        its state at spaced predicate instances\n"
      "                        and switched runs resume from the nearest\n"
      "                        one instead of replaying the prefix;\n"
      "                        off = full replay\n"
      "  --checkpoint-mem MB   snapshot memory budget in MiB; past it the\n"
      "                        snapshots thin out (default 256)\n";
}

} // namespace support
} // namespace eoe
