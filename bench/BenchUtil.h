//===-- bench/BenchUtil.h - Shared bench helpers -----------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#ifndef EOE_BENCH_BENCHUTIL_H
#define EOE_BENCH_BENCHUTIL_H

#include "ddg/DepGraph.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <string>

namespace eoe {
namespace bench {

/// Formats a slice size as the paper's "static/dynamic" cell.
inline std::string sizeCell(const ddg::SliceStats &S) {
  return std::to_string(S.StaticStmts) + "/" +
         std::to_string(S.DynamicInstances);
}

/// Formats a ratio pair "a/b" with one decimal.
inline std::string ratioCell(const ddg::SliceStats &Num,
                             const ddg::SliceStats &Den) {
  double SR = Den.StaticStmts
                  ? static_cast<double>(Num.StaticStmts) / Den.StaticStmts
                  : 0.0;
  double DR = Den.DynamicInstances
                  ? static_cast<double>(Num.DynamicInstances) /
                        Den.DynamicInstances
                  : 0.0;
  return formatDouble(SR, 2) + "/" + formatDouble(DR, 1);
}

/// Prints a bench banner so the combined bench log is navigable.
inline void banner(const char *Title) {
  std::printf("\n================================================================"
              "===============\n%s\n============================================="
              "==================================\n",
              Title);
}

/// Dumps the per-phase statistics a bench collected through a
/// support::StatsRegistry, under its own banner so the numbers sit next
/// to the paper-table output. Prints nothing when the registry is empty,
/// so benches can call it unconditionally.
inline void dumpStats(const support::StatsRegistry &Stats,
                      const char *Title = "Per-phase pipeline statistics") {
  support::StatsSnapshot S = Stats.snapshot();
  if (S.Counters.empty() && S.Timers.empty() && S.Histograms.empty())
    return;
  banner(Title);
  std::printf("%s", Stats.str().c_str());
}

} // namespace bench
} // namespace eoe

#endif // EOE_BENCH_BENCHUTIL_H
