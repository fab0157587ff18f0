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

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

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

/// Work units \p Workers threads spinning at once complete in \p Ms.
inline uint64_t spinWork(unsigned Workers, unsigned Ms) {
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Units(Workers, 0);
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([&Stop, &Units, W] {
      uint64_t N = 0, X = W + 1;
      while (!Stop.load(std::memory_order_relaxed)) {
        for (int K = 0; K < 4096; ++K) {
          X ^= X << 13;
          X ^= X >> 7;
          X ^= X << 17;
        }
        ++N;
      }
      Units[W] = N + (X == 0); // Keeps X, and with it the loop, alive.
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
  Stop = true;
  for (std::thread &T : Threads)
    T.join();
  uint64_t Sum = 0;
  for (uint64_t U : Units)
    Sum += U;
  return Sum;
}

/// The parallelism the host really delivers to \p Workers threads: the
/// work they complete together over the work one thread completes alone
/// in the same time. ~\p Workers on idle dedicated cores, ~1 where the
/// vCPUs that hardware_concurrency counts are shared or throttled. Gate
/// speedup assertions on this, not on the core count.
inline double effectiveParallelism(unsigned Workers) {
  constexpr unsigned Ms = 200;
  uint64_t One = spinWork(1, Ms);
  return One ? static_cast<double>(spinWork(Workers, Ms)) /
                   static_cast<double>(One)
             : 0.0;
}

} // namespace bench
} // namespace eoe

#endif // EOE_BENCH_BENCHUTIL_H
