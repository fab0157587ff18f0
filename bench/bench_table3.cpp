//===-- bench/bench_table3.cpp - Table 3: effectiveness ------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Regenerates Table 3 ("Effectiveness"): per fault, the number of user
// prunings, verifications, iterations, and expanded implicit edges of the
// demand-driven procedure, plus the final pruned slice (IPS) and the
// failure-inducing chain (OS). The paper's observations to reproduce in
// shape:
//   - every root cause is located;
//   - iterations and expanded edges are mostly very small;
//   - IPS sizes are close to OS (near-optimal slices);
//   - grep is the hardest case (most verifications, largest OS).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Table.h"
#include "workloads/Runner.h"

#include <cstdio>

using namespace eoe;
using namespace eoe::bench;
using namespace eoe::workloads;

namespace {

struct PaperRow {
  const char *Fault;
  int Prunings, Verifications, Iterations, Edges;
  const char *IPS, *OS;
};

// Verbatim from the paper's Table 3.
const PaperRow PaperRows[] = {
    {"flex-v1-f9", 2, 5, 1, 5, "17/51", "7/16"},
    {"flex-v2-f14", 1, 4, 1, 1, "7/24", "7/24"},
    {"flex-v3-f10", 1, 1, 1, 1, "4/2", "4/2"},
    {"flex-v4-f6", 0, 6, 1, 5, "8/28", "6/23"},
    {"flex-v5-f6", 1, 2, 1, 2, "10/27", "10/27"},
    {"grep-v4-f2", 15, 313, 1, 62, "103/2177", "93/1196"},
    {"gzip-v2-f3", 2, 1, 1, 1, "5/7", "5/7"},
    {"sed-v3-f2", 9, 36, 2, 2, "25/74", "23/69"},
    {"sed-v3-f3", 10, 115, 1, 1, "26/74", "26/74"},
};

const PaperRow *paperRow(const std::string &Id) {
  for (const PaperRow &R : PaperRows)
    if (Id == R.Fault)
      return &R;
  return nullptr;
}

} // namespace

int main() {
  bench::banner("Table 3: Effectiveness of demand-driven implicit "
                "dependence location (paper values in parentheses)");

  Table T({"Fault", "#prunings", "#verifs", "#iters", "#edges",
           "IPS (paper)", "OS (paper)", "located"});
  bool AllLocated = true;
  size_t MaxVerifications = 0;
  std::string HardestFault;
  support::StatsRegistry Stats;
  for (const FaultInfo &F : faults()) {
    FaultRunner Runner(F);
    if (!Runner.valid()) {
      std::fprintf(stderr, "error: %s did not reproduce\n", F.Id.c_str());
      return 1;
    }
    FaultRunner::Options Opts;
    Opts.ComputeSlices = false;
    Opts.Opt.Exec.Stats = &Stats;
    ExperimentResult R = Runner.run(Opts);
    const PaperRow *P = paperRow(F.Id);

    auto Num = [](size_t Ours, int Paper) {
      return std::to_string(Ours) + " (" + std::to_string(Paper) + ")";
    };
    T.addRow({F.Id,
              Num(R.Report.UserPrunings, P ? P->Prunings : -1),
              Num(R.Report.Verifications, P ? P->Verifications : -1),
              Num(R.Report.Iterations, P ? P->Iterations : -1),
              Num(R.Report.ExpandedEdges, P ? P->Edges : -1),
              sizeCell(R.Report.IPSStats) + " (" + (P ? P->IPS : "-") + ")",
              sizeCell(R.OS) + " (" + (P ? P->OS : "-") + ")",
              R.Valid ? "yes" : "NO"});
    AllLocated = AllLocated && R.Valid;
    if (R.Report.Verifications > MaxVerifications) {
      MaxVerifications = R.Report.Verifications;
      HardestFault = F.Id;
    }
  }
  std::printf("%s", T.str().c_str());

  std::printf("\nAll root causes located: %s\n", AllLocated ? "YES" : "NO");
  std::printf("Hardest case by verifications: %s (paper: grep-v4-f2)\n",
              HardestFault.c_str());
  bench::dumpStats(Stats,
                   "Per-phase pipeline cost across all Table 3 faults");
  return AllLocated ? 0 : 1;
}
