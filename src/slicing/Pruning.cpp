//===-- slicing/Pruning.cpp - Interactive slice pruning -----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/Pruning.h"

using namespace eoe;
using namespace eoe::slicing;

std::vector<TraceIdx> eoe::slicing::pruneSlicing(ConfidenceAnalysis &CA,
                                                 Oracle &O, PruneState &State,
                                                 support::StatsRegistry *Stats) {
  using support::StatsRegistry;
  const interp::ExecutionTrace &T = CA.trace();

  // Edges only change between sessions (Algorithm 2 line 19): absorb
  // them once, then fold each answer below into the analysis.
  StatsRegistry::add(Stats, "slicing.prune_rounds");
  {
    support::ScopedTimer Timed(
        Stats ? &Stats->timer("slicing.update_time") : nullptr);
    CA.update();
  }
  const std::vector<TraceIdx> &Ranked = CA.prunedSlice();

  // Answers are tallied here and flushed once (a registry lookup takes
  // a lock); a counter is only created once it has something to count.
  size_t Benign = 0, Corrupted = 0;
  auto Finish = [&] {
    if (Benign + Corrupted)
      StatsRegistry::add(Stats, "slicing.oracle_queries", Benign + Corrupted);
    if (Benign)
      StatsRegistry::add(Stats, "slicing.benign_marks", Benign);
    if (Corrupted)
      StatsRegistry::add(Stats, "slicing.corrupted_marks", Corrupted);
    StatsRegistry::sample(Stats, "slicing.pruned_slice_size", Ranked.size());
    return Ranked;
  };

  // The session ends as soon as the programmer recognizes the root
  // cause among the presented candidates. Answers only ever remove
  // candidates, so one look suffices.
  for (TraceIdx I : Ranked)
    if (O.isRootCause(T.step(I).Stmt))
      return Finish();

  // Known-corrupted candidates are never inferred correct, so once the
  // cursor passes them they stay in front of it: the next question is
  // always the first candidate at or after the cursor not known
  // corrupted (benign answers leave the ranking).
  std::vector<bool> Known(T.size(), false);
  for (TraceIdx I : State.KnownCorrupted)
    Known[I] = true;
  size_t Cursor = 0;
  while (true) {
    while (Cursor < Ranked.size() && Known[Ranked[Cursor]])
      ++Cursor;
    if (Cursor == Ranked.size()) // Everything left is known corrupted:
      return Finish();           // minimal slice.

    TraceIdx Next = Ranked[Cursor];
    if (O.isBenign(Next)) {
      ++Benign;
      State.BenignMarks.push_back(Next);
      // One user interaction covers a statement; later instances of the
      // same statement are vouched for by the same act of understanding.
      if (State.BenignStmts.insert(T.step(Next).Stmt).second)
        ++State.UserPrunings;
      CA.markBenign(Next); // Benign feedback enables more automatic pruning.
      continue;
    }
    ++Corrupted;
    State.KnownCorrupted.insert(Next);
    Known[Next] = true;
    CA.markCorrupted(Next);
  }
}
