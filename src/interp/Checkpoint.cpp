//===-- interp/Checkpoint.cpp - Interpreter snapshots -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Checkpoint.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

using namespace eoe;
using namespace eoe::interp;

size_t Checkpoint::bytes() const {
  size_t N = sizeof(Checkpoint);
  N += GlobalMem.capacity() * sizeof(int64_t);
  N += GlobalLastDef.capacity() * sizeof(TraceIdx);
  N += InstCount.capacity() * sizeof(uint32_t);
  for (const CheckpointFrame &CF : Frames) {
    N += sizeof(CheckpointFrame);
    N += CF.State.Mem.capacity() * sizeof(int64_t);
    N += CF.State.LastDef.capacity() * sizeof(TraceIdx);
    N += CF.State.LastPredInstance.capacity() * sizeof(TraceIdx);
    N += CF.Path.capacity() * sizeof(ResumeEntry);
    // The open record's entries (the record itself is counted with its
    // frame).
    N += CF.PendingSnapshot.Uses.capacity() * sizeof(UseRecord) +
         CF.PendingSnapshot.Defs.capacity() * sizeof(DefRecord);
  }
  return N;
}

//===----------------------------------------------------------------------===//
// CheckpointStore
//===----------------------------------------------------------------------===//

void CheckpointStore::insert(Checkpoint CP) {
  assert((Snaps.empty() || Snaps.back().Index < CP.Index) &&
         "snapshots are inserted in trace order");
  Bytes += CP.bytes();
  Snaps.push_back(std::move(CP));
}

void CheckpointStore::thin() {
  // Keep the positions of the newest snapshot's parity.
  const size_t First = (Snaps.size() - 1) % 2;
  size_t Kept = 0;
  for (size_t I = 0; I < Snaps.size(); ++I) {
    if (I % 2 != First) {
      Bytes -= Snaps[I].bytes();
      ++Thinned;
      continue;
    }
    if (Kept != I)
      Snaps[Kept] = std::move(Snaps[I]);
    ++Kept;
  }
  Snaps.resize(Kept);
}

const Checkpoint *CheckpointStore::nearest(TraceIdx At) const {
  auto It = std::upper_bound(
      Snaps.begin(), Snaps.end(), At,
      [](TraceIdx A, const Checkpoint &CP) { return A < CP.Index; });
  return It == Snaps.begin() ? nullptr : &*std::prev(It);
}

//===----------------------------------------------------------------------===//
// CheckpointPlan
//===----------------------------------------------------------------------===//

/// A capped schedule keeps its retained snapshots within 1/TraceShare of
/// the trace bytes recorded so far.
static constexpr size_t TraceShare = 4;

bool CheckpointPlan::admit(uint64_t Step, bool Dirty, size_t TraceBytes) {
  assert(Step >= NextAt && "no capture is due");
  if (Step > LastStep) {
    NextAt = std::numeric_limits<uint64_t>::max(); // None is due again.
    return false;
  }
  if (Dirty) {
    ++SkippedDirty; // The next clean instance is taken instead.
    return false;
  }
  if (Cap && Store.bytes() + LastBytes > TraceBytes / TraceShare) {
    NextAt = Step + Spacing; // This interval takes none.
    return false;
  }
  return true;
}

void CheckpointPlan::take(uint64_t Step, Checkpoint CP) {
  LastBytes = CP.bytes();
  if (LastBytes <= BudgetBytes) {
    Store.insert(std::move(CP));
    while (Store.bytes() > BudgetBytes || (Cap && Store.count() > Cap)) {
      Store.thin();
      Spacing *= 2;
    }
  }
  NextAt = Step + Spacing;
}
