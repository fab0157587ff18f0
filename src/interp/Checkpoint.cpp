//===-- interp/Checkpoint.cpp - Interpreter snapshots -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Checkpoint.h"

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
    // unordered_map node: key+value plus bucket/node overhead estimate.
    N += CF.State.LastPredInstance.size() *
         (sizeof(StmtId) + sizeof(TraceIdx) + 4 * sizeof(void *));
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

void CheckpointStore::evictLocked(TraceIdx Keep) {
  while (Bytes > Budget && ByIndex.size() > 1) {
    auto Victim = ByIndex.end();
    for (auto I = ByIndex.begin(); I != ByIndex.end(); ++I) {
      if (I->first == Keep)
        continue; // Never evict the snapshot just inserted.
      if (Victim == ByIndex.end() ||
          I->second.LastUse < Victim->second.LastUse)
        Victim = I;
    }
    Bytes -= Victim->second.Bytes;
    ++Evicted;
    ByIndex.erase(Victim);
  }
}

void CheckpointStore::insert(std::shared_ptr<const Checkpoint> CP) {
  std::lock_guard<std::mutex> Lock(M);
  const TraceIdx Key = CP->Index;
  if (ByIndex.count(Key))
    return; // Duplicate site.
  const size_t Size = CP->bytes();
  if (Size > Budget) {
    ++Evicted; // Too large to ever retain.
    return;
  }
  ByIndex[Key] = Entry{std::move(CP), Size, ++Tick};
  Bytes += Size;
  evictLocked(Key);
}

std::shared_ptr<const Checkpoint> CheckpointStore::nearest(TraceIdx At) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = ByIndex.upper_bound(At);
  if (It == ByIndex.begin())
    return nullptr;
  --It;
  It->second.LastUse = ++Tick;
  return It->second.CP;
}

size_t CheckpointStore::count() const {
  std::lock_guard<std::mutex> Lock(M);
  return ByIndex.size();
}

size_t CheckpointStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

size_t CheckpointStore::evictions() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evicted;
}
