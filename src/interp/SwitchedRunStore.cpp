//===-- interp/SwitchedRunStore.cpp - Switched-run snapshot cache -------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/SwitchedRunStore.h"

#include <algorithm>

using namespace eoe;
using namespace eoe::interp;

uint64_t SwitchedRunStore::hashInput(const std::vector<int64_t> &Input) {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  for (int64_t V : Input) {
    uint64_t U = static_cast<uint64_t>(V);
    for (int Shift = 0; Shift < 64; Shift += 8) {
      H ^= (U >> Shift) & 0xff;
      H *= 1099511628211ull; // FNV-1a prime.
    }
  }
  return H;
}

size_t SwitchedRunStore::traceBytes(const ExecutionTrace &T) {
  return sizeof(ExecutionTrace) + T.recordBytes() +
         T.Outputs.capacity() * sizeof(OutputEvent);
}

static size_t bundleBytes(const SwitchedRunStore::Bundle &B) {
  size_t N = B.Key.capacity() * sizeof(SwitchDecision);
  if (B.Prefix)
    N += SwitchedRunStore::traceBytes(*B.Prefix);
  for (const auto &CP : B.Snapshots)
    if (CP)
      N += CP->bytes();
  return N;
}

void SwitchedRunStore::stage(const ValidityKey &K, Bundle B) {
  if (B.Snapshots.empty() || !B.Prefix)
    return;
  size_t Sz = bundleBytes(B);
  std::lock_guard<std::mutex> Lock(M);
  Staged.push_back(StagedBundle{K, std::move(B), Sz});
}

size_t SwitchedRunStore::seal() {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<const StagedBundle *> Order;
  Order.reserve(Staged.size());
  for (const StagedBundle &S : Staged)
    Order.push_back(&S);
  // Canonical admission order: earlier divergence first (its snapshots
  // cover more downstream switch sets), then the key itself as the total
  // tiebreak. SwitchedStep of the trimmed prefix is the capturing run's
  // first forced alteration -- a pure function of the bundle, not of
  // staging order.
  auto DivergeStep = [](const StagedBundle *S) {
    return S->B.Prefix->SwitchedStep;
  };
  std::sort(Order.begin(), Order.end(),
            [&](const StagedBundle *A, const StagedBundle *B) {
              if (!(A->K == B->K))
                return A->K < B->K;
              if (DivergeStep(A) != DivergeStep(B))
                return DivergeStep(A) < DivergeStep(B);
              if (A->B.Key != B->B.Key)
                return A->B.Key < B->B.Key;
              // Identical (K, divergence key) duplicates: prefer the one
              // with the deepest snapshot, then smaller footprint.
              TraceIdx DA = A->B.Snapshots.back()->Index;
              TraceIdx DB = B->B.Snapshots.back()->Index;
              if (DA != DB)
                return DA > DB;
              return A->Bytes < B->Bytes;
            });

  Sealed.clear();
  SealedN = DroppedN = SealedBytes = 0;
  std::map<ValidityKey, std::vector<std::vector<SwitchDecision>>> SeenKeys;
  size_t Used = 0;
  for (const StagedBundle *S : Order) {
    auto &Keys = SeenKeys[S->K];
    if (std::find(Keys.begin(), Keys.end(), S->B.Key) != Keys.end()) {
      ++DroppedN; // Duplicate divergence key; the canonical first wins.
      continue;
    }
    if (Used + S->Bytes > Budget) {
      ++DroppedN;
      continue;
    }
    Keys.push_back(S->B.Key);
    Sealed[S->K].push_back(S);
    Used += S->Bytes;
    ++SealedN;
  }
  SealedBytes = Used;
  SealedOnce = true;
  return SealedN;
}

std::optional<SwitchedRunStore::Hit>
SwitchedRunStore::lookup(const ValidityKey &K,
                         const std::vector<SwitchDecision> &Requested) {
  std::lock_guard<std::mutex> Lock(M);
  if (!SealedOnce)
    return std::nullopt;
  ++Lookups;
  auto It = Sealed.find(K);
  if (It == Sealed.end())
    return std::nullopt;

  const StagedBundle *BestBundle = nullptr;
  std::shared_ptr<const Checkpoint> BestCP;
  for (const StagedBundle *S : It->second) {
    const std::vector<SwitchDecision> &BK = S->B.Key;
    if (BK.size() > Requested.size() ||
        !std::equal(BK.begin(), BK.end(), Requested.begin()))
      continue;
    // Deepest snapshot of this bundle through which every decision not
    // yet applied can still fire (its instance counter has not passed
    // the decision's instance).
    for (auto RIt = S->B.Snapshots.rbegin(); RIt != S->B.Snapshots.rend();
         ++RIt) {
      const Checkpoint &CP = **RIt;
      bool Ok = true;
      for (size_t I = BK.size(); I < Requested.size() && Ok; ++I) {
        const SwitchDecision &D = Requested[I];
        if (D.Stmt < CP.InstCount.size() &&
            CP.InstCount[D.Stmt] >= D.InstanceNo)
          Ok = false;
      }
      if (!Ok)
        continue;
      if (!BestCP || CP.Index > BestCP->Index ||
          (CP.Index == BestCP->Index && BK.size() > BestBundle->B.Key.size()))
        BestBundle = S, BestCP = *RIt;
      break; // Deeper-first scan: first valid is this bundle's best.
    }
  }
  if (!BestCP)
    return std::nullopt;
  ++Hits;
  return Hit{BestCP, BestBundle->B.Prefix};
}

bool SwitchedRunStore::sealed() const {
  std::lock_guard<std::mutex> Lock(M);
  return SealedOnce;
}

size_t SwitchedRunStore::stagedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Staged.size();
}

size_t SwitchedRunStore::sealedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return SealedN;
}

size_t SwitchedRunStore::droppedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return DroppedN;
}

size_t SwitchedRunStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return SealedBytes;
}

size_t SwitchedRunStore::lookups() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lookups;
}

size_t SwitchedRunStore::hits() const {
  std::lock_guard<std::mutex> Lock(M);
  return Hits;
}
