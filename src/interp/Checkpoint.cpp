//===-- interp/Checkpoint.cpp - Interpreter snapshots -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Checkpoint.h"

#include "lang/PrettyPrinter.h"

#include <algorithm>
#include <cassert>

using namespace eoe;
using namespace eoe::interp;

/// Heap bytes of an open record (the record itself is counted with its
/// frame).
static size_t openStepBytes(const OpenStep &R) {
  return R.Uses.capacity() * sizeof(UseRecord) +
         R.Defs.capacity() * sizeof(DefRecord);
}

void eoe::interp::tracePrefix(const ResumedTrace &From, const Checkpoint &CP,
                              ExecutionTrace &Out) {
  const ExecutionTrace &Own = From.own();
  const TraceIdx Base = From.base();
  const std::span<const TraceIdx> Reopened = From.reopened();
  assert(Base <= CP.Index && CP.Index <= From.size());
  assert(CP.OutputCount <= From.outputCount());
  // The full run's arrays are the source's entries of the steps complete
  // at Base -- a contiguous prefix of its arrays, since open records keep
  // theirs aside and later steps only ever append -- followed by the
  // run's own entries, which it recorded in completion order too. The
  // run's own records shift past that source part.
  size_t SrcUses = 0, SrcDefs = 0;
  Out.Steps.resize(CP.Index);
  if (Base > 0) {
    const ExecutionTrace &Src = *From.source();
    std::copy(Src.Steps.begin(), Src.Steps.begin() + Base, Out.Steps.begin());
    for (TraceIdx R : Reopened)
      Out.Steps[R].NumUses = Out.Steps[R].NumDefs = 0;
    for (TraceIdx I = 0; I < Base; ++I) {
      SrcUses += Out.Steps[I].NumUses;
      SrcDefs += Out.Steps[I].NumDefs;
    }
    Out.Uses.assign(Src.Uses.begin(), Src.Uses.begin() + SrcUses);
    Out.Defs.assign(Src.Defs.begin(), Src.Defs.begin() + SrcDefs);
  }
  auto Shifted = [&](StepRecord S) {
    S.UseBegin += static_cast<uint32_t>(SrcUses);
    S.DefBegin += static_cast<uint32_t>(SrcDefs);
    return S;
  };
  for (size_t K = 0; K < Reopened.size(); ++K)
    Out.Steps[Reopened[K]] = Shifted(Own.Steps[K]);
  for (TraceIdx I = Base; I < CP.Index; ++I)
    Out.Steps[I] = Shifted(Own.Steps[I - Base + Reopened.size()]);
  // The records open at CP's capture keep their as-of-capture fields and
  // empty ranges; their entries so far are in the frames' PendingSnapshot.
  for (const CheckpointFrame &CF : CP.Frames)
    if (CF.PendingRec != InvalidId)
      Out.Steps[CF.PendingRec] = CF.PendingSnapshot.Step;
  // At the capture instant the run's own arrays held exactly the entries
  // of its complete records.
  size_t NumUses = 0, NumDefs = 0;
  for (const StepRecord &S : Out.Steps) {
    NumUses += S.NumUses;
    NumDefs += S.NumDefs;
  }
  assert(NumUses >= SrcUses && NumUses - SrcUses <= Own.Uses.size());
  assert(NumDefs >= SrcDefs && NumDefs - SrcDefs <= Own.Defs.size());
  Out.Uses.insert(Out.Uses.end(), Own.Uses.begin(),
                  Own.Uses.begin() + (NumUses - SrcUses));
  Out.Defs.insert(Out.Defs.end(), Own.Defs.begin(),
                  Own.Defs.begin() + (NumDefs - SrcDefs));
  Out.Outputs.reserve(CP.OutputCount);
  for (size_t I = 0; I < CP.OutputCount; ++I)
    Out.Outputs.push_back(From.output(I));
  if (From.switchedStep() != InvalidId && From.switchedStep() < CP.Index)
    Out.SwitchedStep = From.switchedStep();
  if (From.firstInputStep() != InvalidId && From.firstInputStep() < CP.Index)
    Out.FirstInputStep = From.firstInputStep();
}

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
    N += openStepBytes(CF.PendingSnapshot);
  }
  N += Divergence.capacity() * sizeof(SwitchDecision);
  return N;
}

//===----------------------------------------------------------------------===//
// Delta encoding
//===----------------------------------------------------------------------===//

static size_t frameRawBytes(const CheckpointFrame &CF) {
  return sizeof(CheckpointFrame) + CF.State.Mem.capacity() * sizeof(int64_t) +
         CF.State.LastDef.capacity() * sizeof(TraceIdx) +
         CF.State.LastPredInstance.size() *
             (sizeof(StmtId) + sizeof(TraceIdx) + 4 * sizeof(void *)) +
         CF.Path.capacity() * sizeof(ResumeEntry) +
         openStepBytes(CF.PendingSnapshot);
}

size_t CheckpointFrameDelta::bytes() const {
  size_t N = sizeof(CheckpointFrameDelta);
  if (Full)
    return N + frameRawBytes(Whole);
  N += Mem.bytes() + LastDef.bytes() + Preds.bytes();
  N += Path.capacity() * sizeof(ResumeEntry);
  N += openStepBytes(PendingSnapshot);
  return N;
}

size_t CheckpointDelta::bytes() const {
  size_t N = sizeof(CheckpointDelta);
  N += GlobalMem.bytes() + GlobalLastDef.bytes() + InstCount.bytes();
  for (const CheckpointFrameDelta &FD : Frames)
    N += FD.bytes();
  N += Divergence.capacity() * sizeof(SwitchDecision);
  return N;
}

static PredMapDelta
diffPredMap(const std::unordered_map<StmtId, TraceIdx> &Base,
            const std::unordered_map<StmtId, TraceIdx> &Cur) {
  PredMapDelta D;
  for (const auto &[Stmt, Inst] : Cur) {
    auto It = Base.find(Stmt);
    if (It == Base.end() || It->second != Inst)
      D.Upserts.push_back({Stmt, Inst});
  }
  for (const auto &[Stmt, Inst] : Base)
    if (!Cur.count(Stmt))
      D.Erased.push_back(Stmt);
  // Deterministic encoding regardless of hash-table iteration order (the
  // delta feeds byte accounting and tests compare decoded state, but a
  // canonical form keeps encoded sizes run-to-run stable too).
  std::sort(D.Upserts.begin(), D.Upserts.end());
  std::sort(D.Erased.begin(), D.Erased.end());
  return D;
}

CheckpointDelta eoe::interp::encodeCheckpointDelta(const Checkpoint &Base,
                                                   const Checkpoint &Cur) {
  CheckpointDelta D;
  D.Index = Cur.Index;
  D.InputCursor = Cur.InputCursor;
  D.StepCount = Cur.StepCount;
  D.FrameCounter = Cur.FrameCounter;
  D.OutputCount = Cur.OutputCount;
  D.InputIndependent = Cur.InputIndependent;
  D.GlobalMem = ArrayDelta<int64_t>::diff(Base.GlobalMem, Cur.GlobalMem);
  D.GlobalLastDef =
      ArrayDelta<TraceIdx>::diff(Base.GlobalLastDef, Cur.GlobalLastDef);
  D.InstCount = ArrayDelta<uint32_t>::diff(Base.InstCount, Cur.InstCount);
  D.Divergence = Cur.Divergence;
  D.Frames.reserve(Cur.Frames.size());
  for (size_t I = 0; I < Cur.Frames.size(); ++I) {
    const CheckpointFrame &CF = Cur.Frames[I];
    CheckpointFrameDelta FD;
    // A frame can only be diffed against the base frame at the same depth
    // when it is the same activation (same Serial): only then do the two
    // share a function, argument layout, and memory shape.
    if (I < Base.Frames.size() &&
        Base.Frames[I].State.Serial == CF.State.Serial) {
      const ExecFrame &BF = Base.Frames[I].State;
      FD.Serial = CF.State.Serial;
      FD.RetVal = CF.State.RetVal;
      FD.RetValDef = CF.State.RetValDef;
      FD.CallSite = CF.State.CallSite;
      FD.Mem = ArrayDelta<int64_t>::diff(BF.Mem, CF.State.Mem);
      FD.LastDef = ArrayDelta<TraceIdx>::diff(BF.LastDef, CF.State.LastDef);
      FD.Preds = diffPredMap(BF.LastPredInstance, CF.State.LastPredInstance);
      FD.Path = CF.Path;
      FD.PendingRec = CF.PendingRec;
      FD.PendingSnapshot = CF.PendingSnapshot;
    } else {
      FD.Full = true;
      FD.Whole = CF;
    }
    D.Frames.push_back(std::move(FD));
  }
  return D;
}

std::shared_ptr<Checkpoint>
eoe::interp::applyCheckpointDelta(const Checkpoint &Base,
                                  const CheckpointDelta &D) {
  auto CP = std::make_shared<Checkpoint>();
  CP->Index = D.Index;
  CP->InputCursor = D.InputCursor;
  CP->StepCount = D.StepCount;
  CP->FrameCounter = D.FrameCounter;
  CP->OutputCount = D.OutputCount;
  CP->InputIndependent = D.InputIndependent;
  D.GlobalMem.apply(Base.GlobalMem, CP->GlobalMem);
  D.GlobalLastDef.apply(Base.GlobalLastDef, CP->GlobalLastDef);
  D.InstCount.apply(Base.InstCount, CP->InstCount);
  CP->Divergence = D.Divergence;
  CP->Frames.reserve(D.Frames.size());
  for (size_t I = 0; I < D.Frames.size(); ++I) {
    const CheckpointFrameDelta &FD = D.Frames[I];
    if (FD.Full) {
      CP->Frames.push_back(FD.Whole);
      continue;
    }
    const CheckpointFrame &BF = Base.Frames[I];
    CheckpointFrame CF;
    CF.State.Serial = FD.Serial;
    CF.State.Func = BF.State.Func; // Same activation => same function.
    CF.State.RetVal = FD.RetVal;
    CF.State.RetValDef = FD.RetValDef;
    CF.State.CallSite = FD.CallSite;
    FD.Mem.apply(BF.State.Mem, CF.State.Mem);
    FD.LastDef.apply(BF.State.LastDef, CF.State.LastDef);
    CF.State.LastPredInstance = BF.State.LastPredInstance;
    for (StmtId S : FD.Preds.Erased)
      CF.State.LastPredInstance.erase(S);
    for (const auto &[Stmt, Inst] : FD.Preds.Upserts)
      CF.State.LastPredInstance[Stmt] = Inst;
    CF.Path = FD.Path;
    CF.PendingRec = FD.PendingRec;
    CF.PendingSnapshot = FD.PendingSnapshot;
    CP->Frames.push_back(std::move(CF));
  }
  return CP;
}

//===----------------------------------------------------------------------===//
// CheckpointStore
//===----------------------------------------------------------------------===//

CheckpointStore::CheckpointStore(const Options &O)
    : Budget(O.BudgetBytes), DeltaEncode(O.DeltaEncode),
      KeyframeInterval(O.KeyframeInterval < 1 ? 1 : O.KeyframeInterval) {}

void CheckpointStore::dropSegmentLocked(uint64_t SegId) {
  auto It = Segments.find(SegId);
  if (It == Segments.end())
    return;
  for (const Entry &E : It->second.Chain) {
    TraceIdx Idx = E.IsDelta ? E.Delta.Index : E.Full->Index;
    ByIndex.erase(Idx);
  }
  Bytes -= It->second.Encoded;
  RawTotal -= It->second.Raw;
  Evicted += It->second.Chain.size();
  Segments.erase(It);
}

void CheckpointStore::evictLocked(uint64_t KeepSeg) {
  while (Bytes > Budget && Segments.size() > 1) {
    auto Victim = Segments.end();
    for (auto I = Segments.begin(); I != Segments.end(); ++I) {
      if (I->first == KeepSeg)
        continue; // Never evict the segment just inserted into.
      if (Victim == Segments.end() ||
          I->second.LastUse < Victim->second.LastUse)
        Victim = I;
    }
    if (Victim == Segments.end())
      break;
    dropSegmentLocked(Victim->first);
  }
}

void CheckpointStore::insert(std::shared_ptr<const Checkpoint> CP) {
  std::lock_guard<std::mutex> Lock(M);
  TraceIdx Key = CP->Index;
  if (ByIndex.count(Key))
    return; // Duplicate site; the delta chain base is left untouched.
  size_t Raw = CP->bytes();

  bool AsDelta = false;
  CheckpointDelta Delta;
  size_t Encoded = Raw;
  if (DeltaEncode && LastInserted && CurSeg != 0) {
    auto SegIt = Segments.find(CurSeg);
    if (SegIt != Segments.end() &&
        SegIt->second.Chain.size() < KeyframeInterval) {
      Delta = encodeCheckpointDelta(*LastInserted, *CP);
      size_t DeltaSz = Delta.bytes();
      // A diff that does not actually shrink the snapshot (e.g. the whole
      // frame stack was replaced) starts a fresh keyframe instead.
      if (DeltaSz < Raw) {
        AsDelta = true;
        Encoded = DeltaSz;
      }
    }
  }

  if (!AsDelta && Raw > Budget) {
    // Too large to ever retain: drop, count as evicted. The delta chain
    // must restart -- the dropped snapshot can't serve as anyone's base.
    ++Evicted;
    LastInserted = nullptr;
    CurSeg = 0;
    return;
  }

  uint64_t SegId;
  if (AsDelta) {
    SegId = CurSeg;
    Segment &S = Segments[SegId];
    ByIndex[Key] = {SegId, static_cast<uint32_t>(S.Chain.size())};
    Entry E;
    E.Delta = std::move(Delta);
    E.IsDelta = true;
    E.Encoded = Encoded;
    E.Raw = Raw;
    S.Chain.push_back(std::move(E));
    S.LastUse = ++Tick;
    S.Encoded += Encoded;
    S.Raw += Raw;
    ++DeltaEncoded;
  } else {
    SegId = NextSegId++;
    Segment &S = Segments[SegId];
    ByIndex[Key] = {SegId, 0};
    Entry E;
    E.Full = CP;
    E.Encoded = Encoded;
    E.Raw = Raw;
    S.Chain.push_back(std::move(E));
    S.LastUse = ++Tick;
    S.Encoded = Encoded;
    S.Raw = Raw;
    CurSeg = SegId;
    ++KeyframeCount;
  }
  Bytes += Encoded;
  RawTotal += Raw;
  LastInserted = std::move(CP);
  evictLocked(SegId);
}

std::shared_ptr<const Checkpoint> CheckpointStore::nearest(TraceIdx At) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = ByIndex.upper_bound(At);
  if (It == ByIndex.begin())
    return nullptr;
  --It;
  auto [SegId, Pos] = It->second;
  Segment &S = Segments.at(SegId);
  S.LastUse = ++Tick;
  if (!S.Chain[Pos].IsDelta)
    return S.Chain[Pos].Full;
  // Replay the chain from the keyframe (always position 0). Bounded by
  // KeyframeInterval - 1 sparse applications; done under the lock so a
  // concurrent insert can't evict the segment out from under the decode.
  std::shared_ptr<const Checkpoint> Cur = S.Chain[0].Full;
  for (uint32_t I = 1; I <= Pos; ++I)
    Cur = applyCheckpointDelta(*Cur, S.Chain[I].Delta);
  return Cur;
}

size_t CheckpointStore::count() const {
  std::lock_guard<std::mutex> Lock(M);
  return ByIndex.size();
}

size_t CheckpointStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

size_t CheckpointStore::rawBytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return RawTotal;
}

size_t CheckpointStore::keyframes() const {
  std::lock_guard<std::mutex> Lock(M);
  return KeyframeCount;
}

size_t CheckpointStore::deltaCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return DeltaEncoded;
}

size_t CheckpointStore::evictions() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evicted;
}

//===----------------------------------------------------------------------===//
// SharedCheckpointStore
//===----------------------------------------------------------------------===//

bool SharedCheckpointStore::promote(const std::shared_ptr<const Checkpoint> &CP,
                                    uint64_t ProgramHash, const void *Program,
                                    uint64_t MaxSteps, bool FromDisk) {
  // Divergence-keyed snapshots (captured on switched runs) are only valid
  // for runs repeating the same forced decisions -- never for the shared
  // cross-input store, whose consumers run unswitched prefixes.
  if (!CP || !CP->InputIndependent || !CP->Divergence.empty())
    return false;
  std::lock_guard<std::mutex> Lock(M);
  Key K{ProgramHash, Program, MaxSteps};
  auto &ForKey = Entries[K];
  if (ForKey.count(CP->Index))
    return false;
  size_t Sz = CP->bytes();
  if (Bytes + Sz > Budget) {
    ++Rejected;
    return false;
  }
  ForKey.emplace(CP->Index, CP);
  if (FromDisk) {
    auto &Idx = DiskOrigin[K];
    Idx.insert(std::lower_bound(Idx.begin(), Idx.end(), CP->Index),
               CP->Index);
  }
  Bytes += Sz;
  return true;
}

std::vector<TraceIdx>
SharedCheckpointStore::diskIndicesFor(uint64_t ProgramHash,
                                      const void *Program,
                                      uint64_t MaxSteps) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = DiskOrigin.find(Key{ProgramHash, Program, MaxSteps});
  return It == DiskOrigin.end() ? std::vector<TraceIdx>{} : It->second;
}

std::vector<std::shared_ptr<const Checkpoint>>
SharedCheckpointStore::snapshotsFor(uint64_t ProgramHash, const void *Program,
                                    uint64_t MaxSteps) const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::shared_ptr<const Checkpoint>> Out;
  auto It = Entries.find(Key{ProgramHash, Program, MaxSteps});
  if (It == Entries.end())
    return Out;
  Out.reserve(It->second.size());
  for (const auto &[Idx, CP] : It->second)
    Out.push_back(CP);
  return Out;
}

size_t SharedCheckpointStore::count() const {
  std::lock_guard<std::mutex> Lock(M);
  size_t N = 0;
  for (const auto &[K, ForKey] : Entries)
    N += ForKey.size();
  return N;
}

size_t SharedCheckpointStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

size_t SharedCheckpointStore::rejected() const {
  std::lock_guard<std::mutex> Lock(M);
  return Rejected;
}

uint64_t SharedCheckpointStore::hashProgram(const lang::Program &Prog) {
  std::string Text = lang::programToString(Prog);
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull; // FNV-1a prime.
  }
  return H;
}
