//===-- interp/CheckpointDiskStore.cpp - Persistent checkpoints ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/CheckpointDiskStore.h"

#include "lang/AST.h"
#include "support/Stats.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

using namespace eoe;
using namespace eoe::interp;

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

static std::array<uint32_t, 256> makeCrcTable() {
  std::array<uint32_t, 256> T{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[I] = C;
  }
  return T;
}

uint32_t eoe::interp::ckptCrc32(const void *Data, size_t Len) {
  static const std::array<uint32_t, 256> Table = makeCrcTable();
  uint32_t C = 0xFFFFFFFFu;
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I)
    C = Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Byte stream primitives
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'E', 'O', 'E', 'C', 'K', 'P', 'T', '\0'};

class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void raw(const char *Data, size_t Len) { Buf.append(Data, Len); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void i8(int8_t V) { u8(static_cast<uint8_t>(V)); }

  size_t size() const { return Buf.size(); }
  std::string take() { return std::move(Buf); }
  const std::string &str() const { return Buf; }

  /// Overwrites 4 bytes at \p At (for back-patching the header CRC).
  void patchU32(size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf[At + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  }

private:
  std::string Buf;
};

/// Bounds-checked little-endian reader. Every accessor returns false on
/// exhaustion instead of reading past the end; callers propagate.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Bytes(Bytes) {}

  size_t remaining() const { return Bytes.size() - Pos; }
  bool done() const { return Pos == Bytes.size(); }

  bool u8(uint8_t &V) {
    if (remaining() < 1)
      return false;
    V = static_cast<uint8_t>(Bytes[Pos++]);
    return true;
  }
  bool u32(uint32_t &V) {
    if (remaining() < 4)
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Bytes[Pos + I]))
           << (8 * I);
    Pos += 4;
    return true;
  }
  bool u64(uint64_t &V) {
    if (remaining() < 8)
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Bytes[Pos + I]))
           << (8 * I);
    Pos += 8;
    return true;
  }
  bool i64(int64_t &V) {
    uint64_t U;
    if (!u64(U))
      return false;
    V = static_cast<int64_t>(U);
    return true;
  }
  bool i8(int8_t &V) {
    uint8_t U;
    if (!u8(U))
      return false;
    V = static_cast<int8_t>(U);
    return true;
  }
  /// Reads a count that prefixes \p ElemMin-byte-minimum elements; false
  /// when the claimed count cannot fit in the bytes left (a corrupted
  /// length field must not drive a multi-gigabyte reserve).
  bool count(uint32_t &N, size_t ElemMin) {
    if (!u32(N))
      return false;
    return static_cast<uint64_t>(N) * ElemMin <= remaining();
  }
  bool slice(std::string_view &Out, size_t Len) {
    if (remaining() < Len)
      return false;
    Out = Bytes.substr(Pos, Len);
    Pos += Len;
    return true;
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Structure serializers
//===----------------------------------------------------------------------===//

using FuncIndex = std::unordered_map<const lang::Function *, uint32_t>;

void writeOpenStep(ByteWriter &W, const OpenStep &R) {
  W.u32(R.Step.Stmt);
  W.u32(R.Step.CdParent);
  W.u32(R.Step.InstanceNo);
  W.i8(R.Step.BranchTaken);
  W.i64(R.Step.Value);
  W.u32(static_cast<uint32_t>(R.Uses.size()));
  for (const UseRecord &U : R.Uses) {
    W.u64(U.Loc.Raw);
    W.u32(U.Def);
    W.u32(U.LoadExpr);
    W.u32(U.Var);
    W.i64(U.Value);
  }
  W.u32(static_cast<uint32_t>(R.Defs.size()));
  for (const DefRecord &D : R.Defs) {
    W.u64(D.Loc.Raw);
    W.u32(D.Var);
    W.i64(D.Value);
  }
}

bool readOpenStep(ByteReader &R, OpenStep &Out) {
  uint32_t N;
  if (!R.u32(Out.Step.Stmt) || !R.u32(Out.Step.CdParent) ||
      !R.u32(Out.Step.InstanceNo) || !R.i8(Out.Step.BranchTaken) ||
      !R.i64(Out.Step.Value))
    return false;
  if (!R.count(N, 28))
    return false;
  Out.Uses.resize(N);
  for (UseRecord &U : Out.Uses)
    if (!R.u64(U.Loc.Raw) || !R.u32(U.Def) || !R.u32(U.LoadExpr) ||
        !R.u32(U.Var) || !R.i64(U.Value))
      return false;
  if (!R.count(N, 20))
    return false;
  Out.Defs.resize(N);
  for (DefRecord &D : Out.Defs)
    if (!R.u64(D.Loc.Raw) || !R.u32(D.Var) || !R.i64(D.Value))
      return false;
  return true;
}

void writeVecI64(ByteWriter &W, const std::vector<int64_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  for (int64_t X : V)
    W.i64(X);
}

bool readVecI64(ByteReader &R, std::vector<int64_t> &V) {
  uint32_t N;
  if (!R.count(N, 8))
    return false;
  V.resize(N);
  for (int64_t &X : V)
    if (!R.i64(X))
      return false;
  return true;
}

void writeVecU32(ByteWriter &W, const std::vector<uint32_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  for (uint32_t X : V)
    W.u32(X);
}

bool readVecU32(ByteReader &R, std::vector<uint32_t> &V) {
  uint32_t N;
  if (!R.count(N, 4))
    return false;
  V.resize(N);
  for (uint32_t &X : V)
    if (!R.u32(X))
      return false;
  return true;
}

void writePath(ByteWriter &W, const std::vector<ResumeEntry> &Path) {
  W.u32(static_cast<uint32_t>(Path.size()));
  for (const ResumeEntry &E : Path) {
    W.u8(static_cast<uint8_t>(E.In));
    W.u32(E.Index);
  }
}

bool readPath(ByteReader &R, std::vector<ResumeEntry> &Path) {
  uint32_t N;
  if (!R.count(N, 5))
    return false;
  Path.resize(N);
  for (ResumeEntry &E : Path) {
    uint8_t In;
    if (!R.u8(In) || !R.u32(E.Index))
      return false;
    if (In > static_cast<uint8_t>(ResumeEntry::Body::Loop))
      return false;
    E.In = static_cast<ResumeEntry::Body>(In);
  }
  return true;
}

void writePredMap(ByteWriter &W,
                  const std::unordered_map<StmtId, TraceIdx> &Map) {
  // Sorted for a canonical byte image: equal maps serialize identically
  // regardless of hash-table iteration order.
  std::vector<std::pair<StmtId, TraceIdx>> Sorted(Map.begin(), Map.end());
  std::sort(Sorted.begin(), Sorted.end());
  W.u32(static_cast<uint32_t>(Sorted.size()));
  for (const auto &[Stmt, Inst] : Sorted) {
    W.u32(Stmt);
    W.u32(Inst);
  }
}

bool readPredMap(ByteReader &R, std::unordered_map<StmtId, TraceIdx> &Map) {
  uint32_t N;
  if (!R.count(N, 8))
    return false;
  Map.clear();
  Map.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Stmt, Inst;
    if (!R.u32(Stmt) || !R.u32(Inst))
      return false;
    Map[Stmt] = Inst;
  }
  return true;
}

bool writeFrame(ByteWriter &W, const CheckpointFrame &CF,
                const FuncIndex &Funcs) {
  auto It = Funcs.find(CF.State.Func);
  if (It == Funcs.end())
    return false; // Frame references a function outside this Program.
  W.u64(CF.State.Serial);
  W.u32(It->second);
  writeVecI64(W, CF.State.Mem);
  writeVecU32(W, CF.State.LastDef);
  W.i64(CF.State.RetVal);
  W.u32(CF.State.RetValDef);
  W.u32(CF.State.CallSite);
  writePredMap(W, CF.State.LastPredInstance);
  writePath(W, CF.Path);
  W.u32(CF.PendingRec);
  writeOpenStep(W, CF.PendingSnapshot);
  return true;
}

bool readFrame(ByteReader &R, const lang::Program &Prog, CheckpointFrame &CF) {
  uint32_t FuncId;
  if (!R.u64(CF.State.Serial) || !R.u32(FuncId))
    return false;
  if (FuncId >= Prog.functions().size())
    return false;
  CF.State.Func = Prog.functions()[FuncId];
  if (!readVecI64(R, CF.State.Mem) || !readVecU32(R, CF.State.LastDef) ||
      !R.i64(CF.State.RetVal) || !R.u32(CF.State.RetValDef) ||
      !R.u32(CF.State.CallSite) || !readPredMap(R, CF.State.LastPredInstance) ||
      !readPath(R, CF.Path) || !R.u32(CF.PendingRec) ||
      !readOpenStep(R, CF.PendingSnapshot))
    return false;
  return true;
}

bool readBool(ByteReader &R, bool &B) {
  uint8_t V;
  if (!R.u8(V) || V > 1) // Canonical bools only: re-encode is byte-stable.
    return false;
  B = V != 0;
  return true;
}

bool writeCheckpoint(ByteWriter &W, const Checkpoint &CP,
                     const FuncIndex &Funcs) {
  W.u32(CP.Index);
  W.u64(CP.InputCursor);
  W.u64(CP.StepCount);
  W.u64(CP.FrameCounter);
  W.u64(CP.OutputCount);
  W.u8(CP.InputIndependent ? 1 : 0);
  writeVecI64(W, CP.GlobalMem);
  writeVecU32(W, CP.GlobalLastDef);
  writeVecU32(W, CP.InstCount);
  W.u32(static_cast<uint32_t>(CP.Frames.size()));
  for (const CheckpointFrame &CF : CP.Frames)
    if (!writeFrame(W, CF, Funcs))
      return false;
  return true;
}

bool readCheckpoint(ByteReader &R, const lang::Program &Prog, Checkpoint &CP) {
  uint64_t InputCursor, OutputCount;
  if (!R.u32(CP.Index) || !R.u64(InputCursor) || !R.u64(CP.StepCount) ||
      !R.u64(CP.FrameCounter) || !R.u64(OutputCount) ||
      !readBool(R, CP.InputIndependent))
    return false;
  CP.InputCursor = static_cast<size_t>(InputCursor);
  CP.OutputCount = static_cast<size_t>(OutputCount);
  if (!readVecI64(R, CP.GlobalMem) || !readVecU32(R, CP.GlobalLastDef) ||
      !readVecU32(R, CP.InstCount))
    return false;
  uint32_t NFrames;
  if (!R.count(NFrames, 8))
    return false;
  CP.Frames.resize(NFrames);
  for (CheckpointFrame &CF : CP.Frames)
    if (!readFrame(R, Prog, CF))
      return false;
  return true;
}

void writeArrayDeltaI64(ByteWriter &W, const ArrayDelta<int64_t> &D) {
  W.u32(D.Size);
  W.u32(static_cast<uint32_t>(D.Changed.size()));
  for (const auto &[Idx, Val] : D.Changed) {
    W.u32(Idx);
    W.i64(Val);
  }
}

bool readArrayDeltaI64(ByteReader &R, ArrayDelta<int64_t> &D) {
  uint32_t N;
  if (!R.u32(D.Size) || !R.count(N, 12))
    return false;
  D.Changed.resize(N);
  for (auto &[Idx, Val] : D.Changed) {
    if (!R.u32(Idx) || !R.i64(Val))
      return false;
    if (Idx >= D.Size) // apply() writes Out[Idx] after resize(Size).
      return false;
  }
  return true;
}

void writeArrayDeltaU32(ByteWriter &W, const ArrayDelta<uint32_t> &D) {
  W.u32(D.Size);
  W.u32(static_cast<uint32_t>(D.Changed.size()));
  for (const auto &[Idx, Val] : D.Changed) {
    W.u32(Idx);
    W.u32(Val);
  }
}

bool readArrayDeltaU32(ByteReader &R, ArrayDelta<uint32_t> &D) {
  uint32_t N;
  if (!R.u32(D.Size) || !R.count(N, 8))
    return false;
  D.Changed.resize(N);
  for (auto &[Idx, Val] : D.Changed) {
    if (!R.u32(Idx) || !R.u32(Val))
      return false;
    if (Idx >= D.Size)
      return false;
  }
  return true;
}

void writePredMapDelta(ByteWriter &W, const PredMapDelta &D) {
  W.u32(static_cast<uint32_t>(D.Upserts.size()));
  for (const auto &[Stmt, Inst] : D.Upserts) {
    W.u32(Stmt);
    W.u32(Inst);
  }
  W.u32(static_cast<uint32_t>(D.Erased.size()));
  for (StmtId S : D.Erased)
    W.u32(S);
}

bool readPredMapDelta(ByteReader &R, PredMapDelta &D) {
  uint32_t N;
  if (!R.count(N, 8))
    return false;
  D.Upserts.resize(N);
  for (auto &[Stmt, Inst] : D.Upserts)
    if (!R.u32(Stmt) || !R.u32(Inst))
      return false;
  if (!R.count(N, 4))
    return false;
  D.Erased.resize(N);
  for (StmtId &S : D.Erased)
    if (!R.u32(S))
      return false;
  return true;
}

bool writeCheckpointDelta(ByteWriter &W, const CheckpointDelta &D,
                          const FuncIndex &Funcs) {
  W.u32(D.Index);
  W.u64(D.InputCursor);
  W.u64(D.StepCount);
  W.u64(D.FrameCounter);
  W.u64(D.OutputCount);
  W.u8(D.InputIndependent ? 1 : 0);
  writeArrayDeltaI64(W, D.GlobalMem);
  writeArrayDeltaU32(W, D.GlobalLastDef);
  writeArrayDeltaU32(W, D.InstCount);
  W.u32(static_cast<uint32_t>(D.Frames.size()));
  for (const CheckpointFrameDelta &FD : D.Frames) {
    W.u8(FD.Full ? 1 : 0);
    if (FD.Full) {
      if (!writeFrame(W, FD.Whole, Funcs))
        return false;
      continue;
    }
    W.u64(FD.Serial);
    W.i64(FD.RetVal);
    W.u32(FD.RetValDef);
    W.u32(FD.CallSite);
    writeArrayDeltaI64(W, FD.Mem);
    writeArrayDeltaU32(W, FD.LastDef);
    writePredMapDelta(W, FD.Preds);
    writePath(W, FD.Path);
    W.u32(FD.PendingRec);
    writeOpenStep(W, FD.PendingSnapshot);
  }
  return true;
}

/// \p Base is the previously decoded checkpoint the delta chains off;
/// non-Full frame deltas must resolve to a frame of \p Base or the file
/// is rejected (applyCheckpointDelta indexes Base.Frames unchecked).
bool readCheckpointDelta(ByteReader &R, const lang::Program &Prog,
                         const Checkpoint &Base, CheckpointDelta &D) {
  uint64_t InputCursor, OutputCount;
  if (!R.u32(D.Index) || !R.u64(InputCursor) || !R.u64(D.StepCount) ||
      !R.u64(D.FrameCounter) || !R.u64(OutputCount) ||
      !readBool(R, D.InputIndependent))
    return false;
  D.InputCursor = static_cast<size_t>(InputCursor);
  D.OutputCount = static_cast<size_t>(OutputCount);
  if (!readArrayDeltaI64(R, D.GlobalMem) ||
      !readArrayDeltaU32(R, D.GlobalLastDef) ||
      !readArrayDeltaU32(R, D.InstCount))
    return false;
  uint32_t NFrames;
  if (!R.count(NFrames, 1))
    return false;
  D.Frames.resize(NFrames);
  for (uint32_t I = 0; I < NFrames; ++I) {
    CheckpointFrameDelta &FD = D.Frames[I];
    if (!readBool(R, FD.Full))
      return false;
    if (FD.Full) {
      if (!readFrame(R, Prog, FD.Whole))
        return false;
      continue;
    }
    if (I >= Base.Frames.size())
      return false; // Delta against a frame the base does not have.
    if (!R.u64(FD.Serial) || !R.i64(FD.RetVal) || !R.u32(FD.RetValDef) ||
        !R.u32(FD.CallSite) || !readArrayDeltaI64(R, FD.Mem) ||
        !readArrayDeltaU32(R, FD.LastDef) || !readPredMapDelta(R, FD.Preds) ||
        !readPath(R, FD.Path) || !R.u32(FD.PendingRec) ||
        !readOpenStep(R, FD.PendingSnapshot))
      return false;
  }
  return true;
}

bool fail(std::string *Error, const char *Why) {
  if (Error)
    *Error = Why;
  return false;
}

/// A resume writes each suspended frame's pending call record into the
/// spliced prefix, so every frame but the innermost must name a record
/// before the snapshot's index, and the innermost none.
bool pendingRecordsInPrefix(const Checkpoint &CP) {
  if (CP.Frames.empty())
    return false;
  for (size_t L = 0; L + 1 < CP.Frames.size(); ++L)
    if (CP.Frames[L].PendingRec >= CP.Index)
      return false;
  return CP.Frames.back().PendingRec == InvalidId;
}

} // namespace

//===----------------------------------------------------------------------===//
// File image encode / decode
//===----------------------------------------------------------------------===//

std::string eoe::interp::serializeCheckpoints(
    const std::vector<std::shared_ptr<const Checkpoint>> &Snapshots,
    const lang::Program &Prog, uint64_t ProgramHash, uint64_t MaxSteps,
    unsigned KeyframeInterval) {
  if (KeyframeInterval < 1)
    KeyframeInterval = 1;
  FuncIndex Funcs;
  for (uint32_t I = 0; I < Prog.functions().size(); ++I)
    Funcs[Prog.functions()[I]] = I;

  ByteWriter W;
  W.raw(Magic, sizeof(Magic));
  W.u32(CheckpointDiskVersion);
  W.u64(ProgramHash);
  W.u64(MaxSteps);
  W.u32(static_cast<uint32_t>(Snapshots.size()));
  size_t HeaderCrcAt = W.size();
  W.u32(0); // Header CRC placeholder.
  W.patchU32(HeaderCrcAt, ckptCrc32(W.str().data(), HeaderCrcAt));

  const Checkpoint *Prev = nullptr;
  unsigned ChainLen = 0;
  for (const auto &CP : Snapshots) {
    if (!CP)
      return {};
    ByteWriter Key;
    Key.u8(0);
    if (!writeCheckpoint(Key, *CP, Funcs))
      return {}; // Snapshot references functions outside Prog.
    std::string Payload = Key.take();
    if (Prev && ChainLen < KeyframeInterval) {
      ByteWriter Dw;
      Dw.u8(1);
      if (!writeCheckpointDelta(Dw, encodeCheckpointDelta(*Prev, *CP), Funcs))
        return {};
      // Mirror the in-memory store's rule: a delta that fails to shrink
      // below the full snapshot starts a fresh keyframe.
      if (Dw.size() < Payload.size()) {
        Payload = Dw.take();
        ++ChainLen;
      } else {
        ChainLen = 1;
      }
    } else {
      ChainLen = 1;
    }
    W.u32(static_cast<uint32_t>(Payload.size()));
    W.u32(ckptCrc32(Payload.data(), Payload.size()));
    W.raw(Payload.data(), Payload.size());
    Prev = CP.get();
  }
  return W.take();
}

static std::optional<std::vector<std::shared_ptr<const Checkpoint>>>
decodeImpl(std::string_view Bytes, const lang::Program &Prog,
           uint64_t ExpectedHash, uint64_t ExpectedMaxSteps,
           std::string *Error) {
  auto Reject = [&](const char *Why)
      -> std::optional<std::vector<std::shared_ptr<const Checkpoint>>> {
    fail(Error, Why);
    return std::nullopt;
  };

  constexpr size_t HeaderLen = 8 + 4 + 8 + 8 + 4 + 4;
  if (Bytes.size() < HeaderLen)
    return Reject("truncated header");
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return Reject("bad magic");
  ByteReader R(Bytes);
  std::string_view MagicBytes;
  (void)R.slice(MagicBytes, sizeof(Magic));
  uint32_t Version = 0, RecordCount = 0, HeaderCrc = 0;
  uint64_t Hash = 0, MaxSteps = 0;
  (void)R.u32(Version);
  (void)R.u64(Hash);
  (void)R.u64(MaxSteps);
  (void)R.u32(RecordCount);
  (void)R.u32(HeaderCrc);
  if (ckptCrc32(Bytes.data(), HeaderLen - 4) != HeaderCrc)
    return Reject("header checksum mismatch");
  if (Version != CheckpointDiskVersion)
    return Reject("unsupported version");
  if (Hash != ExpectedHash)
    return Reject("stale program hash");
  if (MaxSteps != ExpectedMaxSteps)
    return Reject("step budget mismatch");

  std::vector<std::shared_ptr<const Checkpoint>> Out;
  Out.reserve(std::min<uint64_t>(RecordCount, R.remaining() / 9));
  std::shared_ptr<const Checkpoint> Prev;
  int64_t LastIndex = -1;
  for (uint32_t Rec = 0; Rec < RecordCount; ++Rec) {
    uint32_t Len, Crc;
    if (!R.u32(Len) || !R.u32(Crc))
      return Reject("truncated record frame");
    std::string_view Payload;
    if (!R.slice(Payload, Len))
      return Reject("record length past end of file");
    if (ckptCrc32(Payload.data(), Payload.size()) != Crc)
      return Reject("record checksum mismatch");
    ByteReader PR(Payload);
    uint8_t Kind;
    if (!PR.u8(Kind))
      return Reject("empty record");
    std::shared_ptr<Checkpoint> CP;
    if (Kind == 0) {
      CP = std::make_shared<Checkpoint>();
      if (!readCheckpoint(PR, Prog, *CP))
        return Reject("malformed keyframe");
    } else if (Kind == 1) {
      if (!Prev)
        return Reject("delta record with no keyframe base");
      CheckpointDelta D;
      if (!readCheckpointDelta(PR, Prog, *Prev, D))
        return Reject("malformed delta");
      CP = applyCheckpointDelta(*Prev, D);
    } else {
      return Reject("unknown record kind");
    }
    if (!PR.done())
      return Reject("trailing bytes in record");
    if (static_cast<int64_t>(CP->Index) <= LastIndex)
      return Reject("record indices not ascending");
    if (CP->StepCount > ExpectedMaxSteps)
      return Reject("snapshot past step budget");
    if (!pendingRecordsInPrefix(*CP))
      return Reject("pending call record outside the snapshot's prefix");
    LastIndex = CP->Index;
    Prev = CP;
    Out.push_back(std::move(CP));
  }
  if (!R.done())
    return Reject("trailing bytes after last record");
  return Out;
}

std::optional<std::vector<std::shared_ptr<const Checkpoint>>>
eoe::interp::deserializeCheckpoints(std::string_view Bytes,
                                    const lang::Program &Prog,
                                    uint64_t ExpectedHash,
                                    uint64_t ExpectedMaxSteps,
                                    std::string *Error) {
  return decodeImpl(Bytes, Prog, ExpectedHash, ExpectedMaxSteps, Error);
}

//===----------------------------------------------------------------------===//
// CheckpointDiskStore
//===----------------------------------------------------------------------===//

std::string CheckpointDiskStore::fileNameFor(uint64_t ProgramHash,
                                             uint64_t MaxSteps) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "ckpt-%016llx-%llu.eoeckpt",
                static_cast<unsigned long long>(ProgramHash),
                static_cast<unsigned long long>(MaxSteps));
  return Buf;
}

std::string CheckpointDiskStore::pathFor(uint64_t ProgramHash,
                                         uint64_t MaxSteps) const {
  return (std::filesystem::path(Dir) / fileNameFor(ProgramHash, MaxSteps))
      .string();
}

size_t CheckpointDiskStore::load(SharedCheckpointStore &Shared,
                                 const lang::Program &Prog, uint64_t MaxSteps,
                                 support::StatsRegistry *Stats) {
  uint64_t Hash = SharedCheckpointStore::hashProgram(Prog);
  std::string Path = pathFor(Hash, MaxSteps);
  std::error_code Ec;
  if (!std::filesystem::exists(Path, Ec) || Ec)
    return 0; // Cold cache: not an error.
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    support::StatsRegistry::add(Stats, "verify.ckpt.disk_rejects");
    return 0;
  }
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof()) {
    support::StatsRegistry::add(Stats, "verify.ckpt.disk_rejects");
    return 0;
  }
  auto Decoded = deserializeCheckpoints(Bytes, Prog, Hash, MaxSteps);
  if (!Decoded) {
    support::StatsRegistry::add(Stats, "verify.ckpt.disk_rejects");
    return 0;
  }
  size_t Promoted = 0;
  for (const auto &CP : *Decoded)
    if (Shared.promote(CP, Hash, &Prog, MaxSteps, /*FromDisk=*/true))
      ++Promoted;
  support::StatsRegistry::add(Stats, "verify.ckpt.disk_loads", Promoted);
  return Promoted;
}

bool CheckpointDiskStore::save(const SharedCheckpointStore &Shared,
                               const lang::Program &Prog, uint64_t MaxSteps,
                               support::StatsRegistry *Stats) {
  uint64_t Hash = SharedCheckpointStore::hashProgram(Prog);
  auto Snapshots = Shared.snapshotsFor(Hash, &Prog, MaxSteps);
  if (Snapshots.empty())
    return true; // Nothing to persist; leave any previous cache alone.
  std::string Bytes = serializeCheckpoints(Snapshots, Prog, Hash, MaxSteps);
  if (Bytes.empty())
    return false;
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return false;
  std::string Path = pathFor(Hash, MaxSteps);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good())
      return false;
  }
  // Atomic publish: readers see the old complete file or the new one,
  // never a half-written cache.
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return false;
  }
  support::StatsRegistry::add(Stats, "verify.ckpt.disk_write_bytes",
                              Bytes.size());
  return true;
}

CheckpointDiskStore::SweepResult
CheckpointDiskStore::sweep(uint64_t MaxBytes, std::chrono::seconds MaxTmpAge,
                           support::StatsRegistry *Stats) {
  namespace fs = std::filesystem;
  SweepResult R;
  std::error_code Ec;
  fs::directory_iterator It(Dir, Ec), End;
  if (Ec)
    return R; // Missing or unreadable directory: nothing to cap.

  struct Entry {
    fs::path Path;
    std::string Name;
    uint64_t Size = 0;
    fs::file_time_type MTime;
  };
  std::vector<Entry> Caches;
  const fs::file_time_type Now = fs::file_time_type::clock::now();
  auto Remove = [&](const fs::path &P, uint64_t Size) {
    std::error_code RmEc;
    if (!fs::remove(P, RmEc) || RmEc)
      return; // Lost a race or lack permission: fine, best-effort.
    ++R.Files;
    R.Bytes += Size;
  };

  for (; It != End; It.increment(Ec)) {
    if (Ec)
      break;
    std::error_code EntEc;
    if (!It->is_regular_file(EntEc) || EntEc)
      continue;
    std::string Name = It->path().filename().string();
    const bool IsTmp = Name.ends_with(".eoeckpt.tmp");
    const bool IsCache = !IsTmp && Name.starts_with("ckpt-") &&
                         Name.ends_with(".eoeckpt");
    if (!IsTmp && !IsCache)
      continue; // Foreign file sharing the directory: never ours to touch.
    uint64_t Size = It->file_size(EntEc);
    if (EntEc)
      continue;
    fs::file_time_type MTime = It->last_write_time(EntEc);
    if (EntEc)
      continue;
    if (IsTmp) {
      // A live writer's temp is seconds old; only debris from crashed
      // writers crosses the age threshold.
      if (Now - MTime > MaxTmpAge)
        Remove(It->path(), Size);
      continue;
    }
    Caches.push_back({It->path(), std::move(Name), Size, MTime});
  }

  uint64_t Total = 0;
  for (const Entry &E : Caches)
    Total += E.Size;
  if (Total > MaxBytes) {
    // Oldest first; equal mtimes (coarse filesystems) break by name so
    // every sweeper picks the same victims.
    std::sort(Caches.begin(), Caches.end(), [](const Entry &A, const Entry &B) {
      if (A.MTime != B.MTime)
        return A.MTime < B.MTime;
      return A.Name < B.Name;
    });
    for (const Entry &E : Caches) {
      if (Total <= MaxBytes)
        break;
      Remove(E.Path, E.Size);
      Total -= E.Size;
    }
  }

  if (R.Files) {
    support::StatsRegistry::add(Stats, "verify.ckpt.disk_sweep_files", R.Files);
    support::StatsRegistry::add(Stats, "verify.ckpt.disk_sweep_bytes", R.Bytes);
  }
  return R;
}
