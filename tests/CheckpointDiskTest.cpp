//===-- tests/CheckpointDiskTest.cpp - Persistent checkpoint cache -------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The on-disk cache's contract (docs/checkpointing.md): serialization is
// deterministic and round-trips byte-identically; the loader rejects
// every structurally damaged image cleanly (truncation, bit flips, stale
// validity keys, interrupted writes) and never fabricates a snapshot; a
// committed golden fixture pins the version-1 byte layout so silent
// format drift forces an explicit version bump. The concurrent case --
// load() promoting into a SharedCheckpointStore other threads are
// reading -- lives here so `ctest -L parallel` under TSan covers it.
//
//===----------------------------------------------------------------------===//

#include "interp/CheckpointDiskStore.h"
#include "RandomProgram.h"
#include "support/Stats.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::test;

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kMaxSteps = 500'000;

using SnapshotList = std::vector<std::shared_ptr<const Checkpoint>>;

/// A program, its snapshots (one per clean predicate instance, strided),
/// and the content hash -- everything a cache file is made of.
struct Subject {
  std::unique_ptr<lang::Program> Prog;
  SnapshotList Snaps;
  uint64_t Hash = 0;
};

SnapshotList collectSnapshots(interp::Interpreter &Interp,
                              const std::vector<int64_t> &Input,
                              size_t Stride) {
  ExecutionTrace E = Interp.run(Input);
  CheckpointStore Store(256ull << 20);
  CheckpointPlan Plan;
  Plan.Store = &Store;
  size_t Seen = 0;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).isPredicateInstance() && Seen++ % Stride == 0)
      Plan.Sites.push_back(I);
  Interpreter::Options Opts;
  Opts.MaxSteps = kMaxSteps;
  Opts.Checkpoints = &Plan;
  Interp.run(Input, Opts);

  SnapshotList Snaps;
  for (TraceIdx S : Plan.Sites)
    if (auto CP = Store.nearest(S))
      if (Snaps.empty() || Snaps.back()->Index < CP->Index)
        Snaps.push_back(CP);
  return Snaps;
}

Subject makeRandomSubject(uint64_t Seed) {
  RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission();
  Subject S;
  S.Prog = parseOrDie(Variant.FaultySource);
  if (!S.Prog)
    return S;
  analysis::StaticAnalysis SA(*S.Prog);
  interp::Interpreter Interp(*S.Prog, SA);
  S.Snaps = collectSnapshots(Interp, Variant.Input, 2);
  S.Hash = SharedCheckpointStore::hashProgram(*S.Prog);
  return S;
}

bool sameSnapshots(const SnapshotList &A, const SnapshotList &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(*A[I] == *B[I]))
      return false;
  return true;
}

/// Input-free program: every snapshot is input-independent, so the
/// SharedCheckpointStore accepts all of them (the disk store's unit).
const char *kSharedSrc = "fn helper(n) {\n"
                         "  var r = 0;\n"
                         "  if (n > 2) {\n"
                         "    r = n * 2;\n"
                         "  }\n"
                         "  return r + 1;\n"
                         "}\n"
                         "fn main() {\n"
                         "  var i = 0;\n"
                         "  var acc = 0;\n"
                         "  while (i < 8) {\n"
                         "    acc = acc + helper(i);\n"
                         "    i = i + 1;\n"
                         "  }\n"
                         "  print(acc);\n"
                         "}\n";

/// Builds a SharedCheckpointStore holding \p S's snapshots (all must be
/// input-independent) and returns how many were admitted.
size_t promoteAll(SharedCheckpointStore &Shared, const Subject &S) {
  size_t N = 0;
  for (const auto &CP : S.Snaps)
    if (Shared.promote(CP, S.Hash, S.Prog.get(), kMaxSteps))
      ++N;
  return N;
}

Subject makeSharedSubject() {
  Subject S;
  S.Prog = parseOrDie(kSharedSrc);
  if (!S.Prog)
    return S;
  analysis::StaticAnalysis SA(*S.Prog);
  interp::Interpreter Interp(*S.Prog, SA);
  S.Snaps = collectSnapshots(Interp, {}, 1);
  S.Hash = SharedCheckpointStore::hashProgram(*S.Prog);
  return S;
}

fs::path freshDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFile(const fs::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

class DiskRoundTrip : public ::testing::TestWithParam<uint64_t> {};

// Round trip over random programs: decode(encode(snaps)) == snaps, and
// re-encoding the decoded list reproduces the exact bytes (the encoder
// is deterministic, so byte identity is the strongest equality we have).
TEST_P(DiskRoundTrip, ByteIdenticalOverRandomPrograms) {
  Subject S = makeRandomSubject(GetParam());
  ASSERT_TRUE(S.Prog);

  std::string Bytes = serializeCheckpoints(S.Snaps, *S.Prog, S.Hash, kMaxSteps);
  ASSERT_FALSE(Bytes.empty());

  std::string Err;
  auto Back = deserializeCheckpoints(Bytes, *S.Prog, S.Hash, kMaxSteps, &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_TRUE(sameSnapshots(S.Snaps, *Back)) << "seed " << GetParam();

  std::string Again = serializeCheckpoints(*Back, *S.Prog, S.Hash, kMaxSteps);
  EXPECT_EQ(Bytes, Again) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskRoundTrip,
                         ::testing::Range<uint64_t>(400, 412));

// Corruption injection: a flipped byte anywhere in the image must make
// the loader reject (or, when the flip cancels out, decode the original
// exactly); every truncation must reject.
TEST(CheckpointDiskTest, CorruptedImagesAreRejected) {
  Subject S = makeRandomSubject(77);
  ASSERT_TRUE(S.Prog);
  ASSERT_FALSE(S.Snaps.empty());
  std::string Bytes = serializeCheckpoints(S.Snaps, *S.Prog, S.Hash, kMaxSteps);

  // Byte flips at offsets spread over the whole image (header, record
  // frames, payloads).
  size_t Step = Bytes.size() / 64 ? Bytes.size() / 64 : 1;
  for (size_t At = 0; At < Bytes.size(); At += Step) {
    std::string M = Bytes;
    M[At] = static_cast<char>(M[At] ^ 0x5A);
    auto R = deserializeCheckpoints(M, *S.Prog, S.Hash, kMaxSteps);
    if (R) {
      EXPECT_TRUE(sameSnapshots(S.Snaps, *R)) << "flip at offset " << At;
    }
  }

  // Truncations: every prefix strictly shorter than the file.
  for (size_t Len = 0; Len < Bytes.size();
       Len += Bytes.size() / 97 ? Bytes.size() / 97 : 1) {
    std::string Err;
    auto R = deserializeCheckpoints(std::string_view(Bytes).substr(0, Len),
                                    *S.Prog, S.Hash, kMaxSteps, &Err);
    EXPECT_FALSE(R) << "truncation to " << Len << " bytes accepted";
    EXPECT_FALSE(Err.empty());
  }

  // Trailing garbage after a valid image.
  std::string Padded = Bytes + std::string(16, '\0');
  EXPECT_FALSE(deserializeCheckpoints(Padded, *S.Prog, S.Hash, kMaxSteps));

  // A checksum-valid image whose innermost frame names a pending call
  // record at the snapshot's own index: a resume would write it outside
  // the spliced prefix.
  auto Bad = std::make_shared<Checkpoint>(*S.Snaps.front());
  Bad->Frames.back().PendingRec = Bad->Index;
  std::string Err;
  EXPECT_FALSE(deserializeCheckpoints(
      serializeCheckpoints({Bad}, *S.Prog, S.Hash, kMaxSteps), *S.Prog,
      S.Hash, kMaxSteps, &Err));
  EXPECT_EQ(Err, "pending call record outside the snapshot's prefix");
}

// The validity key: a cache written for another program revision (hash)
// or another step budget must not seed this session.
TEST(CheckpointDiskTest, StaleValidityKeysAreRejected) {
  Subject S = makeRandomSubject(78);
  ASSERT_TRUE(S.Prog);
  std::string Bytes = serializeCheckpoints(S.Snaps, *S.Prog, S.Hash, kMaxSteps);

  std::string Err;
  EXPECT_FALSE(
      deserializeCheckpoints(Bytes, *S.Prog, S.Hash + 1, kMaxSteps, &Err));
  EXPECT_EQ(Err, "stale program hash");
  EXPECT_FALSE(
      deserializeCheckpoints(Bytes, *S.Prog, S.Hash, kMaxSteps + 1, &Err));
  EXPECT_EQ(Err, "step budget mismatch");

  // Version skew: the loader accepts exactly CheckpointDiskVersion. The
  // header CRC is recomputed so the version check itself is what rejects
  // (a raw flip would trip the checksum first).
  std::string Skewed = Bytes;
  Skewed[8] = static_cast<char>(CheckpointDiskVersion + 1);
  uint32_t Crc = ckptCrc32(Skewed.data(), 32);
  for (int B = 0; B < 4; ++B)
    Skewed[32 + B] = static_cast<char>((Crc >> (8 * B)) & 0xFF);
  EXPECT_FALSE(deserializeCheckpoints(Skewed, *S.Prog, S.Hash, kMaxSteps, &Err));
  EXPECT_EQ(Err, "unsupported version");
}

// The directory-level store: save writes via temp-file + rename, so a
// leftover .tmp from an interrupted writer is inert, a truncated cache
// file costs only the warm start (counted as a reject), and the next
// save repairs it.
TEST(CheckpointDiskTest, InterruptedWritesNeverPoisonTheCache) {
  Subject S = makeSharedSubject();
  ASSERT_TRUE(S.Prog);
  SharedCheckpointStore Live;
  size_t N = promoteAll(Live, S);
  ASSERT_GT(N, 0u);

  fs::path Dir = freshDir("eoe-ckpt-atomic");
  CheckpointDiskStore Disk(Dir.string());
  support::StatsRegistry Reg;
  ASSERT_TRUE(Disk.save(Live, *S.Prog, kMaxSteps, &Reg));
  fs::path Cache(Disk.pathFor(S.Hash, kMaxSteps));
  ASSERT_TRUE(fs::exists(Cache));

  // A dying writer's leftover temp file must not confuse the loader.
  writeFile(Cache.string() + ".tmp", "interrupted garbage");
  {
    SharedCheckpointStore Revived;
    EXPECT_EQ(Disk.load(Revived, *S.Prog, kMaxSteps, &Reg), N);
    EXPECT_EQ(Revived.count(), N);
    EXPECT_EQ(Revived.diskIndicesFor(S.Hash, S.Prog.get(), kMaxSteps).size(),
              N);
    EXPECT_TRUE(sameSnapshots(
        S.Snaps, Revived.snapshotsFor(S.Hash, S.Prog.get(), kMaxSteps)));
  }
  EXPECT_EQ(Reg.counter("verify.ckpt.disk_loads").get(), N);
  EXPECT_EQ(Reg.counter("verify.ckpt.disk_rejects").get(), 0u);

  // A write that died mid-rename never happens (rename is atomic), but a
  // torn final file -- e.g. a crashed filesystem -- must reject cleanly.
  std::string Valid = readFile(Cache);
  writeFile(Cache, Valid.substr(0, Valid.size() / 2));
  {
    SharedCheckpointStore Revived;
    EXPECT_EQ(Disk.load(Revived, *S.Prog, kMaxSteps, &Reg), 0u);
    EXPECT_EQ(Revived.count(), 0u);
  }
  EXPECT_EQ(Reg.counter("verify.ckpt.disk_rejects").get(), 1u);

  // The next save repairs the cache in place.
  ASSERT_TRUE(Disk.save(Live, *S.Prog, kMaxSteps, &Reg));
  {
    SharedCheckpointStore Revived;
    EXPECT_EQ(Disk.load(Revived, *S.Prog, kMaxSteps, &Reg), N);
  }

  // A missing file is not an error and not a reject.
  fs::remove(Cache);
  {
    SharedCheckpointStore Revived;
    EXPECT_EQ(Disk.load(Revived, *S.Prog, kMaxSteps, &Reg), 0u);
  }
  EXPECT_EQ(Reg.counter("verify.ckpt.disk_rejects").get(), 1u);
}

// Snapshots revived from disk keep their disk origin; snapshots a live
// collection pass promoted first do not acquire one retroactively.
TEST(CheckpointDiskTest, DiskOriginTracksOnlyRevivedSnapshots) {
  Subject S = makeSharedSubject();
  ASSERT_TRUE(S.Prog);
  ASSERT_GE(S.Snaps.size(), 2u);

  SharedCheckpointStore Live;
  ASSERT_GT(promoteAll(Live, S), 0u);
  fs::path Dir = freshDir("eoe-ckpt-origin");
  CheckpointDiskStore Disk(Dir.string());
  ASSERT_TRUE(Disk.save(Live, *S.Prog, kMaxSteps));

  // Fresh store: a live pass promotes the first snapshot, then the cache
  // load offers everything. The pre-promoted index keeps its live origin.
  SharedCheckpointStore Mixed;
  ASSERT_TRUE(
      Mixed.promote(S.Snaps.front(), S.Hash, S.Prog.get(), kMaxSteps));
  EXPECT_EQ(Disk.load(Mixed, *S.Prog, kMaxSteps), S.Snaps.size() - 1);
  std::vector<TraceIdx> FromDisk =
      Mixed.diskIndicesFor(S.Hash, S.Prog.get(), kMaxSteps);
  EXPECT_EQ(FromDisk.size(), S.Snaps.size() - 1);
  for (TraceIdx I : FromDisk)
    EXPECT_NE(I, S.Snaps.front()->Index);
}

// TSan target: several threads load the same cache file into one shared
// store while readers resolve snapshots from it, like parallel verifier
// workers racing a warm start.
TEST(CheckpointDiskTest, ConcurrentLoadWhileVerifyIsRaceFree) {
  Subject S = makeSharedSubject();
  ASSERT_TRUE(S.Prog);
  SharedCheckpointStore Live;
  size_t N = promoteAll(Live, S);
  ASSERT_GT(N, 0u);

  fs::path Dir = freshDir("eoe-ckpt-concurrent");
  CheckpointDiskStore Disk(Dir.string());
  ASSERT_TRUE(Disk.save(Live, *S.Prog, kMaxSteps));

  SharedCheckpointStore Shared;
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      SharedCheckpointStore *Target = &Shared;
      CheckpointDiskStore Loader(Dir.string());
      Loader.load(*Target, *S.Prog, kMaxSteps);
    });
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      // Verifier-side reads: enumerate and dereference whatever snapshots
      // have been promoted so far.
      for (int Round = 0; Round < 200; ++Round) {
        SnapshotList Seen =
            Shared.snapshotsFor(S.Hash, S.Prog.get(), kMaxSteps);
        uint64_t Sum = 0;
        for (const auto &CP : Seen)
          Sum += CP->StepCount + CP->Frames.size();
        (void)Sum;
        (void)Shared.diskIndicesFor(S.Hash, S.Prog.get(), kMaxSteps);
      }
    });
  for (auto &T : Threads)
    T.join();

  // Duplicate promotions were refused: exactly one copy of each snapshot.
  EXPECT_EQ(Shared.count(), N);
  EXPECT_TRUE(sameSnapshots(
      S.Snaps, Shared.snapshotsFor(S.Hash, S.Prog.get(), kMaxSteps)));
  EXPECT_EQ(Shared.diskIndicesFor(S.Hash, S.Prog.get(), kMaxSteps).size(), N);
}

// The committed golden fixture: the version-1 bytes written by the
// serializer at the time the format was frozen. The current loader must
// read it, and the current serializer must still produce it byte for
// byte -- any drift is a format change and needs a version bump plus a
// regenerated fixture (run with EOE_REGEN_GOLDEN=1 to regenerate).
TEST(CheckpointDiskTest, GoldenFixtureStillLoads) {
  Subject S = makeSharedSubject();
  ASSERT_TRUE(S.Prog);
  ASSERT_FALSE(S.Snaps.empty());
  std::string Bytes = serializeCheckpoints(S.Snaps, *S.Prog, S.Hash, kMaxSteps);

  fs::path Fixture =
      fs::path(EOE_GOLDEN_DIR) /
      CheckpointDiskStore::fileNameFor(S.Hash, kMaxSteps);
  if (std::getenv("EOE_REGEN_GOLDEN")) {
    fs::create_directories(Fixture.parent_path());
    writeFile(Fixture, Bytes);
    GTEST_SKIP() << "regenerated " << Fixture;
  }
  ASSERT_TRUE(fs::exists(Fixture))
      << Fixture << " missing; run with EOE_REGEN_GOLDEN=1 to create it";

  std::string Golden = readFile(Fixture);
  std::string Err;
  auto Back = deserializeCheckpoints(Golden, *S.Prog, S.Hash, kMaxSteps, &Err);
  ASSERT_TRUE(Back) << "golden fixture no longer loads: " << Err;
  EXPECT_TRUE(sameSnapshots(S.Snaps, *Back))
      << "golden fixture decodes to different state";
  EXPECT_EQ(Golden, Bytes)
      << "serializer output drifted from the committed version-1 fixture; "
         "bump CheckpointDiskVersion and regenerate";
}

// sweep() in a crowded directory: only our two file patterns are ever
// candidates, stale writer temps go first, then cache files leave
// oldest-mtime-first until the survivors fit the cap. Foreign files --
// the rest of a busy temp dir -- are never touched.
TEST(CheckpointDiskTest, SweepCapsACrowdedDirectory) {
  fs::path Dir = freshDir("eoe_sweep_crowded");
  auto Touch = [&](const char *Name, size_t Bytes, int AgeHours) {
    fs::path P = Dir / Name;
    writeFile(P, std::string(Bytes, 'x'));
    fs::last_write_time(P, fs::file_time_type::clock::now() -
                               std::chrono::hours(AgeHours));
    return P;
  };

  // Three cache files, oldest first; 3 KiB total.
  fs::path Oldest = Touch("ckpt-000000000000000a-100.eoeckpt", 1024, 30);
  fs::path Middle = Touch("ckpt-000000000000000b-100.eoeckpt", 1024, 20);
  fs::path Newest = Touch("ckpt-000000000000000c-100.eoeckpt", 1024, 10);
  // Writer temps: one stale (crashed writer debris), one fresh (a live
  // writer mid-save -- the rename discipline says hands off).
  fs::path StaleTmp =
      Touch("ckpt-000000000000000d-100.eoeckpt.tmp", 512, 48);
  fs::path FreshTmp = Touch("ckpt-000000000000000e-100.eoeckpt.tmp", 512, 0);
  // Foreign neighbors a crowded temp dir would hold.
  fs::path Foreign1 = Touch("unrelated.txt", 64, 99);
  fs::path Foreign2 = Touch("ckpt-not-ours.dat", 64, 99);
  fs::path Foreign3 = Touch("other.eoeckpt.bak", 64, 99);

  support::StatsRegistry Stats;
  CheckpointDiskStore Store(Dir.string());
  // Cap at 2 KiB: the stale temp and the oldest cache file must go.
  CheckpointDiskStore::SweepResult R =
      Store.sweep(2048, std::chrono::hours(1), &Stats);

  EXPECT_EQ(R.Files, 2u);
  EXPECT_EQ(R.Bytes, 1024u + 512u);
  EXPECT_FALSE(fs::exists(Oldest));
  EXPECT_FALSE(fs::exists(StaleTmp));
  EXPECT_TRUE(fs::exists(Middle));
  EXPECT_TRUE(fs::exists(Newest));
  EXPECT_TRUE(fs::exists(FreshTmp));
  EXPECT_TRUE(fs::exists(Foreign1));
  EXPECT_TRUE(fs::exists(Foreign2));
  EXPECT_TRUE(fs::exists(Foreign3));
  EXPECT_EQ(Stats.counter("verify.ckpt.disk_sweep_files").get(), 2u);
  EXPECT_EQ(Stats.counter("verify.ckpt.disk_sweep_bytes").get(), 1536u);

  // Under the cap already: a second sweep is a no-op.
  CheckpointDiskStore::SweepResult R2 = Store.sweep(2048);
  EXPECT_EQ(R2.Files, 0u);
  EXPECT_TRUE(fs::exists(Middle));
  EXPECT_TRUE(fs::exists(Newest));

  // Cap 0 evicts every cache file but still spares fresh temps and
  // foreign files.
  CheckpointDiskStore::SweepResult R3 = Store.sweep(0);
  EXPECT_EQ(R3.Files, 2u);
  EXPECT_FALSE(fs::exists(Middle));
  EXPECT_FALSE(fs::exists(Newest));
  EXPECT_TRUE(fs::exists(FreshTmp));
  EXPECT_TRUE(fs::exists(Foreign1));

  // A directory that does not exist sweeps to nothing, not an error.
  CheckpointDiskStore Missing((Dir / "nope").string());
  CheckpointDiskStore::SweepResult R4 = Missing.sweep(0);
  EXPECT_EQ(R4.Files, 0u);
  EXPECT_EQ(R4.Bytes, 0u);
}

} // namespace
