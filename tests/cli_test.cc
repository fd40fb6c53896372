// Integration tests for sdjoin_cli's durable-cursor flag matrix (see the
// header comment in tools/sdjoin_cli.cc): exit codes, suspend/resume stream
// equality across thread counts, checkpoint fallback after on-disk snapshot
// corruption, and fault-injected runs — plus the sdjoin_scrub exit-code
// matrix (clean=0, corruption=1, usage=2, unreadable=3; DESIGN.md §16).
// The binaries under test are passed as command-line arguments: argv[1] =
// sdjoin_cli, argv[2] = sdjoin_scrub (wired up in tests/CMakeLists.txt).
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/checksum.h"

std::string g_cli_path;
std::string g_scrub_path;

namespace sdj {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

RunResult RunBinary(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

RunResult RunCli(const std::string& args) {
  return RunBinary(g_cli_path, args);
}

RunResult RunScrub(const std::string& args) {
  return RunBinary(g_scrub_path, args);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

// The "id1,id2,distance" result lines, with comments and warnings dropped.
std::vector<std::string> PairLines(const std::string& output) {
  std::vector<std::string> pairs;
  for (const std::string& line : SplitLines(output)) {
    if (!line.empty() && line[0] >= '0' && line[0] <= '9' &&
        line.find(',') != std::string::npos) {
      pairs.push_back(line);
    }
  }
  return pairs;
}

// The "# cost: ..." summary line (empty if absent).
std::string CostLine(const std::string& output) {
  for (const std::string& line : SplitLines(output)) {
    if (line.rfind("# cost:", 0) == 0) return line;
  }
  return "";
}

// Flips one byte of a physical snapshot page so the page checksum fails;
// mirrors CorruptPage in join_cursor_test.cc.
void CorruptSnapshotPage(const std::string& path, uint32_t page) {
  const uint64_t physical = 4096 + storage::kPageTrailerSize;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long offset = static_cast<long>(page * physical + 16);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0xFF, f), EOF);
  std::fclose(f);
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    a_csv_ = ::testing::TempDir() + "/cli_a.csv";
    b_csv_ = ::testing::TempDir() + "/cli_b.csv";
    ASSERT_EQ(RunCli("gen --out=" + a_csv_ + " --n=400 --seed=11").exit_code,
              0);
    ASSERT_EQ(RunCli("gen --out=" + b_csv_ + " --n=400 --seed=12").exit_code,
              0);
  }

  static std::string JoinArgs(const std::string& extra) {
    return "join --a=" + a_csv_ + " --b=" + b_csv_ +
           " --k=300 --print=1000 " + extra;
  }
  static std::string SemiArgs(const std::string& extra) {
    return "semijoin --a=" + a_csv_ + " --b=" + b_csv_ +
           " --k=150 --print=1000 " + extra;
  }
  static std::string WithinArgs(const std::string& extra) {
    return "join --a=" + a_csv_ + " --b=" + b_csv_ +
           " --within=3000 --print=100000 " + extra;
  }

  static std::string a_csv_;
  static std::string b_csv_;
};

std::string CliTest::a_csv_;
std::string CliTest::b_csv_;

TEST_F(CliTest, UsageAndInputExitCodes) {
  EXPECT_EQ(RunCli("frobnicate").exit_code, 2);  // unknown command
  EXPECT_EQ(RunCli("join --b=" + b_csv_).exit_code, 1);  // missing --a
  // --resume without --snapshot is a usage error, not a silent fresh start.
  const RunResult r = RunCli(JoinArgs("--resume"));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--resume requires --snapshot"), std::string::npos);
}

TEST_F(CliTest, SuspendThenResumeReproducesTheUninterruptedStream) {
  // The pair stream must survive suspend/resume under whatever shard count
  // the environment selects (SDJ_SHARDS) and under an explicit serial one.
  // The "# cost:" counters are compared only for the serial pair: a capped
  // (--k) sharded run's traversal counters depend on how far each shard's
  // producer ran ahead when the cap was hit (DESIGN.md §18), so they differ
  // run to run even though the stream does not.
  for (const std::string shards : {"", "--shards=1 "}) {
    SCOPED_TRACE(shards.empty() ? "environment shards" : shards);
    const RunResult reference = RunCli(JoinArgs(shards));
    ASSERT_EQ(reference.exit_code, 0);
    const std::vector<std::string> expected = PairLines(reference.output);
    ASSERT_EQ(expected.size(), 300u);

    const std::string snap = ::testing::TempDir() + "/cli_join.snap";
    std::remove(snap.c_str());
    const RunResult suspended =
        RunCli(JoinArgs(shards + "--suspend-after=120 --snapshot=" + snap));
    EXPECT_EQ(suspended.exit_code, 4);
    EXPECT_NE(suspended.output.find("suspended: state checkpointed"),
              std::string::npos);
    std::vector<std::string> combined = PairLines(suspended.output);
    ASSERT_EQ(combined.size(), 120u);

    // Resume with a different thread count: the thread count is not part
    // of the snapshot fingerprint and the stream is output-identical.
    const RunResult resumed =
        RunCli(JoinArgs(shards + "--resume --threads=4 --snapshot=" + snap));
    EXPECT_EQ(resumed.exit_code, 0);
    for (const std::string& line : PairLines(resumed.output)) {
      combined.push_back(line);
    }
    EXPECT_EQ(combined, expected);
    if (!shards.empty()) {
      // Final statistics match the uninterrupted serial run's as well.
      EXPECT_FALSE(CostLine(reference.output).empty());
      EXPECT_EQ(CostLine(resumed.output), CostLine(reference.output));
    }
  }
}

TEST_F(CliTest, CorruptNewestSnapshotFallsBackToPreviousCheckpoint) {
  const RunResult reference = RunCli(JoinArgs(""));
  ASSERT_EQ(reference.exit_code, 0);
  const std::vector<std::string> expected = PairLines(reference.output);

  const std::string snap = ::testing::TempDir() + "/cli_fallback.snap";
  std::remove(snap.c_str());
  // Checkpoints at pairs 50 (epoch 1) and 100 (epoch 2); the suspension
  // snapshot at pair 120 is epoch 3, stored in header slot 3 & 1 == 1.
  const RunResult suspended = RunCli(JoinArgs(
      "--checkpoint-every=50 --suspend-after=120 --snapshot=" + snap));
  ASSERT_EQ(suspended.exit_code, 4);
  CorruptSnapshotPage(snap, /*page=*/1);

  // Resume falls back to epoch 2 (pair 100) and replays from there.
  const RunResult resumed = RunCli(JoinArgs("--resume --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_NE(resumed.output.find("snapshot fallbacks"), std::string::npos);
  std::vector<std::string> combined(PairLines(suspended.output));
  ASSERT_GE(combined.size(), 100u);
  combined.resize(100);
  for (const std::string& line : PairLines(resumed.output)) {
    combined.push_back(line);
  }
  EXPECT_EQ(combined, expected);
}

TEST_F(CliTest, ResumeOnEmptySnapshotStoreWarnsAndStartsFromScratch) {
  const std::string snap = ::testing::TempDir() + "/cli_empty.snap";
  std::remove(snap.c_str());
  const RunResult r = RunCli(JoinArgs("--resume --snapshot=" + snap));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("no usable snapshot"), std::string::npos);
  EXPECT_EQ(PairLines(r.output).size(), 300u);
}

TEST_F(CliTest, TransientFaultsWithCheckpointsStillResumeCleanly) {
  const RunResult reference = RunCli(JoinArgs(""));
  ASSERT_EQ(reference.exit_code, 0);

  const std::string snap = ::testing::TempDir() + "/cli_faults.snap";
  std::remove(snap.c_str());
  // Transient faults cover the trees AND the snapshot store; bounded
  // retries recover both, so the stream still matches the clean run.
  const std::string faults = "--inject-faults=5 ";
  const RunResult suspended = RunCli(JoinArgs(
      faults + "--checkpoint-every=40 --suspend-after=150 --snapshot=" +
      snap));
  ASSERT_EQ(suspended.exit_code, 4);
  const RunResult resumed =
      RunCli(JoinArgs(faults + "--resume --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
  std::vector<std::string> combined = PairLines(suspended.output);
  ASSERT_EQ(combined.size(), 150u);
  for (const std::string& line : PairLines(resumed.output)) {
    combined.push_back(line);
  }
  EXPECT_EQ(combined, PairLines(reference.output));
}

TEST_F(CliTest, HardFaultExitsThreeWithIdenticalPrefixAcrossThreads) {
  // --buffer=2 forces physical reads (a fully cached tree never reaches the
  // injector); after 10 of them every further read fails hard.
  const std::string faults =
      "--inject-faults=3 --fault-read-rate=0 --fault-write-rate=0 "
      "--fault-bit-flip-rate=0 --fault-hard-read-after=10 --buffer=2 ";
  const RunResult serial = RunCli(JoinArgs(faults + "--threads=1"));
  const RunResult parallel = RunCli(JoinArgs(faults + "--threads=4"));
  EXPECT_EQ(serial.exit_code, 3);
  EXPECT_NE(serial.output.find("io-error"), std::string::npos);
  // The parallel engine reports the identical error-point prefix.
  EXPECT_EQ(parallel.exit_code, 3);
  EXPECT_EQ(PairLines(parallel.output), PairLines(serial.output));
}

TEST_F(CliTest, WithinJoinMatchesMaxDistanceRestrictedJoin) {
  const RunResult within = RunCli(WithinArgs(""));
  ASSERT_EQ(within.exit_code, 0);
  const std::vector<std::string> pairs = PairLines(within.output);
  ASSERT_GT(pairs.size(), 0u);
  // The stream ascends and respects eps (inclusive).
  double prev = 0.0;
  for (const std::string& line : pairs) {
    const double d = std::atof(line.substr(line.rfind(',') + 1).c_str());
    EXPECT_GE(d, prev);
    EXPECT_LE(d, 3000.0);
    prev = d;
  }
  // Same stream as a DistanceJoin clamped to the same range.
  const RunResult clamped = RunCli("join --a=" + a_csv_ + " --b=" + b_csv_ +
                                   " --max-distance=3000 --print=100000");
  ASSERT_EQ(clamped.exit_code, 0);
  EXPECT_EQ(pairs, PairLines(clamped.output));
}

// --within=E is the Even join with --max-distance=E: at one shard (no
// merge, one engine either way) both print the same pairs and the same
// cost counters.
TEST_F(CliTest, WithinJoinIsTheMaxDistanceJoinAtOneShard) {
  const RunResult within = RunCli(WithinArgs("--shards=1"));
  ASSERT_EQ(within.exit_code, 0);
  const RunResult clamped =
      RunCli("join --a=" + a_csv_ + " --b=" + b_csv_ +
             " --max-distance=3000 --print=100000 --shards=1");
  ASSERT_EQ(clamped.exit_code, 0);
  ASSERT_GT(PairLines(within.output).size(), 0u);
  EXPECT_EQ(PairLines(within.output), PairLines(clamped.output));
  ASSERT_FALSE(CostLine(within.output).empty());
  EXPECT_EQ(CostLine(within.output), CostLine(clamped.output));
}

TEST_F(CliTest, WithinJoinSuspendResumeAcrossThreadCounts) {
  const RunResult reference = RunCli(WithinArgs(""));
  ASSERT_EQ(reference.exit_code, 0);
  const std::vector<std::string> expected = PairLines(reference.output);
  ASSERT_GT(expected.size(), 60u);

  const std::string snap = ::testing::TempDir() + "/cli_within.snap";
  std::remove(snap.c_str());
  const RunResult suspended =
      RunCli(WithinArgs("--suspend-after=40 --snapshot=" + snap));
  EXPECT_EQ(suspended.exit_code, 4);
  std::vector<std::string> combined = PairLines(suspended.output);
  ASSERT_EQ(combined.size(), 40u);

  const RunResult resumed =
      RunCli(WithinArgs("--resume --threads=4 --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
  for (const std::string& line : PairLines(resumed.output)) {
    combined.push_back(line);
  }
  EXPECT_EQ(combined, expected);
  EXPECT_EQ(CostLine(resumed.output), CostLine(reference.output));
}

TEST_F(CliTest, WithinJoinRejectsIncompatibleShapingFlags) {
  const RunResult r = RunCli(WithinArgs("--k=10"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--within is incompatible with --k"),
            std::string::npos);
  EXPECT_EQ(RunCli(WithinArgs("--estimate")).exit_code, 1);
  EXPECT_EQ(RunCli(WithinArgs("--reverse")).exit_code, 1);
  EXPECT_EQ(RunCli(WithinArgs("--max-distance=5")).exit_code, 1);
  EXPECT_EQ(RunCli(WithinArgs("--min-distance=5")).exit_code, 1);
  EXPECT_EQ(RunCli(WithinArgs("--policy=basic")).exit_code, 1);
  const RunResult negative = RunCli("join --a=" + a_csv_ + " --b=" + b_csv_ +
                                    " --within=-1");
  EXPECT_EQ(negative.exit_code, 1);
  EXPECT_NE(negative.output.find("--within must be >= 0"), std::string::npos);
}

TEST_F(CliTest, SemiJoinSuspendResumeMatrix) {
  const RunResult reference = RunCli(SemiArgs(""));
  ASSERT_EQ(reference.exit_code, 0);
  const std::vector<std::string> expected = PairLines(reference.output);
  ASSERT_EQ(expected.size(), 150u);

  const std::string snap = ::testing::TempDir() + "/cli_semi.snap";
  std::remove(snap.c_str());
  const RunResult suspended = RunCli(
      SemiArgs("--suspend-after=60 --checkpoint-every=25 --snapshot=" + snap));
  EXPECT_EQ(suspended.exit_code, 4);
  std::vector<std::string> combined = PairLines(suspended.output);
  ASSERT_EQ(combined.size(), 60u);

  const RunResult resumed = RunCli(SemiArgs("--resume --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
  for (const std::string& line : PairLines(resumed.output)) {
    combined.push_back(line);
  }
  EXPECT_EQ(combined, expected);
  EXPECT_EQ(CostLine(resumed.output), CostLine(reference.output));
}

// ---- serve command (DESIGN.md §14) ----

// Drops the serve line's leading "<session-id>," so the remainder is
// comparable to a join command's "id1,id2,distance" line.
std::string StripSessionId(const std::string& line) {
  const size_t comma = line.find(',');
  return comma == std::string::npos ? line : line.substr(comma + 1);
}

// One served join session emits exactly the solo join command's stream.
TEST_F(CliTest, ServeSingleSessionMatchesSoloJoin) {
  const RunResult reference = RunCli(JoinArgs(""));
  ASSERT_EQ(reference.exit_code, 0);
  const std::vector<std::string> expected = PairLines(reference.output);
  ASSERT_EQ(expected.size(), 300u);

  const RunResult served =
      RunCli("serve --a=" + a_csv_ + " --b=" + b_csv_ +
             " --sessions=1 --max-results=300 --print=1000");
  EXPECT_EQ(served.exit_code, 0);
  std::vector<std::string> pairs;
  for (const std::string& line : PairLines(served.output)) {
    EXPECT_EQ(line.substr(0, 2), "1,");
    pairs.push_back(StripSessionId(line));
  }
  EXPECT_EQ(pairs, expected);
  EXPECT_NE(served.output.find("state=closed"), std::string::npos);
}

// Memory pressure plus snapshot-store faults: sessions evict, rehydrate,
// and complete with zero failures (bounded retries absorb the faults).
TEST_F(CliTest, ServeUnderPressureAndFaultsCompletesAllSessions) {
  const RunResult served =
      RunCli("serve --a=" + a_csv_ + " --b=" + b_csv_ +
             " --sessions=3 --max-results=120 --budget-entries=128 "
             "--inject-faults=5 --print=0");
  EXPECT_EQ(served.exit_code, 0);
  EXPECT_NE(served.output.find(" 0 pinned, 0 failed"), std::string::npos);
  EXPECT_EQ(served.output.find(" 0 evictions,"), std::string::npos)
      << served.output;
}

// --suspend-after-rounds checkpoints every live session (exit 4); a later
// --resume recovers the table and each stream continues exactly where it
// stopped — the continuation matches the solo run's suffix.
TEST_F(CliTest, ServeSuspendResumeContinuesEveryStream) {
  const std::string state_dir = ::testing::TempDir() + "/cli_serve_state";
  ::mkdir(state_dir.c_str(), 0755);
  std::remove((state_dir + "/sessions.tbl").c_str());
  for (int i = 1; i <= 4; ++i) {
    std::remove((state_dir + "/session_" + std::to_string(i) + ".snap")
                    .c_str());
  }
  const std::string common = "serve --a=" + a_csv_ + " --b=" + b_csv_ +
                             " --state-dir=" + state_dir + " ";
  const RunResult suspended = RunCli(
      common + "--sessions=3 --batch=40 --suspend-after-rounds=1 --print=0");
  EXPECT_EQ(suspended.exit_code, 4);
  EXPECT_NE(suspended.output.find("rerun with --resume"), std::string::npos);

  const RunResult resumed =
      RunCli(common + "--resume --max-results=60 --print=1000");
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_NE(resumed.output.find("recovered 3 session(s)"), std::string::npos);
  std::vector<std::string> continuation;  // session 1 = the Euclidean join
  for (const std::string& line : PairLines(resumed.output)) {
    if (line.substr(0, 2) == "1,") continuation.push_back(StripSessionId(line));
  }
  ASSERT_EQ(continuation.size(), 60u);

  const RunResult reference = RunCli(JoinArgs(""));
  const std::vector<std::string> solo = PairLines(reference.output);
  ASSERT_GE(solo.size(), 100u);
  const std::vector<std::string> suffix(solo.begin() + 40, solo.begin() + 100);
  EXPECT_EQ(continuation, suffix);
}

// ---- sdjoin_scrub (DESIGN.md §16) ----

// Builds a snapshot store with three committed epochs (the checkpoint run
// from CorruptNewestSnapshotFallsBackToPreviousCheckpoint) at `snap`.
void BuildThreeEpochSnapshot(const std::string& snap,
                             const std::string& join_args) {
  std::remove(snap.c_str());
  const RunResult suspended = RunCli(
      join_args + " --checkpoint-every=50 --suspend-after=120 --snapshot=" +
      snap);
  ASSERT_EQ(suspended.exit_code, 4);
}

TEST_F(CliTest, ScrubUsageAndUnreadableFileExitCodes) {
  EXPECT_EQ(RunScrub("").exit_code, 2);               // missing --file
  EXPECT_EQ(RunScrub("--file=x --kind=bogus").exit_code, 2);
  EXPECT_EQ(RunScrub("--file=x --nonsense").exit_code, 2);
  // A missing file is unreadable (3) and must NOT be created by the scrub
  // (SnapshotStore::Open would create one).
  const std::string missing = ::testing::TempDir() + "/scrub_missing.snap";
  std::remove(missing.c_str());
  EXPECT_EQ(RunScrub("--file=" + missing).exit_code, 3);
  struct stat st;
  EXPECT_NE(::stat(missing.c_str(), &st), 0);
}

TEST_F(CliTest, ScrubCleanSnapshotStoreExitsZero) {
  const std::string snap = ::testing::TempDir() + "/scrub_clean.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  const RunResult r = RunScrub("--file=" + snap);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: clean"), std::string::npos);
  EXPECT_NE(r.output.find("committed"), std::string::npos);
  EXPECT_NE(r.output.find("stale"), std::string::npos);
}

TEST_F(CliTest, ScrubDetectsTornSlotRepairsAndConverges) {
  const std::string snap = ::testing::TempDir() + "/scrub_torn.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  // Epoch 3 (the newest) lives in slot 1; flipping a byte of its first
  // payload page (page 3) tears the slot. (Tearing the header page instead
  // would be healed by the store's own open path before scrub ever ran.)
  CorruptSnapshotPage(snap, /*page=*/3);

  const RunResult found = RunScrub("--file=" + snap);
  EXPECT_EQ(found.exit_code, 1) << found.output;
  EXPECT_NE(found.output.find("slot 1: torn"), std::string::npos);
  EXPECT_NE(found.output.find("slot 0: committed"), std::string::npos);
  EXPECT_NE(found.output.find("verdict: corrupt"), std::string::npos);

  // Repair quarantines the torn slot (still exit 1: corruption was found —
  // rerun to verify), then a rescrub comes back clean.
  const RunResult repaired = RunScrub("--file=" + snap + " --repair");
  EXPECT_EQ(repaired.exit_code, 1) << repaired.output;
  EXPECT_NE(repaired.output.find("repair: healed-slots=1"),
            std::string::npos);
  const RunResult rescrub = RunScrub("--file=" + snap);
  EXPECT_EQ(rescrub.exit_code, 0) << rescrub.output;
  EXPECT_NE(rescrub.output.find("verdict: clean"), std::string::npos);

  // The repaired store still resumes — from the surviving epoch 2.
  const RunResult resumed = RunCli(JoinArgs("--resume --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
}

TEST_F(CliTest, ScrubDetectsOrphanedTailPagesAndTruncatesThem) {
  const std::string snap = ::testing::TempDir() + "/scrub_orphan.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  // Append two whole garbage pages beyond what any slot references — the
  // abandoned remains of a larger commit.
  {
    std::FILE* f = std::fopen(snap.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string junk(2 * (4096 + storage::kPageTrailerSize), 'J');
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
    std::fclose(f);
  }
  const RunResult found = RunScrub("--file=" + snap);
  EXPECT_EQ(found.exit_code, 1) << found.output;
  EXPECT_NE(found.output.find("orphaned-tail-pages:"), std::string::npos);

  const RunResult repaired = RunScrub("--file=" + snap + " --repair");
  EXPECT_EQ(repaired.exit_code, 1) << repaired.output;
  EXPECT_NE(repaired.output.find("repair: truncated-bytes="),
            std::string::npos);
  const RunResult rescrub = RunScrub("--file=" + snap);
  EXPECT_EQ(rescrub.exit_code, 0) << rescrub.output;
  // Nothing of value was cut: the store still resumes from epoch 3.
  const RunResult resumed = RunCli(JoinArgs("--resume --snapshot=" + snap));
  EXPECT_EQ(resumed.exit_code, 0);
}

TEST_F(CliTest, ScrubPagesKindDetectsCorruptInteriorPages) {
  const std::string snap = ::testing::TempDir() + "/scrub_pages.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  const RunResult clean = RunScrub("--file=" + snap + " --kind=pages");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;

  CorruptSnapshotPage(snap, /*page=*/2);
  const RunResult found = RunScrub("--file=" + snap + " --kind=pages");
  EXPECT_EQ(found.exit_code, 1) << found.output;
  EXPECT_NE(found.output.find("corrupt-page: 2"), std::string::npos);
}

TEST_F(CliTest, ScrubPagesKindDetectsLeakedPagesAndTruncates) {
  const std::string snap = ::testing::TempDir() + "/scrub_leak.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  const RunResult sized = RunScrub("--file=" + snap + " --kind=pages");
  ASSERT_EQ(sized.exit_code, 0) << sized.output;
  // Parse "pages: scanned=<N> ..." to learn the honest page count.
  const size_t pos = sized.output.find("scanned=");
  ASSERT_NE(pos, std::string::npos);
  const uint64_t pages = std::strtoull(
      sized.output.c_str() + pos + std::strlen("scanned="), nullptr, 10);
  ASSERT_GT(pages, 2u);

  // Claim the file should be two pages smaller: the extra pages are leaked
  // (a spill file that grew past its accounted size would look like this).
  const std::string expect =
      " --kind=pages --expect-pages=" + std::to_string(pages - 2);
  const RunResult found = RunScrub("--file=" + snap + expect);
  EXPECT_EQ(found.exit_code, 1) << found.output;
  EXPECT_NE(found.output.find("leaked-pages: 2"), std::string::npos);

  const RunResult repaired = RunScrub("--file=" + snap + expect + " --repair");
  EXPECT_EQ(repaired.exit_code, 1) << repaired.output;
  const RunResult rescrub = RunScrub("--file=" + snap + expect);
  EXPECT_EQ(rescrub.exit_code, 0) << rescrub.output;
}

TEST_F(CliTest, ScrubSubcommandOfCliMatchesStandaloneBinary) {
  const std::string snap = ::testing::TempDir() + "/scrub_subcmd.snap";
  BuildThreeEpochSnapshot(snap, JoinArgs(""));
  const RunResult standalone = RunScrub("--file=" + snap);
  const RunResult subcommand = RunCli("scrub --file=" + snap);
  EXPECT_EQ(subcommand.exit_code, standalone.exit_code);
  EXPECT_EQ(subcommand.output, standalone.output);
  EXPECT_EQ(RunCli("scrub").exit_code, 2);
}

}  // namespace
}  // namespace sdj

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) g_cli_path = argv[1];
  if (argc > 2) g_scrub_path = argv[2];
  if (g_cli_path.empty() || g_scrub_path.empty()) {
    std::fprintf(stderr,
                 "usage: cli_test <path-to-sdjoin_cli> <path-to-sdjoin_scrub>\n");
    return 1;
  }
  return RUN_ALL_TESTS();
}
