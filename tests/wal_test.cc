#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/crc32c.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace clog {
namespace {

using testing::TempDir;

LogRecord MakeUpdate(TxnId txn, PageId page, Psn psn_before, Lsn prev,
                     const std::string& redo, const std::string& undo) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = txn;
  rec.prev_lsn = prev;
  rec.page = page;
  rec.psn_before = psn_before;
  rec.op = RecordOp::kUpdate;
  rec.slot = 2;
  rec.redo_image = redo;
  rec.undo_image = undo;
  return rec;
}

TEST(LogRecordTest, UpdateEncodeDecodeRoundTrip) {
  LogRecord rec = MakeUpdate(MakeTxnId(1, 7), PageId{2, 5}, 42, 1000, "new",
                             "old");
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kUpdate);
  EXPECT_EQ(out.txn, rec.txn);
  EXPECT_EQ(out.prev_lsn, 1000u);
  EXPECT_EQ(out.page, (PageId{2, 5}));
  EXPECT_EQ(out.psn_before, 42u);
  EXPECT_EQ(out.op, RecordOp::kUpdate);
  EXPECT_EQ(out.slot, 2);
  EXPECT_EQ(out.redo_image, "new");
  EXPECT_EQ(out.undo_image, "old");
}

TEST(LogRecordTest, ClrCarriesUndoNext) {
  LogRecord rec;
  rec.type = LogRecordType::kClr;
  rec.txn = MakeTxnId(0, 1);
  rec.page = PageId{0, 1};
  rec.psn_before = 9;
  rec.op = RecordOp::kDelete;
  rec.slot = 4;
  rec.undo_next_lsn = 777;
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kClr);
  EXPECT_EQ(out.undo_next_lsn, 777u);
}

TEST(LogRecordTest, CheckpointCarriesDptAndAtt) {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpointEnd;
  rec.checkpoint_begin_lsn = 128;
  rec.dpt = {DptEntry{PageId{1, 2}, 3, 9, 500},
             DptEntry{PageId{0, 7}, 1, 1, 900}};
  rec.att = {AttEntry{MakeTxnId(1, 3), 450}};
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.checkpoint_begin_lsn, 128u);
  ASSERT_EQ(out.dpt.size(), 2u);
  EXPECT_EQ(out.dpt[0], rec.dpt[0]);
  EXPECT_EQ(out.dpt[1], rec.dpt[1]);
  ASSERT_EQ(out.att.size(), 1u);
  EXPECT_EQ(out.att[0], rec.att[0]);
}

TEST(LogRecordTest, SavepointName) {
  LogRecord rec;
  rec.type = LogRecordType::kSavepoint;
  rec.txn = 1;
  rec.savepoint_name = "sp1";
  std::string body;
  rec.EncodeTo(&body);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.savepoint_name, "sp1");
}

TEST(LogRecordTest, GarbageIsCorruption) {
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(Slice("\xFFgarbage", 8), &out)
                  .IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeFrom(Slice("", 0), &out).IsCorruption());
}

TEST(LogRecordTest, HeaderDecodeMatchesEncodeForPageUpdates) {
  // The redo scheduler routes frames by their header alone; the header
  // decode must agree with EncodeTo for every page-update type and leave
  // the images undecoded.
  for (LogRecordType type : {LogRecordType::kUpdate, LogRecordType::kClr,
                             LogRecordType::kLogicalUpdate}) {
    LogRecord rec = MakeUpdate(MakeTxnId(3, 11), PageId{1, 6}, 77, 4096,
                               "after", "before");
    rec.type = type;
    rec.op = RecordOp::kInsert;
    rec.slot = 513;
    if (type == LogRecordType::kClr) rec.undo_next_lsn = 2048;
    std::string body;
    rec.EncodeTo(&body);
    LogRecord hdr;
    ASSERT_OK(LogRecord::DecodeHeaderFrom(body, &hdr));
    EXPECT_EQ(hdr.type, type);
    EXPECT_EQ(hdr.txn, rec.txn);
    EXPECT_EQ(hdr.prev_lsn, 4096u);
    EXPECT_EQ(hdr.page, (PageId{1, 6}));
    EXPECT_EQ(hdr.psn_before, 77u);
    EXPECT_EQ(hdr.op, RecordOp::kInsert);
    EXPECT_EQ(hdr.slot, 513);
    EXPECT_TRUE(hdr.redo_image.empty());
    EXPECT_TRUE(hdr.undo_image.empty());
    EXPECT_EQ(hdr.undo_next_lsn, kNullLsn);
    // A body cut inside the header is Corruption, never a guess.
    EXPECT_TRUE(LogRecord::DecodeHeaderFrom(Slice(body.data(), 30), &hdr)
                    .IsCorruption());
  }
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = MakeTxnId(2, 5);
  commit.prev_lsn = 64;
  commit.commit_deps = {CommitDep{MakeTxnId(2, 4), 32}};
  std::string body;
  commit.EncodeTo(&body);
  LogRecord hdr;
  ASSERT_OK(LogRecord::DecodeHeaderFrom(body, &hdr));
  EXPECT_EQ(hdr.type, LogRecordType::kCommit);
  EXPECT_EQ(hdr.txn, commit.txn);
  EXPECT_EQ(hdr.prev_lsn, 64u);
  EXPECT_FALSE(hdr.IsPageUpdate());
  EXPECT_TRUE(hdr.commit_deps.empty());
}

class LogManagerTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(LogManagerTest, AppendAssignsIncreasingLsns) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "a", "b");
  Lsn l1, l2;
  ASSERT_OK(log.Append(rec, &l1));
  ASSERT_OK(log.Append(rec, &l2));
  EXPECT_EQ(l1, LogManager::first_lsn());
  EXPECT_GT(l2, l1);
  EXPECT_EQ(log.appended_records(), 2u);
}

TEST_F(LogManagerTest, ReadBackUnflushedAndFlushed) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 3, kNullLsn, "abc", "xyz");
  Lsn lsn;
  ASSERT_OK(log.Append(rec, &lsn));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));  // From the append buffer.
  EXPECT_EQ(got.redo_image, "abc");
  ASSERT_OK(log.Flush(lsn));
  ASSERT_OK(log.ReadRecord(lsn, &got));  // From disk.
  EXPECT_EQ(got.undo_image, "xyz");
  EXPECT_EQ(log.forces(), 1u);
}

TEST_F(LogManagerTest, FlushIsIdempotentAndOrdered) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "a", "");
  Lsn lsn;
  ASSERT_OK(log.Append(rec, &lsn));
  ASSERT_OK(log.Flush(lsn));
  std::uint64_t forces = log.forces();
  ASSERT_OK(log.Flush(lsn));  // Already durable: no new force.
  EXPECT_EQ(log.forces(), forces);
  EXPECT_GE(log.flushed_lsn(), lsn);
}

TEST_F(LogManagerTest, SurvivesReopen) {
  Lsn lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(5, PageId{1, 1}, 7, kNullLsn, "persist", "");
    ASSERT_OK(log.Append(rec, &lsn));
    ASSERT_OK(log.Flush(lsn));
    ASSERT_OK(log.Close());
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));
  EXPECT_EQ(got.redo_image, "persist");
  EXPECT_GT(log.end_lsn(), lsn);
}

TEST_F(LogManagerTest, AbandonLosesUnflushedTail) {
  Lsn durable, volatile_lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "keep", "");
    ASSERT_OK(log.Append(rec, &durable));
    ASSERT_OK(log.Flush(durable));
    rec.redo_image = "lose";
    ASSERT_OK(log.Append(rec, &volatile_lsn));
    log.Abandon();  // Crash: tail never forced.
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(durable, &got));
  EXPECT_EQ(got.redo_image, "keep");
  EXPECT_TRUE(log.ReadRecord(volatile_lsn, &got).IsNotFound());
  EXPECT_EQ(log.end_lsn(), volatile_lsn);  // Appends continue here.
}

TEST_F(LogManagerTest, TornTailTruncatedOnReopen) {
  Lsn lsn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "whole", "");
    ASSERT_OK(log.Append(rec, &lsn));
    ASSERT_OK(log.Flush(lsn));
    ASSERT_OK(log.Close());
  }
  // Simulate a torn write: append garbage that looks like a frame header.
  {
    FILE* f = std::fopen((dir_.path() + "/log").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::uint32_t len = 100, crc = 0;
    std::fwrite(&len, 4, 1, f);
    std::fwrite(&crc, 4, 1, f);
    std::fwrite("short", 5, 1, f);  // Body shorter than advertised.
    std::fclose(f);
  }
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(lsn, &got));
  EXPECT_EQ(got.redo_image, "whole");
}

TEST_F(LogManagerTest, BoundedCapacityAndReclaim) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  log.set_capacity(1024);
  LogRecord rec =
      MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, std::string(100, 'r'), "");
  Lsn lsn = kNullLsn;
  Status st;
  int appended = 0;
  while ((st = log.Append(rec, &lsn)).ok()) ++appended;
  EXPECT_TRUE(st.IsLogFull());
  EXPECT_GT(appended, 0);
  EXPECT_LE(log.LiveBytes(), 1024u);
  // Reclaiming space re-enables appends.
  log.SetReclaimableLsn(log.end_lsn());
  EXPECT_EQ(log.LiveBytes(), 0u);
  ASSERT_OK(log.Append(rec, &lsn));
}

TEST_F(LogManagerTest, ReopenAfterCrashWithTornFinalRecord) {
  // An injected crash tears the buffered tail mid-record: the durable
  // prefix must survive reopen, the torn record must vanish, and the log
  // must accept appends again.
  FaultConfig cfg;
  cfg.torn_tail_p = 1.0;
  cfg.torn_tail_corrupt_p = 1.0;
  FaultInjector fault(/*seed=*/7, cfg);
  Lsn durable, torn;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    log.set_fault_injector(&fault, /*node=*/0);
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "keep", "");
    ASSERT_OK(log.Append(rec, &durable));
    ASSERT_OK(log.Flush(durable));
    rec.redo_image = "torn-away";
    ASSERT_OK(log.Append(rec, &torn));
    log.Abandon();  // Crash: a garbled prefix of the tail hits the file.
  }
  EXPECT_GT(fault.counters().torn_tails, 0u);
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(durable, &got));
  EXPECT_EQ(got.redo_image, "keep");
  EXPECT_TRUE(log.ReadRecord(torn, &got).IsNotFound());
  Lsn after = kNullLsn;
  ASSERT_OK(log.Append(MakeUpdate(2, PageId{0, 0}, 1, kNullLsn, "next", ""),
                       &after));
  ASSERT_OK(log.Flush(after));
  ASSERT_OK(log.ReadRecord(after, &got));
  EXPECT_EQ(got.redo_image, "next");
}

TEST_F(LogManagerTest, AbandonWithEmptyBufferedTailIsCleanCrash) {
  // When everything was flushed before the crash, Abandon has no tail to
  // tear — even with tearing forced on — and reopen sees the full log.
  FaultConfig cfg;
  cfg.torn_tail_p = 1.0;
  FaultInjector fault(/*seed=*/9, cfg);
  Lsn l1, l2;
  {
    LogManager log;
    ASSERT_OK(log.Open(dir_.path() + "/log"));
    log.set_fault_injector(&fault, /*node=*/0);
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, "one", "");
    ASSERT_OK(log.Append(rec, &l1));
    rec.redo_image = "two";
    ASSERT_OK(log.Append(rec, &l2));
    ASSERT_OK(log.Flush(l2));
    log.Abandon();
  }
  EXPECT_EQ(fault.counters().torn_tails, 0u);
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(l1, &got));
  EXPECT_EQ(got.redo_image, "one");
  ASSERT_OK(log.ReadRecord(l2, &got));
  EXPECT_EQ(got.redo_image, "two");
  EXPECT_GT(log.end_lsn(), l2);
}

TEST_F(LogManagerTest, UnenforcedAppendBypassesFullLog) {
  // Rollback CLRs must always be appendable: a full log rejects normal
  // appends but admits enforce_capacity=false ones.
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  log.set_capacity(1024);
  LogRecord rec =
      MakeUpdate(1, PageId{0, 0}, 0, kNullLsn, std::string(100, 'x'), "");
  Lsn lsn = kNullLsn;
  Status st;
  while ((st = log.Append(rec, &lsn)).ok()) {
  }
  ASSERT_TRUE(st.IsLogFull());
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = 1;
  clr.page = PageId{0, 0};
  clr.op = RecordOp::kUpdate;
  clr.redo_image = std::string(100, 'u');
  Lsn clr_lsn = kNullLsn;
  ASSERT_OK(log.Append(clr, &clr_lsn, /*enforce_capacity=*/false));
  EXPECT_GT(clr_lsn, lsn);
  LogRecord got;
  ASSERT_OK(log.ReadRecord(clr_lsn, &got));
  EXPECT_EQ(got.type, LogRecordType::kClr);
  // Normal appends are still refused until space is reclaimed.
  EXPECT_TRUE(log.Append(rec, &lsn).IsLogFull());
  log.SetReclaimableLsn(log.end_lsn());
  ASSERT_OK(log.Append(rec, &lsn));
}

TEST_F(LogManagerTest, MasterPointerRoundTrip) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  ASSERT_OK_AND_ASSIGN(Lsn none, log.LoadMaster());
  EXPECT_EQ(none, kNullLsn);
  ASSERT_OK(log.StoreMaster(4242));
  ASSERT_OK_AND_ASSIGN(Lsn got, log.LoadMaster());
  EXPECT_EQ(got, 4242u);
  ASSERT_OK(log.StoreMaster(9000));  // Overwrite atomically.
  ASSERT_OK_AND_ASSIGN(Lsn got2, log.LoadMaster());
  EXPECT_EQ(got2, 9000u);
}

TEST_F(LogManagerTest, ForwardCursorScansAll) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  Lsn lsn;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec = MakeUpdate(1, PageId{0, 0}, i, kNullLsn,
                               "v" + std::to_string(i), "");
    ASSERT_OK(log.Append(rec, &lsn));
  }
  LogCursor cursor(&log, LogManager::first_lsn());
  LogRecord rec;
  Lsn at;
  int count = 0;
  Status st;
  while (cursor.Next(&rec, &at, &st)) {
    EXPECT_EQ(rec.psn_before, static_cast<Psn>(count));
    ++count;
  }
  ASSERT_OK(st);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(cursor.records_read(), 10u);
}

// Reference framing: encode the body on its own, then prepend the frame
// header exactly as the format doc specifies — u32 body_len | u32
// crc32c(body) | body, native u32 layout. The append path builds frames
// in place in the tail buffer; these tests pin it to this reference.
std::string ReferenceFrame(const LogRecord& rec) {
  std::string body;
  rec.EncodeTo(&body);
  std::uint32_t len = static_cast<std::uint32_t>(body.size());
  std::uint32_t crc = crc32c::Value(body.data(), body.size());
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&len), 4);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame += body;
  return frame;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<LogRecord> GoldenRecords() {
  std::vector<LogRecord> recs;
  recs.push_back(MakeUpdate(MakeTxnId(1, 7), PageId{2, 5}, 42, kNullLsn,
                            "redo-bytes", "undo-bytes"));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = MakeTxnId(1, 7);
  commit.prev_lsn = LogManager::first_lsn();
  recs.push_back(commit);
  LogRecord ckpt;
  ckpt.type = LogRecordType::kCheckpointEnd;
  ckpt.checkpoint_begin_lsn = 128;
  ckpt.dpt = {DptEntry{PageId{1, 2}, 3, 9, 500}};
  ckpt.att = {AttEntry{MakeTxnId(1, 3), 450}};
  recs.push_back(ckpt);
  recs.push_back(MakeUpdate(MakeTxnId(0, 2), PageId{0, 1}, 7, kNullLsn,
                            std::string(200, 'R'), std::string(90, 'U')));
  // Adaptive-logging record types ride through the same framing.
  LogRecord logical = MakeUpdate(MakeTxnId(2, 9), PageId{2, 3}, 11, kNullLsn,
                                 "compact-redo", /*undo=*/"");
  logical.type = LogRecordType::kLogicalUpdate;
  recs.push_back(logical);
  LogRecord backfill;
  backfill.type = LogRecordType::kUndoBackfill;
  backfill.txn = MakeTxnId(2, 9);
  backfill.prev_lsn = 700;
  backfill.backfill = {BackfillEntry{650, "old-bytes"}, BackfillEntry{680, ""}};
  recs.push_back(backfill);
  LogRecord dep_commit;
  dep_commit.type = LogRecordType::kCommit;
  dep_commit.txn = MakeTxnId(2, 9);
  dep_commit.prev_lsn = 720;
  dep_commit.commit_flags = kCommitFlagLogical;
  dep_commit.commit_deps = {CommitDep{MakeTxnId(0, 4), 333}};
  recs.push_back(dep_commit);
  return recs;
}

TEST_F(LogManagerTest, AppendIsByteIdenticalToReferenceFraming) {
  // On-disk format golden test. The zero-copy append path reserves the
  // 8-byte frame header, encodes the body directly into the tail buffer,
  // and backfills len/crc; the file it produces must be byte-identical to
  // the reference framing. Any drift here orphans every existing log.
  const std::string path = dir_.path() + "/log";
  std::string expect;
  Lsn expect_lsn = LogManager::first_lsn();
  {
    LogManager log;
    ASSERT_OK(log.Open(path));
    Lsn lsn = kNullLsn;
    for (const LogRecord& rec : GoldenRecords()) {
      ASSERT_OK(log.Append(rec, &lsn));
      EXPECT_EQ(lsn, expect_lsn);  // LSNs are byte offsets of the frame.
      std::string frame = ReferenceFrame(rec);
      expect += frame;
      expect_lsn += frame.size();
    }
    ASSERT_OK(log.Flush(lsn));
    EXPECT_EQ(log.end_lsn(), expect_lsn);
    ASSERT_OK(log.Close());
  }
  std::string file = ReadWholeFile(path);
  ASSERT_EQ(file.size(), static_cast<std::size_t>(expect_lsn));
  EXPECT_EQ(file.substr(LogManager::first_lsn()), expect);
}

TEST_F(LogManagerTest, ReferenceFramedFileReplaysOnOpen) {
  // The converse direction: a log written frame-by-frame by the reference
  // encoder (i.e. by the pre-zero-copy implementation) must recover and
  // read back unchanged, and must accept new appends after its tail.
  const std::string path = dir_.path() + "/log";
  {
    LogManager log;  // Produces just the 64-byte file header.
    ASSERT_OK(log.Open(path));
    ASSERT_OK(log.Close());
  }
  std::vector<LogRecord> recs = GoldenRecords();
  std::vector<Lsn> lsns;
  Lsn at = LogManager::first_lsn();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    for (const LogRecord& rec : recs) {
      std::string frame = ReferenceFrame(rec);
      lsns.push_back(at);
      at += frame.size();
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    }
  }
  LogManager log;
  ASSERT_OK(log.Open(path));
  EXPECT_EQ(log.end_lsn(), at);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    LogRecord got;
    ASSERT_OK(log.ReadRecord(lsns[i], &got));
    EXPECT_EQ(got.type, recs[i].type) << "record " << i;
    std::string want_body, got_body;
    recs[i].EncodeTo(&want_body);
    got.EncodeTo(&got_body);
    EXPECT_EQ(got_body, want_body) << "record " << i;
  }
  // The reopened log continues with zero-copy appends where the old
  // encoder left off.
  Lsn more = kNullLsn;
  ASSERT_OK(log.Append(
      MakeUpdate(MakeTxnId(2, 1), PageId{0, 0}, 1, kNullLsn, "new", ""),
      &more));
  EXPECT_EQ(more, at);
  ASSERT_OK(log.Flush(more));
  LogRecord got;
  ASSERT_OK(log.ReadRecord(more, &got));
  EXPECT_EQ(got.redo_image, "new");
}

// --- Adaptive-logging record types: pinned byte layouts -----------------
// These spell the expected bodies out byte by byte. Any encoder change
// that shifts them orphans existing logs, exactly like the framing tests
// above; change the format doc and add a version gate instead.

void PinU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

TEST(LogRecordTest, LogicalUpdateBodyMatchesPinnedLayout) {
  LogRecord rec = MakeUpdate(MakeTxnId(3, 5), PageId{3, 8}, 21, 900,
                             "after", "ignored-before");
  rec.type = LogRecordType::kLogicalUpdate;
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kLogicalUpdate));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 900);                  // prev_lsn
  PinU64(&want, PageId{3, 8}.Pack());
  PinU64(&want, 21);                   // psn_before
  want.push_back(static_cast<char>(RecordOp::kUpdate));
  want.push_back(2);                   // slot (u16 LE), MakeUpdate uses 2.
  want.push_back(0);
  want.push_back(5);                   // varint len("after")
  want += "after";
  // No undo image: that is the entire point of the logical format.
  EXPECT_EQ(body, want);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.type, LogRecordType::kLogicalUpdate);
  EXPECT_EQ(out.redo_image, "after");
  EXPECT_TRUE(out.undo_image.empty());
  EXPECT_EQ(out.psn_before, 21u);
  EXPECT_EQ(out.slot, 2u);
}

TEST(LogRecordTest, UndoBackfillBodyMatchesPinnedLayout) {
  LogRecord rec;
  rec.type = LogRecordType::kUndoBackfill;
  rec.txn = MakeTxnId(3, 5);
  rec.prev_lsn = 950;
  rec.backfill = {BackfillEntry{901, "old"}, BackfillEntry{925, ""}};
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kUndoBackfill));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 950);
  want.push_back(2);    // varint count
  PinU64(&want, 901);   // covered_lsn
  want.push_back(3);    // varint len("old")
  want += "old";
  PinU64(&want, 925);
  want.push_back(0);    // empty before-image (covered an insert)
  EXPECT_EQ(body, want);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.backfill, rec.backfill);
}

TEST(LogRecordTest, CommitWithDepsBodyMatchesPinnedLayout) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = MakeTxnId(3, 5);
  rec.prev_lsn = 980;
  rec.commit_flags = kCommitFlagLogical;
  rec.commit_deps = {CommitDep{MakeTxnId(1, 2), 400},
                     CommitDep{MakeTxnId(0, 9), 150}};
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kCommit));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 980);
  want.push_back(kCommitFlagLogical);
  want.push_back(2);    // varint dep count
  PinU64(&want, MakeTxnId(1, 2));
  PinU64(&want, 400);
  PinU64(&want, MakeTxnId(0, 9));
  PinU64(&want, 150);
  EXPECT_EQ(body, want);

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.commit_flags, kCommitFlagLogical);
  EXPECT_EQ(out.commit_deps, rec.commit_deps);
}

TEST(LogRecordTest, PlainCommitKeepsLegacyBytes) {
  // The trailing block is optional: a commit with no flags and no deps
  // must encode exactly as it did before adaptive logging existed, so
  // physical-strategy logs stay byte-identical across the release.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = MakeTxnId(3, 5);
  rec.prev_lsn = 980;
  std::string body;
  rec.EncodeTo(&body);

  std::string want;
  want.push_back(static_cast<char>(LogRecordType::kCommit));
  PinU64(&want, MakeTxnId(3, 5));
  PinU64(&want, 980);
  EXPECT_EQ(body, want);  // 17 bytes, nothing trailing.

  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(body, &out));
  EXPECT_EQ(out.commit_flags, 0);
  EXPECT_TRUE(out.commit_deps.empty());
}

TEST_F(LogManagerTest, BackwardCursorFollowsTxnChainAndClrSkips) {
  LogManager log;
  ASSERT_OK(log.Open(dir_.path() + "/log"));
  // Chain: U1 <- U2 <- CLR(undo of U2, undo_next -> U1).
  Lsn l1, l2, l3;
  LogRecord u1 = MakeUpdate(9, PageId{0, 0}, 0, kNullLsn, "1", "");
  ASSERT_OK(log.Append(u1, &l1));
  LogRecord u2 = MakeUpdate(9, PageId{0, 0}, 1, l1, "2", "");
  ASSERT_OK(log.Append(u2, &l2));
  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.txn = 9;
  clr.prev_lsn = l2;
  clr.page = PageId{0, 0};
  clr.psn_before = 2;
  clr.op = RecordOp::kUpdate;
  clr.undo_next_lsn = l1;  // Skip U2: already compensated.
  ASSERT_OK(log.Append(clr, &l3));

  TxnBackwardCursor cursor(&log, l3);
  LogRecord rec;
  Lsn at;
  ASSERT_TRUE(cursor.Prev(&rec, &at));
  EXPECT_EQ(rec.type, LogRecordType::kClr);
  ASSERT_TRUE(cursor.Prev(&rec, &at));
  EXPECT_EQ(at, l1);  // U2 skipped via undo_next_lsn.
  EXPECT_EQ(rec.redo_image, "1");
  EXPECT_FALSE(cursor.Prev(&rec, &at));
}

}  // namespace
}  // namespace clog
