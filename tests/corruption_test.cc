#include <gtest/gtest.h>

#include <cstdio>

#include "core/cluster.h"
#include "node/archive.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

void FlipByteAt(const std::string& path, long offset) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(c ^ 0x5A, f);
  std::fclose(f);
}

void AppendGarbage(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// Fault-injection on the durable artifacts: recovery must detect corrupted
/// pages and log records — repairing them from the log where the history
/// allows, surfacing Corruption where it does not, and never producing
/// wrong data silently. A torn log tail is the one corruption that is
/// *expected* after a crash and is silently truncated.
class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    cluster_ = std::make_unique<Cluster>(opts);
    node_ = *cluster_->AddNode();
  }

  std::string NodeFile(const char* name) {
    return dir_.path() + "/node0/" + name;
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* node_ = nullptr;
};

TEST_F(CorruptionTest, TornLogTailIsExpectedAndTruncated) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, node_->Insert(txn, pid, "whole"));
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(cluster_->CrashNode(node_->id()));

  // A torn frame at the tail: length promises more bytes than exist.
  std::string torn;
  torn.append("\x40\x00\x00\x00", 4);  // len = 64
  torn.append("\x00\x00\x00\x00", 4);  // bogus crc
  torn.append("short");
  AppendGarbage(NodeFile("node.log"), torn);

  ASSERT_OK(cluster_->RestartNode(node_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, node_->Read(check, rid));
  EXPECT_EQ(v, "whole");
  ASSERT_OK(node_->Commit(check));
}

TEST_F(CorruptionTest, BitFlipInDurableLogBodyDetected) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, pid, std::string(200, 'x')).status());
  ASSERT_OK(node_->Commit(txn));
  Lsn target = LogManager::first_lsn() + 20;  // Inside the first record.
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.log"), static_cast<long>(target));

  // The reopen tail-scan treats the corrupted frame as the end of the
  // valid log (everything after a bad CRC is untrusted), so recovery sees
  // a truncated history rather than corrupt data. Depending on what the
  // flip hit this either surfaces as a clean-but-shorter log or a decode
  // failure; it must never produce wrong data silently.
  Status st = cluster_->RestartNode(node_->id());
  if (st.ok()) {
    ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
    ASSERT_OK_AND_ASSIGN(auto records, node_->ScanPage(check, pid));
    EXPECT_TRUE(records.empty());  // The insert's record was disavowed.
    ASSERT_OK(node_->Commit(check));
  } else {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST_F(CorruptionTest, CorruptDiskPageRebuiltFromLogOnRestart) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, node_->Insert(txn, pid, "data"));
  ASSERT_OK(node_->Commit(txn));
  // Force to disk, then damage the on-disk page body (a torn write: the
  // crash interrupted the flush mid-page).
  ASSERT_OK(node_->HandleFlushRequest(node_->id(), pid));
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.db"),
             static_cast<long>(pid.page_no) * kPageSize + 2048);

  // Restart recovery reads the page as a candidate, fails its checksum,
  // and rebuilds it from the space-map PSN seed by replaying its full
  // logged history — correct data, never silent garbage.
  ASSERT_OK(cluster_->RestartNode(node_->id()));
  EXPECT_EQ(node_->metrics().CounterValue("recovery.pages_rebuilt_from_seed"),
            1u);
  ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, node_->Read(check, rid));
  EXPECT_EQ(v, "data");
  ASSERT_OK(node_->Commit(check));
}

TEST_F(CorruptionTest, CorruptSpaceMapDetected) {
  ASSERT_OK(node_->AllocatePage().status());
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.map"), 10);
  Status st = cluster_->RestartNode(node_->id());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(CorruptionTest, CorruptMasterPointerDetected) {
  ASSERT_OK(node_->Checkpoint());
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.log.master"), 6);
  Status st = cluster_->RestartNode(node_->id());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(CorruptionTest, CorruptLogMarkDetected) {
  // The log mark (node.log.mark, written with each checkpoint on the
  // metadata device) is what log-device-loss detection compares the log's
  // forced extent against. A corrupted mark must refuse to open — trusting
  // a garbage LSN could mask a destroyed log as healthy.
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, pid, "marked").status());
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->Checkpoint());
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.log.mark"), 6);
  Status st = cluster_->RestartNode(node_->id());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(CorruptionTest, MissingMasterMeansFullScanNotFailure) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, node_->Insert(txn, pid, "v"));
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->Checkpoint());
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  std::remove(NodeFile("node.log.master").c_str());

  ASSERT_OK(cluster_->RestartNode(node_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
  ASSERT_OK(node_->Read(check, rid).status());
  ASSERT_OK(node_->Commit(check));
}

/// Same drills against the media-recovery artifacts: the fuzzy page
/// archive pair (node.archive + node.archive.meta) and the poison ledger
/// (node.poison). The archive is a best-effort accelerator — losing it
/// costs replay depth, never correctness — so its corruption must degrade
/// to "no archive". The poison ledger is a correctness artifact — losing
/// it could silently un-fence unrecoverable pages — so its corruption must
/// refuse to open.
class ArchiveCorruptionTest : public ::testing::Test {
 protected:
  ArchiveCorruptionTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.logging_policy.WithArchiveEvery(1);
    cluster_ = std::make_unique<Cluster>(opts);
    node_ = *cluster_->AddNode();
  }

  std::string NodeFile(const char* name) {
    return dir_.path() + "/node0/" + name;
  }

  /// One committed record plus a checkpoint, so a sealed archive pass
  /// covering the page exists.
  RecordId SeedArchivedRecord() {
    PageId pid = *node_->AllocatePage();
    TxnId txn = *node_->Begin();
    RecordId rid = *node_->Insert(txn, pid, "archived");
    EXPECT_TRUE(node_->Commit(txn).ok());
    EXPECT_TRUE(node_->Checkpoint().ok());
    EXPECT_GT(node_->archive().seq(), 0u);
    return rid;
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* node_ = nullptr;
};

TEST_F(ArchiveCorruptionTest, CorruptArchiveMetaStartsArchiveEmpty) {
  RecordId rid = SeedArchivedRecord();
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.archive.meta"), 6);

  // By design a corrupt meta reads as "no sealed pass yet": the archive
  // opens empty (media recovery then falls back to the formatted-seed
  // rebuild). It is never an open error.
  {
    PageArchive probe;
    ASSERT_OK(probe.Open(dir_.path() + "/node0"));
    EXPECT_EQ(probe.seq(), 0u);
    EXPECT_TRUE(probe.entries().empty());
    ASSERT_OK(probe.Close());
  }

  // The node restarts cleanly and self-heals: recovery's closing
  // checkpoint runs a fresh archive pass, so a sealed pass exists again.
  ASSERT_OK(cluster_->RestartNode(node_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, node_->Read(check, rid));
  EXPECT_EQ(v, "archived");
  ASSERT_OK(node_->Commit(check));
  ASSERT_OK(node_->Checkpoint());
  EXPECT_GT(node_->archive().seq(), 0u);
  ASSERT_OK(node_->CheckArchiveConsistency());
}

TEST_F(ArchiveCorruptionTest, TornArchiveImageSlotDetected) {
  RecordId rid = SeedArchivedRecord();
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  // Damage the archived image body of the sealed page (slot = page_no).
  FlipByteAt(NodeFile("node.archive"),
             static_cast<long>(rid.page.page_no) * kPageSize + 2048);
  ASSERT_OK(cluster_->RestartNode(node_->id()));

  // The slot's own checksum catches the tear: the self-check flags the
  // sealed entry as unrestorable rather than ever treating garbage as a
  // usable base image.
  Status st = node_->CheckArchiveConsistency();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();

  // A fresh pass rewrites the slot (the page's PSN advanced past the
  // sealed entry or not, either way reseal repairs it) once the page is
  // archived again.
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Update(txn, rid, "rewritten"));
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->Checkpoint());
  ASSERT_OK(node_->CheckArchiveConsistency());
}

TEST_F(ArchiveCorruptionTest, CorruptPoisonLedgerRefusesToOpen) {
  RecordId rid = SeedArchivedRecord();
  ASSERT_OK(node_->PoisonOwnPage(rid.page, kPsnUnrecoverable));
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  FlipByteAt(NodeFile("node.poison"), 6);

  // An unreadable poison set must not silently un-poison pages: the node
  // refuses to open rather than risk serving a page fenced as
  // unrecoverable.
  Status st = cluster_->RestartNode(node_->id());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST_F(ArchiveCorruptionTest, PoisonVerdictSurvivesRestart) {
  RecordId rid = SeedArchivedRecord();
  ASSERT_OK(node_->PoisonOwnPage(rid.page, kPsnUnrecoverable));
  ASSERT_OK(cluster_->CrashNode(node_->id()));
  ASSERT_OK(cluster_->RestartNode(node_->id()));

  // The ledger write was crash-atomic before PoisonOwnPage returned, so
  // the fence is still up: reads surface Corruption, never stale data.
  EXPECT_TRUE(node_->IsPoisoned(rid.page));
  ASSERT_OK_AND_ASSIGN(TxnId check, node_->Begin());
  Status read = node_->Read(check, rid).status();
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  ASSERT_OK(node_->Abort(check));
}

}  // namespace
}  // namespace clog
