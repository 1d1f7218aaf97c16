#include <gtest/gtest.h>

#include <filesystem>

#include "common/fsutil.h"
#include "core/cluster.h"
#include "fault/fault_injector.h"
#include "node/archive.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// End-to-end media failure: a whole device (data or log) is destroyed at
/// a crash point and restart recovery must either rebuild the lost state
/// from what client-based logging left elsewhere — the newest sealed
/// archive image plus redo collected from every client's log, or a peer's
/// cached copy — or durably fence what is gone as Corruption. Never serve
/// stale or fabricated data.
///
/// These are the unit-level drills; the seeded `--media-failure` torture
/// corpus (tests/torture_test.cc, ctest label `media`) explores the same
/// machinery under arbitrary schedules.
class MediaRecoveryTest : public ::testing::Test {
 protected:
  MediaRecoveryTest() : injector_(/*seed=*/1) {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.fault_injector = &injector_;
    opts.logging_policy.WithArchiveEvery(1);
    cluster_ = std::make_unique<Cluster>(opts);
    a_ = *cluster_->AddNode();
    b_ = *cluster_->AddNode();
  }

  /// Commits one update of `rid` from `from`.
  void CommitUpdate(Node* from, RecordId rid, const std::string& value) {
    TxnId txn = *from->Begin();
    ASSERT_OK(from->Update(txn, rid, value));
    ASSERT_OK(from->Commit(txn));
  }

  TempDir dir_;
  FaultInjector injector_;
  std::unique_ptr<Cluster> cluster_;
  Node* a_ = nullptr;
  Node* b_ = nullptr;
};

TEST_F(MediaRecoveryTest, DataDeviceLossRestoredFromPeerCache) {
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));
  ASSERT_OK(a_->Checkpoint());  // Log mark + first sealed archive pass.

  // B updates the page, so B's pool holds the newest copy — and B's log
  // holds the only log record of that update (client-based logging).
  CommitUpdate(b_, rid, "v1-from-b");

  // A's data device dies with A; B stays up with its cached copy.
  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyDataFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->RestartNode(a_->id()));

  // The cached copy carried every committed update, so the rebuilt device
  // serves the newest value with no poison anywhere.
  EXPECT_FALSE(a_->IsPoisoned(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, a_->Read(check, rid));
  EXPECT_EQ(v, "v1-from-b");
  ASSERT_OK(a_->Commit(check));
}

TEST_F(MediaRecoveryTest, DataDeviceLossRebuiltFromArchiveAndClientLogs) {
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));
  ASSERT_OK(a_->Checkpoint());  // Seals an archive image covering "v0".
  ASSERT_GT(a_->archive().seq(), 0u);

  // Updates AFTER the sealed image, committed from both nodes: their redo
  // lives only in the respective client's log, so the rebuild must collect
  // from all of them, merge by PSN, and replay on the archived base.
  CommitUpdate(a_, rid, "v1-from-a");
  CommitUpdate(b_, rid, "v2-from-b");

  // Both nodes crash (so no cached copy survives anywhere) and A's data
  // device is destroyed at its crash point.
  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyDataFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->CrashNode(b_->id()));
  ASSERT_OK(cluster_->RestartNodes({a_->id(), b_->id()}));

  EXPECT_FALSE(a_->IsPoisoned(pid));
  EXPECT_GE(a_->metrics().CounterValue("media.archive_restores"), 1u);
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, a_->Read(check, rid));
  EXPECT_EQ(v, "v2-from-b");
  ASSERT_OK(a_->Commit(check));
}

TEST_F(MediaRecoveryTest, LogDeviceLossPoisonsUncachedPages) {
  // Only A ever touches the page, so its whole history lives in A's log
  // and no peer caches a copy.
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));
  ASSERT_OK(a_->Checkpoint());  // StoreMark: makes the loss detectable.
  CommitUpdate(a_, rid, "v1");

  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyLogFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->RestartNode(a_->id()));

  // With the log gone past the mark, the top of the page's committed
  // history is unprovable and no peer can vouch for it: the page is fenced
  // durably and reads surface Corruption — never a stale "v0" or "v1".
  EXPECT_GE(a_->metrics().CounterValue("media.log_loss_detected"), 1u);
  EXPECT_TRUE(a_->IsPoisoned(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  Status read = a_->Read(check, rid).status();
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  ASSERT_OK(a_->Abort(check));
}

TEST_F(MediaRecoveryTest, LogDeviceLossRescuedByPeerCachedCopy) {
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));
  ASSERT_OK(a_->Checkpoint());

  // B updates the page and keeps the copy cached (lock caching retains it
  // after commit). B's cached page embodies every committed update, so A's
  // log is not the only witness.
  CommitUpdate(b_, rid, "v1-from-b");

  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyLogFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->RestartNode(a_->id()));

  // The fetched cached copy supersedes any poison verdict: the page is
  // fully recovered despite the destroyed log.
  EXPECT_FALSE(a_->IsPoisoned(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, a_->Read(check, rid));
  EXPECT_EQ(v, "v1-from-b");
  ASSERT_OK(a_->Commit(check));
}

TEST_F(MediaRecoveryTest, LogLossNoticePoisonsRemotePagesItUpdated) {
  // A updates B's page: the redo record lands in A's log only, and A
  // retains the X lock (lock caching) with the newest copy. When A's log
  // dies with A, that update is gone — and B, the owner, must be told its
  // page can no longer be proven current.
  ASSERT_OK_AND_ASSIGN(PageId pid, b_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, b_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, b_->Insert(seed, pid, "v0"));
  ASSERT_OK(b_->Commit(seed));
  ASSERT_OK(b_->Checkpoint());
  ASSERT_OK(a_->Checkpoint());  // Mark A's log so the loss is detectable.

  CommitUpdate(a_, rid, "v1-from-a");

  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyLogFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->RestartNode(a_->id()));

  // A's restart detected the log loss and sent B a LogLossNotice for the
  // pages A held X on; B fenced them durably.
  EXPECT_TRUE(b_->IsPoisoned(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, b_->Begin());
  Status read = b_->Read(check, rid).status();
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  ASSERT_OK(b_->Abort(check));
}

TEST_F(MediaRecoveryTest, ArchivePassesStayConsistentAcrossRestarts) {
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));

  // Interleave updates and checkpoint-driven archive passes; the archive
  // must stay self-consistent (every sealed entry restorable, image PSN >=
  // sealed PSN, sealed PSN <= live version) the whole way through, and the
  // sealed metadata must survive an ordinary crash/restart.
  for (int round = 0; round < 3; ++round) {
    CommitUpdate(a_, rid, "round-" + std::to_string(round));
    ASSERT_OK(a_->Checkpoint());
    ASSERT_OK(a_->CheckArchiveConsistency());
  }
  std::uint64_t sealed = a_->archive().seq();
  EXPECT_GE(sealed, 3u);

  ASSERT_OK(cluster_->CrashNode(a_->id()));
  ASSERT_OK(cluster_->RestartNode(a_->id()));
  EXPECT_GE(a_->archive().seq(), sealed);
  ASSERT_OK(a_->CheckArchiveConsistency());
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, a_->Read(check, rid));
  EXPECT_EQ(v, "round-2");
  ASSERT_OK(a_->Commit(check));
}

TEST_F(MediaRecoveryTest, RecoveryReentersWhenServingPeerCrashesMidFetch) {
  // B holds the only current copy of A's page (cached after its update)
  // and is a redo source for A's media recovery — then B dies between A's
  // exchange phase and the page fetch. The round must be voided (Section
  // 2.4: recovery is only sound while all participants' exchanged state
  // survives) and a later round must re-enter from scratch and converge.
  ASSERT_OK_AND_ASSIGN(PageId pid, a_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId seed, a_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, a_->Insert(seed, pid, "v0"));
  ASSERT_OK(a_->Commit(seed));
  ASSERT_OK(a_->Checkpoint());
  CommitUpdate(b_, rid, "v1-from-b");

  injector_.ArmDeviceFault(a_->id(), DeviceFault::kDestroyDataFile);
  ASSERT_OK(cluster_->CrashNode(a_->id()));
  bool fired = false;
  cluster_->set_recovery_phase_hook([&](NodeId id, RecoveryPhase phase) {
    if (id != a_->id() || phase != RecoveryPhase::kExchanged || fired) return;
    fired = true;
    ASSERT_OK(cluster_->CrashNode(b_->id()));
  });
  // The voided round is not an error; A is abandoned back to kDown.
  ASSERT_OK(cluster_->RestartNodes({a_->id()}));
  cluster_->set_recovery_phase_hook(nullptr);
  ASSERT_TRUE(fired);
  EXPECT_EQ(a_->state(), NodeState::kDown);

  // Converge: keep restarting whatever is down, exactly like the torture
  // harness's repair loop.
  for (int round = 0; round < 8; ++round) {
    std::vector<NodeId> down;
    for (NodeId id : cluster_->NodeIds()) {
      if (cluster_->node(id)->state() == NodeState::kDown) down.push_back(id);
    }
    if (down.empty()) break;
    ASSERT_OK(cluster_->RestartNodes(down));
  }
  ASSERT_EQ(a_->state(), NodeState::kUp);
  ASSERT_EQ(b_->state(), NodeState::kUp);

  // The re-entered recovery still found the newest committed version (B's
  // restart flushed its dirty copy home, or redo replayed B's log).
  EXPECT_FALSE(a_->IsPoisoned(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, a_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, a_->Read(check, rid));
  EXPECT_EQ(v, "v1-from-b");
  ASSERT_OK(a_->Commit(check));
}

/// PoisonLedger crash-boundary drills: every mutation is crash-atomic
/// before it returns, so "crash immediately after the write, before the
/// caller saw the verdict" — modeled by dropping the in-memory object and
/// reopening a fresh ledger on the same directory — must always observe
/// the completed mutation, never a torn or half-applied one.
TEST(PoisonLedgerTest, EveryWriteBoundarySurvivesReopen) {
  testing::TempDir dir;
  const PageId p1{/*owner=*/1, /*page_no=*/7};
  const PageId p2{/*owner=*/1, /*page_no=*/9};
  const std::string path = dir.path() + "/node.poison";

  {  // Boundary: first Add. Crash right after it returns.
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_TRUE(l.empty());
    ASSERT_OK(l.Add(p1, 5));
  }
  {  // Boundary: escalation (larger needed PSN wins, durably).
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_EQ(l.NeededPsn(p1), 5u);
    ASSERT_OK(l.Add(p1, 9));
  }
  {  // Boundary: weaker Add is a durable no-op, second entry lands.
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_EQ(l.NeededPsn(p1), 9u);
    ASSERT_OK(l.Add(p1, 3));
    ASSERT_OK(l.Add(p2, kPsnUnrecoverable));
  }
  {  // Boundary: Remove of one entry; the other survives untouched.
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_EQ(l.NeededPsn(p1), 9u);
    EXPECT_EQ(l.NeededPsn(p2), kPsnUnrecoverable);
    ASSERT_OK(l.Remove(p1));
  }
  {  // Boundary: Remove of an absent entry is a no-op; last Remove empties.
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_EQ(l.NeededPsn(p1), 0u);
    EXPECT_TRUE(l.Contains(p2));
    ASSERT_OK(l.Remove(p1));
    ASSERT_OK(l.Remove(p2));
  }
  {  // The absent-when-empty contract: emptying the ledger removes the
     // file, so a healthy reopen sees no media history at all.
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_TRUE(l.empty());
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST(PoisonLedgerTest, CorruptLedgerRefusesToOpen) {
  // An unreadable poison set must not silently un-poison pages: garbage
  // and truncation both surface as errors, never as an empty ledger.
  testing::TempDir dir;
  const std::string path = dir.path() + "/node.poison";
  {
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    ASSERT_OK(l.Add(PageId{1, 7}, 5));
  }
  std::string good;
  ASSERT_OK(ReadFileToString(path, &good));
  {  // Truncated mid-record.
    ASSERT_OK(AtomicWriteFile(path, good.substr(0, good.size() - 3)));
    PoisonLedger l;
    EXPECT_FALSE(l.Open(dir.path()).ok());
  }
  {  // Garbage from the first byte.
    ASSERT_OK(AtomicWriteFile(path, "not a poison ledger"));
    PoisonLedger l;
    EXPECT_FALSE(l.Open(dir.path()).ok());
  }
  {  // The original bytes still open fine (the copies above were the only
     // corruption — the format itself round-trips).
    ASSERT_OK(AtomicWriteFile(path, good));
    PoisonLedger l;
    ASSERT_OK(l.Open(dir.path()));
    EXPECT_EQ(l.NeededPsn(PageId{1, 7}), 5u);
  }
}

TEST(PoisonLedgerTest, AlternateFilenameIsAnIndependentLedger) {
  // Instant restore reuses the machinery under "node.restore"; the two
  // files must never bleed into each other.
  testing::TempDir dir;
  PoisonLedger poison;
  PoisonLedger restore;
  ASSERT_OK(poison.Open(dir.path()));
  ASSERT_OK(restore.Open(dir.path(), "node.restore"));
  ASSERT_OK(poison.Add(PageId{1, 7}, kPsnUnrecoverable));
  ASSERT_OK(restore.Add(PageId{1, 8}, 0));

  PoisonLedger poison2;
  PoisonLedger restore2;
  ASSERT_OK(poison2.Open(dir.path()));
  ASSERT_OK(restore2.Open(dir.path(), "node.restore"));
  EXPECT_TRUE(poison2.Contains(PageId{1, 7}));
  EXPECT_FALSE(poison2.Contains(PageId{1, 8}));
  EXPECT_TRUE(restore2.Contains(PageId{1, 8}));
  EXPECT_FALSE(restore2.Contains(PageId{1, 7}));
}

}  // namespace
}  // namespace clog
