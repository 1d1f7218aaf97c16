#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include "core/cluster.h"
#include "fault/fault_injector.h"
#include "recovery/local_recovery.h"
#include "recovery/node_psn_list.h"
#include "storage/slotted_page.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

TEST(NodePsnListTest, MergeSortsAndCoalesces) {
  std::map<NodeId, std::vector<PsnListEntry>> lists;
  lists[1] = {{5, 100}, {12, 300}};
  lists[2] = {{9, 200}};
  auto runs = MergePsnLists(lists);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (RecoveryRun{1, 5}));
  EXPECT_EQ(runs[1], (RecoveryRun{2, 9}));
  EXPECT_EQ(runs[2], (RecoveryRun{1, 12}));
}

TEST(NodePsnListTest, AdjacentSameNodeMerged) {
  std::map<NodeId, std::vector<PsnListEntry>> lists;
  lists[1] = {{5, 0}, {7, 0}};  // Two consecutive runs of node 1.
  lists[2] = {{20, 0}};
  auto runs = MergePsnLists(lists);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (RecoveryRun{1, 5}));  // Minimum survives.
  EXPECT_EQ(runs[1], (RecoveryRun{2, 20}));
}

TEST(NodePsnListTest, EmptyInput) {
  EXPECT_TRUE(MergePsnLists({}).empty());
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.node_defaults.buffer_frames = 32;
    cluster_ = std::make_unique<Cluster>(opts);
    owner_ = *cluster_->AddNode();
    client_ = *cluster_->AddNode();
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_F(RecoveryTest, SingleNodeCommittedDataSurvivesCrash) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(txn, pid, "durable"));
  ASSERT_OK(owner_->Commit(txn));

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  EXPECT_EQ(owner_->state(), NodeState::kUp);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "durable");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, SingleNodeLoserRolledBack) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId committed, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(committed, pid, "keep"));
  ASSERT_OK(owner_->Commit(committed));

  // Loser: updates after the commit, crash before its own commit. Flush
  // the log so the loser's records are durable (worst case for undo).
  ASSERT_OK_AND_ASSIGN(TxnId loser, owner_->Begin());
  ASSERT_OK(owner_->Update(loser, rid, "dirty"));
  ASSERT_OK(owner_->Insert(loser, pid, "phantom").status());
  ASSERT_OK(owner_->log().Flush(owner_->log().end_lsn()));

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  EXPECT_EQ(cluster_->recovery_stats().at(owner_->id()).losers_undone, 1u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "keep");
  ASSERT_OK_AND_ASSIGN(auto records, owner_->ScanPage(check, pid));
  EXPECT_EQ(records.size(), 1u);  // The phantom insert is gone.
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, UnflushedCommitIsLost) {
  // A commit whose log force never happened cannot survive; but here
  // Commit() forces, so instead test an uncommitted transaction whose
  // records were never flushed: after the crash there is nothing to undo.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, owner_->Begin());
  ASSERT_OK(owner_->Insert(txn, pid, "volatile").status());
  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  EXPECT_EQ(cluster_->recovery_stats().at(owner_->id()).losers_undone, 0u);
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(auto records, owner_->ScanPage(check, pid));
  EXPECT_TRUE(records.empty());
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, OwnerCrashRecoversRemoteUpdatesFromClientLog) {
  // The core of Section 2.3: the client updated the owner's page, logged
  // locally, committed locally, and shipped the dirty page home on
  // replacement... but here the page still sits in the CLIENT's cache at
  // crash time, so the owner fetches the cached copy.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "client-data"));
  ASSERT_OK(client_->Commit(txn));

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  const auto& stats = cluster_->recovery_stats().at(owner_->id());
  EXPECT_EQ(stats.own_pages_fetched, 1u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "client-data");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, OwnerCrashRedoFromClientLogWhenPageNotCached) {
  // Same as above but the client's copy was called back to the owner (and
  // never flushed): after the owner crash the only trace of the committed
  // update is the CLIENT's local log. The owner must coordinate redo
  // against the client's log — without any log merging.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "only-in-log"));
  ASSERT_OK(client_->Commit(txn));

  // Owner reads the page: demotion callback pulls the dirty copy into the
  // owner's cache and the client's copy is marked clean.
  ASSERT_OK_AND_ASSIGN(TxnId tr, owner_->Begin());
  ASSERT_OK(owner_->Read(tr, rid).status());
  ASSERT_OK(owner_->Commit(tr));
  // Drop the (clean) client copy so no cache in the cluster has the page.
  Node* client = client_;
  const_cast<BufferPool&>(client->pool()).Drop(pid);

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  const auto& stats = cluster_->recovery_stats().at(owner_->id());
  EXPECT_EQ(stats.own_pages_recovered, 1u);
  EXPECT_GT(stats.redo_applied, 0u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "only-in-log");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, InterleavedUpdatesRecoverInPsnOrder) {
  // Owner and client alternate updates to one page; the owner crashes with
  // everything volatile. Recovery must interleave redo from BOTH logs in
  // PSN order (Section 2.3.4's NodePSNList coordination).
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "r0"));
  ASSERT_OK(owner_->Commit(t0));

  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(TxnId tc, client_->Begin());
    ASSERT_OK(client_->Update(tc, rid, "c" + std::to_string(round)));
    ASSERT_OK(client_->Commit(tc));
    ASSERT_OK_AND_ASSIGN(TxnId to, owner_->Begin());
    ASSERT_OK(owner_->Update(to, rid, "o" + std::to_string(round)));
    ASSERT_OK(owner_->Commit(to));
  }
  // Kick the (dirty, owner-cached) page out of the client too, so the redo
  // path is exercised rather than the cached-copy fetch.
  const_cast<BufferPool&>(client_->pool()).Drop(pid);

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  const auto& stats = cluster_->recovery_stats().at(owner_->id());
  EXPECT_EQ(stats.own_pages_recovered, 1u);
  EXPECT_GE(stats.redo_rounds, 2u);  // Both logs contributed.

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "o2");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, ClientCrashRecoversItsUpdatesOnRemotePage) {
  // Section 2.3.1 (b): the crashed node held an exclusive lock on a
  // remotely owned page; the lost tail of updates is replayed from its own
  // local log onto the owner's base version.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "mine"));
  ASSERT_OK(client_->Commit(txn));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kExclusive);

  ASSERT_OK(cluster_->CrashNode(client_->id()));
  // While the client is down its X lock fences the page at the owner.
  ASSERT_OK_AND_ASSIGN(TxnId blocked, owner_->Begin());
  EXPECT_TRUE(owner_->Read(blocked, rid).status().IsBusy());
  ASSERT_OK(owner_->Abort(blocked));

  ASSERT_OK(cluster_->RestartNode(client_->id()));
  const auto& stats = cluster_->recovery_stats().at(client_->id());
  EXPECT_EQ(stats.remote_pages_recovered, 1u);

  // The client still holds X and sees its committed data.
  ASSERT_OK_AND_ASSIGN(TxnId check, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(check, rid));
  EXPECT_EQ(v, "mine");
  ASSERT_OK(client_->Commit(check));
}

TEST_F(RecoveryTest, RestartScansOwnLogOnce) {
  // Section 2.3(d): a restart reads its own log once for PSN lists. One
  // pass serves the own pages needing redo — partial after a plain crash,
  // full-history after the data device is lost — and the remote pages the
  // node held X on (Section 2.3.1 (b)).
  TempDir dir;
  FaultInjector injector(/*seed=*/1);
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.fault_injector = &injector;
  opts.logging_policy.WithArchiveEvery(1);
  Cluster cluster(opts);
  ASSERT_OK_AND_ASSIGN(Node * owner, cluster.AddNode());
  ASSERT_OK_AND_ASSIGN(Node * client, cluster.AddNode());
  std::vector<PageId> remote;
  std::vector<RecordId> rids;
  ASSERT_OK_AND_ASSIGN(TxnId seed, client->Begin());
  for (int i = 0; i < 5; ++i) {
    Node* home = i < 3 ? owner : client;
    ASSERT_OK_AND_ASSIGN(PageId pid, home->AllocatePage());
    if (home == owner) remote.push_back(pid);
    ASSERT_OK_AND_ASSIGN(RecordId rid, client->Insert(seed, pid, "v0"));
    rids.push_back(rid);
  }
  ASSERT_OK(client->Commit(seed));
  ASSERT_OK(client->Checkpoint());  // Log mark + a sealed archive pass.

  auto crash_and_restart = [&](const std::string& value, bool lose_data) {
    ASSERT_OK_AND_ASSIGN(TxnId txn, client->Begin());
    for (RecordId rid : rids) ASSERT_OK(client->Update(txn, rid, value));
    ASSERT_OK(client->Commit(txn));
    for (PageId pid : remote) {
      ASSERT_EQ(client->lock_cache().NodeMode(pid), LockMode::kExclusive);
    }
    auto rebuilt = [&] {
      return client->metrics().CounterValue("media.archive_restores") +
             client->metrics().CounterValue("recovery.pages_rebuilt_from_seed");
    };
    const std::uint64_t scans =
        client->metrics().CounterValue("recovery.psn_list_scans");
    const std::uint64_t rebuilt_before = rebuilt();
    if (lose_data) {
      injector.ArmDeviceFault(client->id(), DeviceFault::kDestroyDataFile);
    }
    ASSERT_OK(cluster.CrashNode(client->id()));
    ASSERT_OK(cluster.RestartNode(client->id()));

    const auto& stats = cluster.recovery_stats().at(client->id());
    EXPECT_EQ(stats.remote_pages_recovered, remote.size());
    EXPECT_EQ(stats.own_pages_recovered, rids.size() - remote.size());
    EXPECT_EQ(client->metrics().CounterValue("recovery.psn_list_scans"),
              scans + 1);
    // A lost device rebuilds every own page from its full history.
    EXPECT_EQ(rebuilt() - rebuilt_before,
              lose_data ? rids.size() - remote.size() : 0u);
    ASSERT_OK_AND_ASSIGN(TxnId check, client->Begin());
    for (RecordId rid : rids) {
      ASSERT_OK_AND_ASSIGN(std::string v, client->Read(check, rid));
      EXPECT_EQ(v, value);
    }
    ASSERT_OK(client->Commit(check));
  };
  ASSERT_NO_FATAL_FAILURE(crash_and_restart("v1", /*lose_data=*/false));
  ASSERT_NO_FATAL_FAILURE(crash_and_restart("v2", /*lose_data=*/true));
}

TEST_F(RecoveryTest, ClientCrashLoserUndoneOnRemotePage) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId good, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(good, pid, "committed"));
  ASSERT_OK(client_->Commit(good));

  ASSERT_OK_AND_ASSIGN(TxnId loser, client_->Begin());
  ASSERT_OK(client_->Update(loser, rid, "uncommitted"));
  ASSERT_OK(client_->log().Flush(client_->log().end_lsn()));

  ASSERT_OK(cluster_->CrashNode(client_->id()));
  ASSERT_OK(cluster_->RestartNode(client_->id()));
  EXPECT_EQ(cluster_->recovery_stats().at(client_->id()).losers_undone, 1u);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "committed");
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, RecoveryAfterCheckpointUsesShorterScan) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(TxnId txn, owner_->Begin());
    ASSERT_OK(owner_->Insert(txn, pid, "r" + std::to_string(i)).status());
    ASSERT_OK(owner_->Commit(txn));
  }
  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  std::uint64_t without_ckpt =
      cluster_->recovery_stats().at(owner_->id()).analysis_records;

  // Another burst, then checkpoint right before the crash: the analysis
  // scan restarts from the checkpoint and is much shorter.
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(TxnId txn, owner_->Begin());
    ASSERT_OK(owner_->Insert(txn, pid, "s" + std::to_string(i)).status());
    ASSERT_OK(owner_->Commit(txn));
  }
  ASSERT_OK(owner_->Checkpoint());
  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  std::uint64_t with_ckpt =
      cluster_->recovery_stats().at(owner_->id()).analysis_records;
  EXPECT_LT(with_ckpt, without_ckpt);

  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(auto records, owner_->ScanPage(check, pid));
  EXPECT_EQ(records.size(), 40u);
  ASSERT_OK(owner_->Commit(check));
}

TEST_F(RecoveryTest, OperationalNodeKeepsWorkingDuringPeerOutage) {
  ASSERT_OK_AND_ASSIGN(PageId owner_page, owner_->AllocatePage());
  // Give the client its own page via a third node? Not needed: client can
  // keep using pages it has cached with locks.
  ASSERT_OK_AND_ASSIGN(TxnId warm, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(warm, owner_page, "w"));
  ASSERT_OK(client_->Commit(warm));

  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  // Cached page + cached X lock: the client continues unaffected.
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK(client_->Update(txn, rid, "still-working"));
  ASSERT_OK(client_->Commit(txn));

  ASSERT_OK(cluster_->RestartNode(owner_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId check, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(check, rid));
  EXPECT_EQ(v, "still-working");
  ASSERT_OK(client_->Commit(check));
}

TEST_F(RecoveryTest, AnalysisFindsLosersAndDpt) {
  // Direct unit coverage of AnalyzeLog over a hand-built log.
  TempDir scratch;
  LogManager log;
  ASSERT_OK(log.Open(scratch.path() + "/log"));
  Lsn lsn;
  LogRecord begin1;
  begin1.type = LogRecordType::kBegin;
  begin1.txn = MakeTxnId(0, 1);
  ASSERT_OK(log.Append(begin1, &lsn));
  LogRecord up1;
  up1.type = LogRecordType::kUpdate;
  up1.txn = MakeTxnId(0, 1);
  up1.prev_lsn = lsn;
  up1.page = PageId{0, 4};
  up1.psn_before = 7;
  up1.op = RecordOp::kInsert;
  ASSERT_OK(log.Append(up1, &lsn));
  LogRecord begin2;
  begin2.type = LogRecordType::kBegin;
  begin2.txn = MakeTxnId(0, 2);
  ASSERT_OK(log.Append(begin2, &lsn));
  LogRecord commit2;
  commit2.type = LogRecordType::kCommit;
  commit2.txn = MakeTxnId(0, 2);
  ASSERT_OK(log.Append(commit2, &lsn));
  ASSERT_OK(log.Flush(lsn));

  AnalysisResult result;
  ASSERT_OK(AnalyzeLog(&log, &result));
  EXPECT_EQ(result.losers.size(), 1u);
  EXPECT_TRUE(result.losers.contains(MakeTxnId(0, 1)));
  PageId target{0, 4};
  ASSERT_TRUE(result.dpt.contains(target));
  EXPECT_EQ(result.dpt[target].psn, 7u);
  EXPECT_EQ(result.dpt[target].curr_psn, 8u);
  EXPECT_EQ(result.records_scanned, 4u);
}

/// A formatted empty data page at `psn`, as a base image for redo.
Page BaseImage(PageId pid, Psn psn) {
  Page page;
  page.Format(pid, PageType::kData, psn);
  SlottedPage(&page).InitBody();
  return page;
}

/// Appends a page-update insert of `payload` at `slot` and returns its LSN.
Lsn AppendInsert(LogManager* log, LogRecordType type, TxnId txn, PageId pid,
                 Psn psn_before, SlotId slot, const std::string& payload) {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn;
  rec.page = pid;
  rec.psn_before = psn_before;
  rec.op = RecordOp::kInsert;
  rec.slot = slot;
  rec.redo_image = payload;
  Lsn lsn = kNullLsn;
  EXPECT_OK(log->Append(rec, &lsn));
  return lsn;
}

std::string SlotText(Page* page, SlotId slot) {
  Result<Slice> r = SlottedPage(page).Read(slot);
  return r.ok() ? r->ToString() : r.status().ToString();
}

TEST(SelfOnlyRedoTest, AppliesMatchingRecordsInOnePass) {
  // Direct unit coverage of RedoSelfOnlyPages over a hand-built log.
  TempDir scratch;
  LogManager log;
  ASSERT_OK(log.Open(scratch.path() + "/log"));
  const TxnId winner = MakeTxnId(0, 1);
  const TxnId loser = MakeTxnId(0, 2);
  const PageId a{0, 1}, b{0, 2}, c{0, 3}, d{0, 4};
  Lsn lsn = kNullLsn;
  LogRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.txn = winner;
  ASSERT_OK(log.Append(begin, &lsn));
  // The loser's logical record matches b's PSN but the skip rule drops it.
  const Lsn b_start = AppendInsert(&log, LogRecordType::kLogicalUpdate,
                                   loser, b, 3, 0, "skipped");
  AppendInsert(&log, LogRecordType::kUpdate, winner, b, 3, 0, "b0");
  // Inside the pass (after b's start_lsn) and applicable by PSN, but
  // before a's start_lsn.
  AppendInsert(&log, LogRecordType::kUpdate, winner, a, 5, 0, "early");
  const Lsn a_start =
      AppendInsert(&log, LogRecordType::kUpdate, winner, a, 5, 0, "a0");
  // PSN mismatch: neither at nor reachable from a's PSN.
  AppendInsert(&log, LogRecordType::kUpdate, winner, a, 9, 1, "stray");
  AppendInsert(&log, LogRecordType::kUpdate, winner, a, 6, 1, "a1");
  // c has no task; d has a task with nothing to scan.
  AppendInsert(&log, LogRecordType::kUpdate, winner, c, 0, 0, "c0");
  AppendInsert(&log, LogRecordType::kUpdate, winner, d, 2, 0, "d0");
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = winner;
  ASSERT_OK(log.Append(commit, &lsn));
  ASSERT_OK(log.Flush(lsn));

  Page page_a = BaseImage(a, 5), page_b = BaseImage(b, 3);
  Page page_d = BaseImage(d, 2);
  std::vector<RedoPageTask> tasks{{a, &page_a, a_start},
                                  {b, &page_b, b_start},
                                  {d, &page_d, kNullLsn}};
  ASSERT_OK(RedoSelfOnlyPages(&log, {loser}, &tasks));

  EXPECT_EQ(tasks[0].applied, 2u);
  EXPECT_EQ(page_a.psn(), 7u);
  EXPECT_EQ(SlotText(&page_a, 0), "a0");
  EXPECT_EQ(SlotText(&page_a, 1), "a1");
  EXPECT_EQ(tasks[1].applied, 1u);
  EXPECT_EQ(page_b.psn(), 4u);
  EXPECT_EQ(SlotText(&page_b, 0), "b0");
  EXPECT_EQ(tasks[2].applied, 0u);
  EXPECT_EQ(page_d.psn(), 2u);
}

TEST(SelfOnlyRedoTest, StopsAtCorruptRoutedFrame) {
  TempDir scratch;
  const std::string path = scratch.path() + "/log";
  LogManager log;
  ASSERT_OK(log.Open(path));
  const TxnId txn = MakeTxnId(0, 1);
  const PageId a{0, 1}, b{0, 2};
  const Lsn first =
      AppendInsert(&log, LogRecordType::kUpdate, txn, a, 5, 0, "a0");
  const std::string payload = "b0-payload";
  const Lsn bad =
      AppendInsert(&log, LogRecordType::kUpdate, txn, b, 3, 0, payload);
  const Lsn last =
      AppendInsert(&log, LogRecordType::kUpdate, txn, a, 6, 1, "a1");
  ASSERT_OK(log.Flush(last));

  // Flip one byte of the middle frame's redo image in the durable file:
  // the header still routes the frame and the body still decodes, so only
  // the checksum can catch it.
  std::string body;
  std::uint32_t crc = 0;
  Lsn next = kNullLsn;
  ASSERT_OK(log.ReadRawFrame(bad, &body, &crc, &next));
  ASSERT_EQ(next, last);
  const std::size_t pos = body.find(payload);
  ASSERT_NE(pos, std::string::npos);
  const off_t off = static_cast<off_t>(next - body.size() + pos);
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, off), 1);
  ASSERT_EQ(byte, payload[0]);
  byte ^= 0x01;
  ASSERT_EQ(::pwrite(fd, &byte, 1, off), 1);
  ::close(fd);
  std::string flipped;
  ASSERT_OK(log.ReadRawFrame(bad, &flipped, &crc));
  ASSERT_EQ(flipped[pos], byte);
  LogRecord decoded;
  ASSERT_OK(LogRecord::DecodeFrom(flipped, &decoded));

  Page page_a = BaseImage(a, 5), page_b = BaseImage(b, 3);
  std::vector<RedoPageTask> tasks{{a, &page_a, first},
                                  {b, &page_b, first}};
  Status st = RedoSelfOnlyPages(&log, {}, &tasks);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // The frame before the corruption was applied; nothing at or after it.
  EXPECT_EQ(tasks[0].applied, 1u);
  EXPECT_EQ(page_a.psn(), 6u);
  EXPECT_EQ(tasks[1].applied, 0u);
  EXPECT_EQ(page_b.psn(), 3u);
}

}  // namespace
}  // namespace clog
