#include <gtest/gtest.h>

#include "core/cluster.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

/// White-box tests of the Section 2.3.4 NodePSNList construction: "the
/// PSN value stored in the first log record written for P by each
/// transaction [run] that updated P" — one entry per transaction run, not
/// per update, and only for records at or after the page's RedoLSN.
class PsnListBuildTest : public ::testing::Test {
 protected:
  PsnListBuildTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    cluster_ = std::make_unique<Cluster>(opts);
    owner_ = *cluster_->AddNode();
    client_ = *cluster_->AddNode();
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_F(PsnListBuildTest, OneEntryPerTransactionRun) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  // Client txn 1: psn 0->3 (three updates, ONE run).
  ASSERT_OK_AND_ASSIGN(TxnId t1, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(t1, pid, "a"));
  ASSERT_OK(client_->Update(t1, rid, "b"));
  ASSERT_OK(client_->Update(t1, rid, "c"));
  ASSERT_OK(client_->Commit(t1));
  // Client txn 2: psn 3->4 (a second run of the same node).
  ASSERT_OK_AND_ASSIGN(TxnId t2, client_->Begin());
  ASSERT_OK(client_->Update(t2, rid, "d"));
  ASSERT_OK(client_->Commit(t2));

  PsnListReply reply;
  ASSERT_OK(client_->HandleBuildPsnList(owner_->id(), {pid}, false, &reply));
  ASSERT_EQ(reply.per_page.size(), 1u);
  ASSERT_EQ(reply.per_page[0].size(), 2u);  // Two runs, not four updates.
  EXPECT_EQ(reply.per_page[0][0].psn, 0u);  // First record of run 1.
  EXPECT_EQ(reply.per_page[0][1].psn, 3u);  // First record of run 2.
  EXPECT_GT(reply.records_scanned, 0u);
}

TEST_F(PsnListBuildTest, InterleavedTransactionsAlternateRuns) {
  // With record locking, two local txns interleave on one page; their
  // alternating records create alternating runs.
  TempDir fresh;
  ClusterOptions opts;
  opts.dir = fresh.path();
  opts.node_defaults.local_record_locking = true;
  Cluster cluster(opts);
  Node* owner = *cluster.AddNode();
  Node* worker = *cluster.AddNode();
  PageId pid = *owner->AllocatePage();
  TxnId seed = *worker->Begin();
  RecordId r0 = *worker->Insert(seed, pid, "r0");   // psn 0
  RecordId r1 = *worker->Insert(seed, pid, "r1");   // psn 1
  ASSERT_OK(worker->Commit(seed));

  TxnId a = *worker->Begin();
  TxnId b = *worker->Begin();
  ASSERT_OK(worker->Update(a, r0, "a1"));  // psn 2
  ASSERT_OK(worker->Update(b, r1, "b1"));  // psn 3
  ASSERT_OK(worker->Update(a, r0, "a2"));  // psn 4
  ASSERT_OK(worker->Commit(a));
  ASSERT_OK(worker->Commit(b));

  PsnListReply reply;
  ASSERT_OK(worker->HandleBuildPsnList(owner->id(), {pid}, false, &reply));
  ASSERT_EQ(reply.per_page.size(), 1u);
  // Runs: seed(0), a(2), b(3), a(4) — txn boundaries, per the paper's
  // "transaction that wrote the log record is not the same as the
  // transaction that wrote the [previous] log record".
  std::vector<Psn> psns;
  for (const auto& e : reply.per_page[0]) psns.push_back(e.psn);
  EXPECT_EQ(psns, (std::vector<Psn>{0, 2, 3, 4}));
}

TEST_F(PsnListBuildTest, PagesWithoutDptEntryContributeNothing) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId untouched, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK(client_->Insert(txn, pid, "x").status());
  ASSERT_OK(client_->Commit(txn));

  PsnListReply reply;
  ASSERT_OK(client_->HandleBuildPsnList(owner_->id(), {pid, untouched}, false,
                                        &reply));
  ASSERT_EQ(reply.per_page.size(), 2u);
  EXPECT_FALSE(reply.per_page[0].empty());
  EXPECT_TRUE(reply.per_page[1].empty());
}

TEST_F(PsnListBuildTest, RecordsBeforeRedoLsnExcluded) {
  // Updates whose effects are already on disk (entry dropped, then the
  // page re-dirtied) must not reappear in the list: the scan starts at
  // the CURRENT RedoLSN.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(t1, pid, "old"));
  ASSERT_OK(client_->Commit(t1));
  // Ship + force: the client's entry drops.
  ASSERT_OK(const_cast<BufferPool&>(client_->pool()).Evict(pid));
  ASSERT_OK(owner_->HandleFlushRequest(client_->id(), pid));
  ASSERT_FALSE(client_->dpt().Contains(pid));
  // Re-dirty: fresh entry with RedoLSN after the old records.
  ASSERT_OK_AND_ASSIGN(TxnId t2, client_->Begin());
  ASSERT_OK(client_->Update(t2, rid, "new"));
  ASSERT_OK(client_->Commit(t2));

  PsnListReply reply;
  ASSERT_OK(client_->HandleBuildPsnList(owner_->id(), {pid}, false, &reply));
  ASSERT_EQ(reply.per_page[0].size(), 1u);
  EXPECT_EQ(reply.per_page[0][0].psn, 1u);  // Only the post-force run.
}

TEST_F(PsnListBuildTest, ClrRecordsParticipateInRuns) {
  // An aborted transaction's CLRs are redo records too; they must appear
  // in the list so the rolled-back state is reproducible.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t1, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(t1, pid, "keep"));
  ASSERT_OK(client_->Commit(t1));
  ASSERT_OK_AND_ASSIGN(TxnId t2, client_->Begin());
  ASSERT_OK(client_->Update(t2, rid, "scrap"));   // psn 1->2
  ASSERT_OK(client_->Abort(t2));                  // CLR: psn 2->3

  PsnListReply reply;
  ASSERT_OK(client_->HandleBuildPsnList(owner_->id(), {pid}, false, &reply));
  // Runs: t1(0), t2(1) — t2's CLR continues its own run.
  ASSERT_EQ(reply.per_page[0].size(), 2u);
  EXPECT_EQ(reply.per_page[0][0].psn, 0u);
  EXPECT_EQ(reply.per_page[0][1].psn, 1u);
}

/// One history, built identically in `dir`: pages a and b carry a
/// committed run, a pure-logical loser's run (adaptive logging; a
/// permanent redo-skip run once its restart ends it), and a post-restart
/// run that gives both pages a fresh DPT entry.
void BuildMixedHistory(const std::string& dir,
                       std::unique_ptr<Cluster>* cluster, Node** node,
                       PageId* a, PageId* b) {
  ClusterOptions opts;
  opts.dir = dir;
  opts.logging_policy.WithStrategy(LogStrategy::kAdaptive);
  *cluster = std::make_unique<Cluster>(opts);
  ASSERT_OK_AND_ASSIGN(Node * n, (*cluster)->AddNode());
  *node = n;
  ASSERT_OK_AND_ASSIGN(*a, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(*b, n->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, n->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId ra, n->Insert(t0, *a, "a0"));
  ASSERT_OK_AND_ASSIGN(RecordId rb, n->Insert(t0, *b, "b0"));
  ASSERT_OK(n->Commit(t0));
  ASSERT_OK_AND_ASSIGN(TxnId loser, n->Begin());
  ASSERT_OK(n->Update(loser, ra, "lost"));
  ASSERT_OK(n->Update(loser, rb, "lost"));
  ASSERT_OK(n->log().Flush(n->log().end_lsn()));
  ASSERT_OK((*cluster)->CrashNode(n->id()));
  ASSERT_OK((*cluster)->RestartNode(n->id()));
  ASSERT_OK_AND_ASSIGN(TxnId t2, n->Begin());
  ASSERT_OK(n->Update(t2, ra, "a1"));
  ASSERT_OK(n->Update(t2, rb, "b1"));
  ASSERT_OK(n->Commit(t2));
}

void ExpectSameLists(const std::vector<PsnListEntry>& got,
                     const std::vector<PsnListEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].psn, want[i].psn);
    EXPECT_EQ(got[i].start_lsn, want[i].start_lsn);
  }
}

TEST_F(PsnListBuildTest, MixedModeRequestMatchesSingleModeCalls) {
  // Restart reads its own log once for partial and full-history pages
  // together; that pass must leave exactly what one partial call and one
  // full-history call leave on an identical node.
  TempDir split_dir;
  TempDir mixed_dir;
  std::unique_ptr<Cluster> split_cluster;
  std::unique_ptr<Cluster> mixed_cluster;
  Node* split = nullptr;
  Node* mixed = nullptr;
  PageId a, b;
  ASSERT_NO_FATAL_FAILURE(
      BuildMixedHistory(split_dir.path(), &split_cluster, &split, &a, &b));
  ASSERT_NO_FATAL_FAILURE(
      BuildMixedHistory(mixed_dir.path(), &mixed_cluster, &mixed, &a, &b));

  const std::uint64_t split_scans =
      split->metrics().CounterValue("recovery.psn_list_scans");
  const std::uint64_t mixed_scans =
      mixed->metrics().CounterValue("recovery.psn_list_scans");
  PsnListReply partial, full, both;
  ASSERT_OK(split->BuildPsnLists({a}, {false}, &partial));
  ASSERT_OK(split->BuildPsnLists({b}, {true}, &full));
  ASSERT_OK(mixed->BuildPsnLists({a, b}, {false, true}, &both));

  ASSERT_EQ(both.per_page.size(), 2u);
  ExpectSameLists(both.per_page[0], partial.per_page[0]);
  ExpectSameLists(both.per_page[1], full.per_page[0]);
  // Partial: only the post-restart run. Full history: the committed run
  // and the post-restart run; the loser's run is skipped.
  EXPECT_EQ(partial.per_page[0].size(), 1u);
  EXPECT_EQ(full.per_page[0].size(), 2u);
  EXPECT_EQ(mixed->recovery_cursors(), split->recovery_cursors());
  EXPECT_EQ(mixed->recovery_cursors().size(), 2u);
  EXPECT_EQ(mixed->recovery_skip_txns(), split->recovery_skip_txns());
  EXPECT_FALSE(mixed->recovery_skip_txns().empty());
  // One scan, no longer than the full-history scan alone.
  EXPECT_EQ(split->metrics().CounterValue("recovery.psn_list_scans"),
            split_scans + 2);
  EXPECT_EQ(mixed->metrics().CounterValue("recovery.psn_list_scans"),
            mixed_scans + 1);
  EXPECT_EQ(both.records_scanned, full.records_scanned);
}

}  // namespace
}  // namespace clog
