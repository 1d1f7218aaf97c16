#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/workload.h"
#include "tests/test_util.h"

namespace clog {
namespace {

using testing::TempDir;

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    opts.node_defaults.buffer_frames = 32;
    cluster_ = std::make_unique<Cluster>(opts);
    auto owner = cluster_->AddNode();
    auto client = cluster_->AddNode();
    EXPECT_TRUE(owner.ok());
    EXPECT_TRUE(client.ok());
    owner_ = *owner;
    client_ = *client;
  }

  std::uint64_t Msgs(const std::string& type) {
    return cluster_->network().metrics().CounterValue("msg." + type);
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* owner_ = nullptr;
  Node* client_ = nullptr;
};

TEST_F(ClusterTest, RemotePageFetchAndUpdate) {
  // Client caches a page owned by the server, updates it, logs locally,
  // and commits without talking to the owner (data shipping, Section 2.2).
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(txn, pid, "remote"));
  EXPECT_GE(Msgs("lock_page_request"), 1u);
  std::uint64_t msgs_before_commit =
      cluster_->network().metrics().CounterValue("msg.total");
  ASSERT_OK(client_->Commit(txn));
  // No commit-time messages.
  EXPECT_EQ(cluster_->network().metrics().CounterValue("msg.total"),
            msgs_before_commit);
  // The client's log carries the records, the owner's does not.
  EXPECT_GT(client_->log().appended_records(), 0u);
  // Client can re-read from cache with no further owner traffic.
  std::uint64_t lock_reqs = Msgs("lock_page_request");
  ASSERT_OK_AND_ASSIGN(TxnId t2, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(t2, rid));
  EXPECT_EQ(v, "remote");
  ASSERT_OK(client_->Commit(t2));
  EXPECT_EQ(Msgs("lock_page_request"), lock_reqs);  // Inter-txn caching.
}

TEST_F(ClusterTest, CallbackDemotesWriterForReader) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  // Client writes and commits; it retains an exclusive cached lock.
  ASSERT_OK_AND_ASSIGN(TxnId tw, client_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, client_->Insert(tw, pid, "w"));
  ASSERT_OK(client_->Commit(tw));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kExclusive);

  // Owner-side read triggers a demotion callback; the dirty copy travels.
  ASSERT_OK_AND_ASSIGN(TxnId tr, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(tr, rid));
  EXPECT_EQ(v, "w");
  ASSERT_OK(owner_->Commit(tr));
  EXPECT_GE(Msgs("callback"), 1u);
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kShared);
  // The client's DPT entry survives: its updates are not on disk yet.
  EXPECT_TRUE(client_->dpt().Contains(pid));
}

TEST_F(ClusterTest, CallbackReleasesReaderForWriter) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "v0"));
  ASSERT_OK(owner_->Commit(t0));

  // Client reads: holds a cached S lock.
  ASSERT_OK_AND_ASSIGN(TxnId tr, client_->Begin());
  ASSERT_OK(client_->Read(tr, rid).status());
  ASSERT_OK(client_->Commit(tr));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kShared);

  // Owner writes: the client's cached S lock is called back entirely.
  ASSERT_OK_AND_ASSIGN(TxnId tw, owner_->Begin());
  ASSERT_OK(owner_->Update(tw, rid, "v1"));
  ASSERT_OK(owner_->Commit(tw));
  EXPECT_EQ(client_->lock_cache().NodeMode(pid), LockMode::kNone);
  EXPECT_FALSE(client_->pool().Contains(pid));

  // Client re-reads: sees the new value.
  ASSERT_OK_AND_ASSIGN(TxnId tr2, client_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, client_->Read(tr2, rid));
  EXPECT_EQ(v, "v1");
  ASSERT_OK(client_->Commit(tr2));
}

TEST_F(ClusterTest, PageTravelsWithMultipleOutstandingUpdates) {
  // The paper's distinguishing capability vs Rdb/VMS: a page carries
  // uncommitted-at-disk updates from several nodes without being forced.
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "v0"));
  ASSERT_OK(owner_->Commit(t0));

  std::uint64_t disk_writes_before = owner_->disk().writes();
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(TxnId tc, client_->Begin());
    ASSERT_OK(client_->Update(tc, rid, "c" + std::to_string(round)));
    ASSERT_OK(client_->Commit(tc));
    ASSERT_OK_AND_ASSIGN(TxnId to, owner_->Begin());
    ASSERT_OK(owner_->Update(to, rid, "o" + std::to_string(round)));
    ASSERT_OK(owner_->Commit(to));
  }
  // No disk writes during the ping-pong (no force at transfer).
  EXPECT_EQ(owner_->disk().writes(), disk_writes_before);
  // Both nodes hold DPT entries for the page: multiple outstanding
  // updates, exactly what single-log-per-page schemes cannot have.
  EXPECT_TRUE(owner_->dpt().Contains(pid) || client_->dpt().Contains(pid));
  ASSERT_OK_AND_ASSIGN(TxnId check, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(std::string v, owner_->Read(check, rid));
  EXPECT_EQ(v, "o2");
  ASSERT_OK(owner_->Commit(check));
}

TEST(ClusterPolicyTest, NodeWithoutPolicyInheritsTheClusterPolicy) {
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.logging_policy.WithGroupCommitWindow(2'000'000, 4).WithArchiveEvery(2);
  Cluster cluster(opts);
  ASSERT_OK_AND_ASSIGN(Node * node, cluster.AddNode());
  ASSERT_TRUE(node->options().logging_policy.has_value());
  const LoggingPolicy& policy = *node->options().logging_policy;
  EXPECT_TRUE(policy.group_commit.enabled);
  EXPECT_EQ(policy.group_commit.window_ns, 2'000'000u);
  EXPECT_EQ(policy.archive.every_checkpoints, 2u);
}

TEST(ClusterPolicyTest, NodePolicyIsKeptWhateverItTunes) {
  // A node policy that differs from the default only in the group-commit
  // window, or only in the archive cadence, is still the node's own: it
  // must not be swapped for the cluster policy.
  TempDir dir;
  ClusterOptions opts;
  opts.dir = dir.path();
  opts.logging_policy.WithGroupCommitWindow(2'000'000, 4);
  Cluster cluster(opts);

  NodeOptions window_only;
  window_only.logging_policy.emplace().group_commit.window_ns = 5'000'000;
  ASSERT_OK_AND_ASSIGN(Node * a, cluster.AddNode(window_only));
  EXPECT_FALSE(a->options().logging_policy->group_commit.enabled);
  EXPECT_EQ(a->options().logging_policy->group_commit.window_ns, 5'000'000u);

  NodeOptions cadence_only;
  cadence_only.logging_policy.emplace().archive.every_checkpoints = 3;
  ASSERT_OK_AND_ASSIGN(Node * b, cluster.AddNode(cadence_only));
  EXPECT_FALSE(b->options().logging_policy->group_commit.enabled);
  EXPECT_EQ(b->options().logging_policy->archive.every_checkpoints, 3u);
}

TEST_F(ClusterTest, ReplacedDirtyPageShipsHomeAndFlushNotifyClearsDpt) {
  // Small client cache: dirty remote pages get replaced and shipped to the
  // owner; when the owner forces them, the flush notification clears the
  // client's DPT entries (Sections 2.2 / 2.5).
  NodeOptions small = owner_->options();
  small.buffer_frames = 4;
  ASSERT_OK_AND_ASSIGN(Node * tiny, cluster_->AddNode(small));

  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
    pages.push_back(pid);
  }
  ASSERT_OK_AND_ASSIGN(TxnId txn, tiny->Begin());
  for (PageId pid : pages) {
    ASSERT_OK(tiny->Insert(txn, pid, "t").status());
  }
  ASSERT_OK(tiny->Commit(txn));
  EXPECT_GE(Msgs("page_ship"), 4u);
  EXPECT_EQ(tiny->dpt().size(), 8u);

  // Force everything at the owner; notifications clear the client's DPT
  // entries for the pages whose dirty copies were shipped home. Pages
  // still cached dirty at the client correctly KEEP their entries — their
  // updates are not in any disk version yet (Section 2.2 drop rule).
  for (PageId pid : pages) {
    ASSERT_OK(owner_->HandleFlushRequest(owner_->id(), pid));
  }
  EXPECT_LT(tiny->dpt().size(), 8u);
  EXPECT_GE(Msgs("flush_notify"), 1u);

  // Now push the remaining dirty copies home too and force again: every
  // entry must clear.
  for (PageId pid : pages) {
    if (tiny->pool().Contains(pid) && tiny->pool().IsDirty(pid)) {
      ASSERT_OK(const_cast<BufferPool&>(tiny->pool()).Evict(pid));
      ASSERT_OK(owner_->HandleFlushRequest(owner_->id(), pid));
    }
  }
  EXPECT_EQ(tiny->dpt().size(), 0u);
}

TEST_F(ClusterTest, LocalConflictReportsBlockers) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId t0, owner_->Begin());
  ASSERT_OK_AND_ASSIGN(RecordId rid, owner_->Insert(t0, pid, "x"));
  // t0 still active: a second local writer must block.
  ASSERT_OK_AND_ASSIGN(TxnId t1, owner_->Begin());
  Status st = owner_->Update(t1, rid, "y");
  EXPECT_TRUE(st.IsBusy());
  EXPECT_EQ(owner_->LastBlockers(t1), std::vector<TxnId>{t0});
  ASSERT_OK(owner_->Commit(t0));
  ASSERT_OK(owner_->Update(t1, rid, "y"));
  ASSERT_OK(owner_->Commit(t1));
}

TEST_F(ClusterTest, RemoteConflictBlocksViaCallback) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId tc, client_->Begin());
  ASSERT_OK(client_->Insert(tc, pid, "c").status());
  // Owner wants the page while the client transaction is active: the
  // callback is refused and the request reports Busy with the blocker.
  ASSERT_OK_AND_ASSIGN(TxnId to, owner_->Begin());
  Status st = owner_->Insert(to, pid, "o").status();
  EXPECT_TRUE(st.IsBusy());
  EXPECT_EQ(owner_->LastBlockers(to), std::vector<TxnId>{tc});
  ASSERT_OK(client_->Commit(tc));
  // After commit the cached lock can be called back.
  ASSERT_OK(owner_->Insert(to, pid, "o").status());
  ASSERT_OK(owner_->Commit(to));
}

TEST_F(ClusterTest, RunTransactionRetriesBusy) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(RecordId rid, [&]() -> Result<RecordId> {
    Result<RecordId> out = Status::Busy("");
    Status st = cluster_->RunTransaction(owner_->id(), [&](TxnHandle& t) {
      out = t.Insert(pid, "seed");
      return out.status();
    });
    if (!st.ok()) return st;
    return out;
  }());
  ASSERT_OK(cluster_->RunTransaction(client_->id(), [&](TxnHandle& t) {
    return t.Update(rid, "client-was-here");
  }));
  std::string seen;
  ASSERT_OK(cluster_->RunTransaction(owner_->id(), [&](TxnHandle& t) {
    Result<std::string> v = t.Read(rid);
    if (!v.ok()) return v.status();
    seen = *v;
    return Status::OK();
  }));
  EXPECT_EQ(seen, "client-was-here");
}

TEST_F(ClusterTest, WorkloadDriverInterleavesAndCommits) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<PageId> pages,
      AllocatePopulatedPages(cluster_.get(), owner_->id(), 6, 8, 40, 1));
  WorkloadConfig config;
  config.txns_per_session = 10;
  config.ops_per_txn = 4;
  config.records_per_page = 8;
  config.payload_bytes = 40;
  WorkloadDriver driver(cluster_.get(), config,
                        {{owner_->id(), pages}, {client_->id(), pages}});
  ASSERT_OK(driver.Run());
  EXPECT_GT(driver.stats().committed, 0u);
  EXPECT_LE(driver.stats().committed, 20u);  // 2 sessions x 10 txns.
  EXPECT_GT(driver.stats().ops, 0u);
}

TEST_F(ClusterTest, CrashedOwnerRejectsRequests) {
  ASSERT_OK_AND_ASSIGN(PageId pid, owner_->AllocatePage());
  ASSERT_OK(cluster_->CrashNode(owner_->id()));
  ASSERT_OK_AND_ASSIGN(TxnId txn, client_->Begin());
  Status st = client_->Insert(txn, pid, "x").status();
  EXPECT_TRUE(st.IsNodeDown());
  ASSERT_OK(client_->Abort(txn));
}

}  // namespace
}  // namespace clog
