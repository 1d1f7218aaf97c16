#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cluster.h"
#include "tests/test_util.h"
#include "trace/trace_sink.h"

#ifndef CLOG_BINDIR
#define CLOG_BINDIR "."
#endif

namespace clog {
namespace {

using testing::TempDir;

/// Smoke tests for the inspection tools: run the real binaries against a
/// real node directory and check the output mentions what it must.
class ToolsTest : public ::testing::Test {
 protected:
  ToolsTest() {
    ClusterOptions opts;
    opts.dir = dir_.path();
    cluster_ = std::make_unique<Cluster>(opts);
    node_ = *cluster_->AddNode();
  }

  /// Runs a command, captures stdout, returns (exit_code, output).
  std::pair<int, std::string> Run(const std::string& cmd) {
    std::string full = cmd + " 2>&1";
    FILE* pipe = ::popen(full.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    int rc = ::pclose(pipe);
    return {WEXITSTATUS(rc), out};
  }

  std::string Tool(const char* name) {
    return std::string(CLOG_BINDIR) + "/tools/" + name;
  }

  TempDir dir_;
  std::unique_ptr<Cluster> cluster_;
  Node* node_ = nullptr;
};

TEST_F(ToolsTest, LogdumpShowsRecordsAndCheckpoint) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, pid, "tooled").status());
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->Checkpoint());
  ASSERT_OK(node_->log().Flush(node_->log().end_lsn()));

  auto [rc, out] =
      Run(Tool("clog_logdump") + " " + dir_.path() + "/node0/node.log");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("BEGIN"), std::string::npos);
  EXPECT_NE(out.find("UPDATE"), std::string::npos);
  EXPECT_NE(out.find("COMMIT"), std::string::npos);
  EXPECT_NE(out.find("CKPT_END"), std::string::npos);
  EXPECT_NE(out.find("psn_before=0"), std::string::npos);
  EXPECT_NE(out.find("dpt " + pid.ToString()), std::string::npos);
}

TEST_F(ToolsTest, LogdumpPageFilter) {
  ASSERT_OK_AND_ASSIGN(PageId p1, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId p2, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, p1, "one").status());
  ASSERT_OK(node_->Insert(txn, p2, "two").status());
  ASSERT_OK(node_->Commit(txn));

  auto [rc, out] = Run(Tool("clog_logdump") + " " + dir_.path() +
                       "/node0/node.log --page " + p1.ToString());
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("page=" + p1.ToString()), std::string::npos);
  EXPECT_EQ(out.find("page=" + p2.ToString()), std::string::npos);
}

TEST_F(ToolsTest, PagedumpShowsSlots) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, pid, "visible-payload").status());
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->HandleFlushRequest(node_->id(), pid));  // To disk.

  auto [rc, out] =
      Run(Tool("clog_pagedump") + " " + dir_.path() + "/node0/node.db");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("psn=1"), std::string::npos);
  EXPECT_NE(out.find("visible-payload"), std::string::npos);
  EXPECT_NE(out.find("checksum=ok"), std::string::npos);
}

TEST_F(ToolsTest, PagedumpVerifyScrubsWholeFile) {
  ASSERT_OK_AND_ASSIGN(PageId pid, node_->AllocatePage());
  ASSERT_OK_AND_ASSIGN(TxnId txn, node_->Begin());
  ASSERT_OK(node_->Insert(txn, pid, "scrub-me").status());
  ASSERT_OK(node_->Commit(txn));
  ASSERT_OK(node_->HandleFlushRequest(node_->id(), pid));  // To disk.
  std::string db = dir_.path() + "/node0/node.db";

  // Clean file: PASS, exit 0.
  auto [rc_ok, out_ok] = Run(Tool("clog_pagedump") + " --verify " + db);
  EXPECT_EQ(rc_ok, 0) << out_ok;
  EXPECT_NE(out_ok.find("PASS"), std::string::npos);

  // Flip a byte in the page body: the scrubber must name the bad page and
  // exit non-zero.
  {
    FILE* f = std::fopen(db.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long off = static_cast<long>(pid.page_no) * kPageSize + 1024;
    std::fseek(f, off, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, off, SEEK_SET);
    std::fputc(c ^ 0x5A, f);
    std::fclose(f);
  }
  auto [rc_bad, out_bad] = Run(Tool("clog_pagedump") + " --verify " + db);
  EXPECT_EQ(rc_bad, 1) << out_bad;
  EXPECT_NE(out_bad.find("BAD"), std::string::npos);
  EXPECT_NE(out_bad.find("FAIL"), std::string::npos);

  // Missing operand is a usage error.
  auto [rc_usage, out_usage] = Run(Tool("clog_pagedump") + " --verify");
  EXPECT_EQ(rc_usage, 2) << out_usage;
}

TEST_F(ToolsTest, PagedumpVerifyAcceptsArchiveFiles) {
  // The archive image file uses the identical page format, so the same
  // scrubber doubles as the archive-device health check in the media
  // recovery drill (docs/RECOVERY_WALKTHROUGH.md).
  TempDir adir;
  {
    ClusterOptions opts;
    opts.dir = adir.path();
    opts.logging_policy.WithArchiveEvery(1);
    Cluster archived(opts);
    Node* n = *archived.AddNode();
    PageId pid = *n->AllocatePage();
    TxnId txn = *n->Begin();
    ASSERT_OK(n->Insert(txn, pid, "kept-safe").status());
    ASSERT_OK(n->Commit(txn));
    ASSERT_OK(n->Checkpoint());  // Seals the archive pass.
    ASSERT_GT(n->archive().seq(), 0u);
  }
  auto [rc, out] = Run(Tool("clog_pagedump") + " --verify " + adir.path() +
                       "/node0/node.archive");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("PASS"), std::string::npos);
}

TEST_F(ToolsTest, ToolsRejectMissingFiles) {
  auto [rc1, out1] = Run(Tool("clog_logdump") + " /nonexistent/log");
  EXPECT_NE(rc1, 0);
  auto [rc2, out2] = Run(Tool("clog_pagedump"));
  EXPECT_EQ(rc2, 2);  // Usage error.
  auto [rc3, out3] = Run(Tool("tracedump"));
  EXPECT_EQ(rc3, 2);  // Usage error.
  auto [rc4, out4] = Run(Tool("tracedump") + " /nonexistent/trace.bin");
  EXPECT_NE(rc4, 0);
}

TEST_F(ToolsTest, TracedumpShowsEvents) {
  // Capture a real trace: a second cluster with a sink attached, one
  // committed transaction, then dump the binary file with the tool.
  TempDir tdir;
  TraceSink sink;
  {
    ClusterOptions opts;
    opts.dir = tdir.path();
    opts.trace_sink = &sink;
    Cluster traced(opts);
    Node* n = *traced.AddNode();
    PageId pid = *n->AllocatePage();
    TxnHandle txn = *TxnHandle::Begin(n);
    ASSERT_OK(txn.Insert(pid, "traced").status());
    ASSERT_OK(txn.Commit());
  }
  ASSERT_GT(sink.total_emitted(), 0u);
  std::string path = tdir.path() + "/trace.bin";
  ASSERT_OK(sink.WriteBinaryFile(path));

  auto [rc, out] = Run(Tool("tracedump") + " " + path);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("TXN_BEGIN"), std::string::npos);
  EXPECT_NE(out.find("TXN_COMMIT"), std::string::npos);
  EXPECT_NE(out.find("LOG_FORCE"), std::string::npos);
  EXPECT_NE(out.find("node 0:"), std::string::npos);
  EXPECT_NE(out.find("total events="), std::string::npos);

  auto [rc_tail, out_tail] = Run(Tool("tracedump") + " " + path + " --tail=1");
  EXPECT_EQ(rc_tail, 0) << out_tail;
  EXPECT_EQ(out_tail.find("TXN_BEGIN"), std::string::npos);

  auto [rc_json, json] = Run(Tool("tracedump") + " " + path + " --chrome");
  EXPECT_EQ(rc_json, 0) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
}

}  // namespace
}  // namespace clog
