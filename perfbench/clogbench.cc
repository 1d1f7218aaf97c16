// clogbench: the measuring half of perfbench/run.py.
//
// Runs one workload on the real-threads engine (ExecutionMode::kRealThreads,
// real fdatasync on the filesystem holding --dir, default LoggingPolicy
// apart from an archive pass at every checkpoint) and prints one JSON line.
// The load, the record values and the model the outputs are checked
// against all come from the inputs file run.py generates from its seed;
// nothing here draws a random number.
//
//   clogbench --workload W --inputs FILE --dir DIR --seconds S --trace 0|1
//             [--instant-restore]
//   clogbench --selftest
//
// Workloads (see perfbench/README.md for why each exists):
//   local_commit  2 nodes x 2 sessions overwrite records on their own
//                 node's pages: commit is one local log force, no message.
//   shared_pages  3 nodes x 1 session read-increment counters, 30% of them
//                 on pages another node owns, so hot pages move between
//                 caches under lock callbacks. It loses a varying number of
//                 increments to fault F1, so it is not in BENCHMARK.json;
//                 perfbench/repro.py runs it.
//   restart       one client thread, round-robin over 3 nodes; each cycle
//                 crashes node 0 and restarts it, odd cycles after a plain
//                 crash, even cycles after losing its data device.
//
// Every workload reports every metric. The commit workloads take theirs
// from one plain and one device-loss cycle (the restart workload's cycle,
// from one client thread) on the freshly set-up cluster, before the timed
// phase, so that the restart figures do not depend on how many
// transactions the timed phase managed.
//
// End-to-end metrics other than setup_s are counts (forces and log bytes
// per commit, log records a restart reads): on a shared disk the wall-clock
// figures drift by a factor of two to four between minutes, so they are
// reported, with the per-layer metrics, only by --trace 1.
//
// Timing sources: steady_clock around the public calls (RunTransaction,
// the transaction body's start and end, TxnHandle::Read/Update split by
// page owner, RestartNode), and the counters and histograms the engine
// exposes (Node::metrics, Network::metrics, Cluster::recovery_stats).
// With --trace 0 the calls inside a transaction body are not timed.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "fault/fault_injector.h"
#include "perfbench/checks.h"

namespace {

using clog::Cluster;
using clog::NodeId;
using clog::PageId;
using clog::RecordId;
using clog::Status;
using clog::TxnHandle;
using perfbench::EncodeValue;
using Clock = std::chrono::steady_clock;

constexpr int kPicksPerTxn = 4;
constexpr NodeId kVictim = 0;  // The node every restart cycle crashes.
constexpr int kSetups = 5;      // Timed set-ups at the start and at the end.
constexpr int kCyclePairs = 4;  // restart: plain/loss pairs per round.
constexpr int kTraceSlicePairs = 5;  // Trace runs: untraced/traced slices.

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "clogbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

std::uint64_t Ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// --- Inputs ---------------------------------------------------------------

struct Pick {
  std::uint32_t node = 0, page = 0, slot = 0;
};

struct Txn {
  std::uint32_t node = 0;  // Node the transaction runs on.
  Pick picks[kPicksPerTxn];
};

struct Inputs {
  std::string workload;
  std::uint32_t nodes = 0, pages_per_node = 0, records_per_page = 0;
  std::uint32_t warmup_txns = 0;  // Per session, before timing starts.
  std::uint32_t cycle_txns = 0;   // Transactions before each restart.
  std::string init_pad;
  std::vector<std::string> session_pad;
  std::vector<std::uint64_t> init;           // Per record.
  std::vector<std::vector<Txn>> stream;      // Per session; cycled.

  bool increments() const { return workload != "local_commit"; }
  std::size_t records() const {
    return static_cast<std::size_t>(nodes) * pages_per_node * records_per_page;
  }
  std::size_t Index(const Pick& p) const {
    return (static_cast<std::size_t>(p.node) * pages_per_node + p.page) *
               records_per_page +
           p.slot;
  }
};

Inputs LoadInputs(const std::string& path) {
  std::ifstream f(path);
  if (!f) Die("cannot read inputs " + path);
  Inputs in;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;
    if (key == "workload") {
      ls >> in.workload;
    } else if (key == "shape") {
      ls >> in.nodes >> in.pages_per_node >> in.records_per_page;
      in.init.assign(in.records(), 0);
    } else if (key == "warmup_txns") {
      ls >> in.warmup_txns;
    } else if (key == "cycle_txns") {
      ls >> in.cycle_txns;
    } else if (key == "init_pad") {
      ls >> in.init_pad;
    } else if (key == "session") {
      std::size_t s = 0;
      std::string pad;
      ls >> s >> pad;
      if (s != in.session_pad.size()) Die("sessions out of order");
      in.session_pad.push_back(pad);
      in.stream.emplace_back();
    } else if (key == "init") {
      Pick p;
      std::uint64_t v = 0;
      ls >> p.node >> p.page >> p.slot >> v;
      in.init.at(in.Index(p)) = v;
    } else if (key == "t") {
      std::size_t s = 0;
      Txn t;
      ls >> s >> t.node;
      for (Pick& p : t.picks) ls >> p.node >> p.page >> p.slot;
      in.stream.at(s).push_back(t);
    } else {
      Die("unknown inputs line: " + line);
    }
    if (!ls) Die("malformed inputs line: " + line);
  }
  if (in.nodes == 0 || in.session_pad.empty()) Die("inputs incomplete");
  for (const auto& s : in.stream) {
    if (s.empty()) Die("a session has no transactions");
    for (const Txn& t : s) {
      if (t.node >= in.nodes) Die("transaction on unknown node");
      for (const Pick& p : t.picks) {
        if (p.node >= in.nodes || p.page >= in.pages_per_node ||
            p.slot >= in.records_per_page) {
          Die("pick out of range");
        }
      }
    }
  }
  return in;
}

// --- Per-session measurements ----------------------------------------------

struct Samples {
  std::vector<std::uint64_t> commit_ns;  // RunTransaction call -> return.
  // Traced only:
  std::vector<std::uint64_t> queue_ns, commit_tail_ns, update_local_ns,
      update_remote_ns, read_remote_ns;
  std::uint64_t commits = 0, attempts = 0, failed = 0;
  double wall_s = 0;  // Time the sessions ran, summed over phases.

  void Merge(const Samples& o) {
    auto cat = [](std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(commit_ns, o.commit_ns);
    cat(queue_ns, o.queue_ns);
    cat(commit_tail_ns, o.commit_tail_ns);
    cat(update_local_ns, o.update_local_ns);
    cat(update_remote_ns, o.update_remote_ns);
    cat(read_remote_ns, o.read_remote_ns);
    commits += o.commits;
    attempts += o.attempts;
    failed += o.failed;
    wall_s += o.wall_s;
  }
};

double P(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  return perfbench::NearestRank(v, q);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Engine counters summed over nodes plus the network's, read before and
/// after a measured phase.
struct Counters {
  std::uint64_t forces = 0, grants = 0, page_writes = 0, msgs = 0, bytes = 0,
                callbacks = 0, log_bytes = 0;
};

// One restart cycle's outcome.
struct Cycle {
  bool loss = false, ok = true;
  double restart_ms = 0, first_commit_ms = 0;
  double analyze_ms = 0, exchange_ms = 0, redo_ms = 0, undo_ms = 0;
  double records_read = 0;  // Log records every node read for the restart.
  double redo_rounds = 0, redo_applied = 0, analysis_records = 0,
         from_peer_cache = 0, archive_restores = 0, rebuilt_from_seed = 0,
         pages_planned = 0;
};

// --- The benchmark ---------------------------------------------------------

class Bench {
 public:
  Bench(Inputs in, std::string dir, bool instant_restore)
      : in_(std::move(in)),
        dir_(std::move(dir)),
        instant_restore_(instant_restore),
        cursor_(in_.stream.size(), 0),
        stamp_(in_.stream.size(), 0) {}
  ~Bench() { TearDown(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Builds a fresh cluster and populates every record with its initial
  /// value; returns the wall time taken.
  double SetUp();
  void TearDown();

  /// Runs every session closed-loop until `seconds` elapse, or until each
  /// has committed `txn_limit` transactions if that is not 0. `traced`
  /// turns on the per-call timers inside transaction bodies.
  Samples CommitPhase(double seconds, std::size_t txn_limit, bool traced,
                      Counters* delta);

  /// `cycle_txns` transactions of session 0 from this one thread (in the
  /// restart workload round-robin over the nodes), then a crash and
  /// restart of node 0. Batch samples go to `batch`.
  Cycle RestartCycle(bool loss, bool traced, Samples* batch, Counters* delta);

  struct AuditResult {
    std::uint64_t missing = 0;  // Increments committed and not found.
    std::uint64_t wrong = 0;    // Anything else that differs from the model.
  };
  /// Reads every record back and compares it with the model.
  AuditResult Audit(const char* when);

  /// Pages fenced as unrecoverable on any node.
  std::size_t PoisonedPages();

  void ResetHistograms();
  double ForceP50Us();
  double RttP50Us() {
    return cluster_->network().metrics().HistogramValue("rpc.rtt_ns").p50 / 1e3;
  }

  const Inputs& inputs() const { return in_; }

 private:
  Counters ReadCounters();
  /// Log records read by restart analysis and by PSN-list scans, summed
  /// over nodes.
  std::uint64_t LogRecordsRead();
  /// Runs one transaction, retried on Busy and deadlock until it commits;
  /// `values` receives what it wrote. Leaves the model alone.
  Status RunOne(std::size_t session, const Txn& t, NodeId on, bool traced,
                Samples* out, std::uint64_t* values);
  /// Applies a committed transaction of `session` to the model.
  void Apply(std::size_t session, const Txn& t, const std::uint64_t* values);
  /// The next transaction of `session`'s input stream.
  const Txn& Next(std::size_t session) {
    const std::vector<Txn>& s = in_.stream[session];
    return s[cursor_[session]++ % s.size()];
  }
  RecordId Rid(const Pick& p) const {
    return RecordId{pages_.at(static_cast<std::size_t>(p.node) *
                                  in_.pages_per_node +
                              p.page),
                    static_cast<clog::SlotId>(p.slot)};
  }
  std::string Expected(std::size_t rec) const {
    return in_.increments() ? EncodeValue(model_num_[rec], in_.init_pad)
                            : model_str_[rec];
  }

  Inputs in_;
  std::string dir_;
  bool instant_restore_;  // Only perfbench/repro.py f2 turns it on.
  std::unique_ptr<clog::FaultInjector> injector_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<PageId> pages_;               // node * pages_per_node + page.
  std::vector<std::uint64_t> model_num_;    // increments: expected counters.
  std::vector<std::string> model_str_;      // local_commit: expected values.
  // Per session, across set-ups, so that each restart round runs the next
  // stretch of the stream rather than the same one.
  std::vector<std::size_t> cursor_;         // Next stream position.
  std::vector<std::uint64_t> stamp_;        // local_commit: writes so far.
};

double Bench::SetUp() {
  TearDown();
  const auto t0 = Clock::now();
  std::filesystem::create_directories(dir_);
  injector_ = std::make_unique<clog::FaultInjector>(/*seed=*/1);
  clog::ClusterOptions o;
  o.dir = dir_;
  o.execution_mode = clog::ExecutionMode::kRealThreads;
  o.fault_injector = injector_.get();
  // An archive image at every checkpoint bounds what a lost data device
  // replays; checkpoints run only at set-up and at the end of a restart,
  // never on the commit path.
  o.logging_policy.WithArchiveEvery(1);
  o.node_defaults.instant_restore.enabled = instant_restore_;
  cluster_ = std::make_unique<Cluster>(o);

  pages_.clear();
  for (std::uint32_t n = 0; n < in_.nodes; ++n) {
    auto r = cluster_->AddNode();
    Check(r.status(), "add node");
    clog::Node* node = r.value();
    std::vector<PageId> mine(in_.pages_per_node);
    Status st;
    Check(cluster_->Execute(node->id(),
                            [&] {
                              for (PageId& pid : mine) {
                                auto a = node->AllocatePage();
                                if (!a.ok()) {
                                  st = a.status();
                                  return;
                                }
                                pid = a.value();
                              }
                            }),
          "allocate");
    Check(st, "allocate page");
    pages_.insert(pages_.end(), mine.begin(), mine.end());
  }
  model_num_ = in_.init;
  model_str_.assign(in_.records(), "");
  for (std::size_t r = 0; r < in_.records(); ++r) {
    model_str_[r] = EncodeValue(in_.init[r], in_.init_pad);
  }
  // Insert each node's records in one transaction.
  for (std::uint32_t n = 0; n < in_.nodes; ++n) {
    Status st = cluster_->RunTransaction(n, [&](TxnHandle& txn) -> Status {
      for (std::uint32_t p = 0; p < in_.pages_per_node; ++p) {
        for (std::uint32_t s = 0; s < in_.records_per_page; ++s) {
          const Pick pick{n, p, s};
          auto rid = txn.Insert(Rid(pick).page, Expected(in_.Index(pick)));
          CLOG_RETURN_IF_ERROR(rid.status());
          if (rid.value().slot != s) {
            return Status::Corruption("insert landed in another slot");
          }
        }
      }
      return Status::OK();
    });
    Check(st, "populate");
  }
  for (std::uint32_t n = 0; n < in_.nodes; ++n) {
    Status st;
    Check(cluster_->Execute(n, [&] { st = cluster_->node(n)->Checkpoint(); }),
          "checkpoint");
    Check(st, "checkpoint");
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Bench::TearDown() {
  cluster_.reset();
  injector_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  // Commit the removal to the filesystem's journal now. Otherwise freeing
  // the old cluster's files (a timed phase leaves logs of hundreds of MB)
  // is paid by the first sync of the next set-up, in this run or the next.
  std::filesystem::path parent = std::filesystem::path(dir_).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

std::uint64_t Bench::LogRecordsRead() {
  std::uint64_t n = 0;
  for (NodeId id : cluster_->NodeIds()) {
    const clog::Metrics& m = cluster_->node(id)->metrics();
    n += m.CounterValue("recovery.analysis_records") +
         m.CounterValue("recovery.records_scanned");
  }
  return n;
}

Counters Bench::ReadCounters() {
  Counters c;
  for (NodeId id : cluster_->NodeIds()) {
    clog::Node* n = cluster_->node(id);
    const clog::Metrics& m = n->metrics();
    c.forces += m.CounterValue("log.forces");
    c.grants += m.CounterValue("lock.grants");
    c.page_writes += m.CounterValue("disk.page_writes");
    c.log_bytes += n->log().end_lsn();
  }
  const clog::Metrics& net = cluster_->network().metrics();
  c.msgs = net.CounterValue("msg.total");
  c.bytes = net.CounterValue("bytes.total");
  c.callbacks = net.CounterValue("msg.callback");
  return c;
}

Counters Minus(const Counters& a, const Counters& b) {
  Counters d;
  d.forces = a.forces - b.forces;
  d.grants = a.grants - b.grants;
  d.page_writes = a.page_writes - b.page_writes;
  d.msgs = a.msgs - b.msgs;
  d.bytes = a.bytes - b.bytes;
  d.callbacks = a.callbacks - b.callbacks;
  d.log_bytes = a.log_bytes - b.log_bytes;
  return d;
}

void Add(Counters* a, const Counters& b) {
  a->forces += b.forces;
  a->grants += b.grants;
  a->page_writes += b.page_writes;
  a->msgs += b.msgs;
  a->bytes += b.bytes;
  a->callbacks += b.callbacks;
  a->log_bytes += b.log_bytes;
}

void Bench::ResetHistograms() {
  for (NodeId id : cluster_->NodeIds()) {
    cluster_->node(id)->metrics().GetHistogram("force.latency_ns").Reset();
  }
  cluster_->network().metrics().GetHistogram("rpc.rtt_ns").Reset();
}

double Bench::ForceP50Us() {
  // The engine keeps one histogram per node; weight each node's median by
  // its force count.
  double sum = 0, count = 0;
  for (NodeId id : cluster_->NodeIds()) {
    clog::HistogramStat s =
        cluster_->node(id)->metrics().HistogramValue("force.latency_ns");
    sum += s.p50 * static_cast<double>(s.count);
    count += static_cast<double>(s.count);
  }
  return count == 0 ? 0 : sum / count / 1e3;
}


Status Bench::RunOne(std::size_t session, const Txn& t, NodeId on, bool traced,
                     Samples* out, std::uint64_t* values) {
  const bool inc = in_.increments();
  Clock::time_point first_start{}, last_end{};
  bool started = false;
  auto body = [&](TxnHandle& txn) -> Status {
    ++out->attempts;
    if (traced) {
      last_end = Clock::now();
      if (!started) first_start = last_end;
      started = true;
    }
    for (int k = 0; k < kPicksPerTxn; ++k) {
      const Pick& p = t.picks[k];
      const RecordId rid = Rid(p);
      const bool remote = p.node != on;
      std::string value;
      if (inc) {
        const auto r0 = traced ? Clock::now() : Clock::time_point{};
        auto got = txn.Read(rid);
        if (traced && remote) {
          out->read_remote_ns.push_back(Ns(r0, Clock::now()));
        }
        CLOG_RETURN_IF_ERROR(got.status());
        std::uint64_t n = 0;
        if (!perfbench::DecodeNumber(got.value(), &n)) {
          return Status::Corruption("undecodable counter at " + rid.ToString());
        }
        values[k] = n + 1;
        value = EncodeValue(values[k], in_.init_pad);
      } else {
        values[k] = stamp_[session] * kPicksPerTxn + static_cast<unsigned>(k);
        value = EncodeValue(values[k], in_.session_pad[session]);
      }
      const auto u0 = traced ? Clock::now() : Clock::time_point{};
      Status st = txn.Update(rid, value);
      if (traced) {
        (remote ? out->update_remote_ns : out->update_local_ns)
            .push_back(Ns(u0, Clock::now()));
      }
      CLOG_RETURN_IF_ERROR(st);
    }
    if (traced) last_end = Clock::now();
    return Status::OK();
  };

  const auto c0 = Clock::now();
  Status st;
  do {
    st = cluster_->RunTransaction(on, body);
  } while (st.IsBusy() || st.IsDeadlock());
  const auto c1 = Clock::now();
  if (!st.ok()) {
    ++out->failed;
    return st;
  }
  ++out->commits;
  out->commit_ns.push_back(Ns(c0, c1));
  if (traced) {
    out->queue_ns.push_back(Ns(c0, first_start));
    out->commit_tail_ns.push_back(Ns(last_end, c1));
  }
  return st;
}

void Bench::Apply(std::size_t session, const Txn& t,
                  const std::uint64_t* values) {
  for (int k = 0; k < kPicksPerTxn; ++k) {
    const std::size_t rec = in_.Index(t.picks[k]);
    if (in_.increments()) {
      ++model_num_[rec];
    } else {
      model_str_[rec] = EncodeValue(values[k], in_.session_pad[session]);
    }
  }
  if (!in_.increments()) ++stamp_[session];
}

Samples Bench::CommitPhase(double seconds, std::size_t txn_limit, bool traced,
                           Counters* delta) {
  const std::size_t sessions = in_.stream.size();
  std::vector<Samples> per(sessions);
  std::vector<std::string> errors(sessions);
  std::mutex model_mu;  // The model is shared by the session threads.
  const Counters before = ReadCounters();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t i = 0;
           txn_limit != 0 ? i < txn_limit : Clock::now() < deadline; ++i) {
        const Txn& t = Next(s);
        std::uint64_t values[kPicksPerTxn] = {};
        Status st = RunOne(s, t, t.node, traced, &per[s], values);
        if (!st.ok()) {
          if (errors[s].empty()) errors[s] = st.ToString();
          continue;
        }
        std::lock_guard<std::mutex> lk(model_mu);
        Apply(s, t, values);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  Samples all;
  for (std::size_t s = 0; s < sessions; ++s) {
    all.Merge(per[s]);
    if (!errors[s].empty()) {
      std::fprintf(stderr, "session %zu: %s\n", s, errors[s].c_str());
    }
  }
  all.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  *delta = Minus(ReadCounters(), before);
  return all;
}

Bench::AuditResult Bench::Audit(const char* when) {
  const std::size_t per_node =
      static_cast<std::size_t>(in_.pages_per_node) * in_.records_per_page;
  std::vector<std::string> actual(in_.records());
  for (std::uint32_t n = 0; n < in_.nodes; ++n) {
    Status st;
    do {
      st = cluster_->RunTransaction(n, [&](TxnHandle& txn) -> Status {
        for (std::size_t i = 0; i < per_node; ++i) {
          const std::size_t rec = n * per_node + i;
          const Pick p{n, static_cast<std::uint32_t>(i / in_.records_per_page),
                       static_cast<std::uint32_t>(i % in_.records_per_page)};
          auto got = txn.Read(Rid(p));
          if (got.ok()) {
            actual[rec] = got.value();
          } else if (got.status().IsBusy() || got.status().IsDeadlock()) {
            return got.status();
          } else {
            // An unreadable record (a fenced page) is a wrong record.
            actual[rec] = "<" + got.status().ToString() + ">";
          }
        }
        return Status::OK();
      });
    } while (st.IsBusy() || st.IsDeadlock());
    Check(st, std::string("audit read ") + when);
  }
  std::vector<std::string> expected(in_.records());
  for (std::size_t r = 0; r < in_.records(); ++r) expected[r] = Expected(r);
  const perfbench::RecordAudit ra = perfbench::AuditRecords(expected, actual);
  if (ra.mismatched != 0) {
    std::fprintf(stderr, "record audit %s: %zu of %zu records wrong; first %zu "
                 "reads %s, model %s\n",
                 when, ra.mismatched, ra.checked, ra.first_bad,
                 actual[ra.first_bad].c_str(), expected[ra.first_bad].c_str());
  }
  AuditResult out;
  if (!in_.increments()) {
    out.wrong = ra.mismatched;
    return out;
  }
  std::vector<std::uint64_t> nums(actual.size());
  std::vector<bool> valid(actual.size());
  for (std::size_t r = 0; r < actual.size(); ++r) {
    std::uint64_t v = 0;
    valid[r] = perfbench::DecodeNumber(actual[r], &v);
    nums[r] = v;
    // A counter whose filler changed is wrong whatever its number.
    if (valid[r] && actual[r] != EncodeValue(v, in_.init_pad)) ++out.wrong;
  }
  const perfbench::CounterAudit ca =
      perfbench::AuditCounters(model_num_, nums, valid);
  out.missing = ca.missing;
  out.wrong += ca.extra + ca.bad_records;
  if (!ca.ok()) {
    std::fprintf(stderr,
                 "counter audit %s: expected sum %llu, read %llu: %llu "
                 "increments missing, %llu extra, %zu records unreadable\n",
                 when, static_cast<unsigned long long>(ca.expected_sum),
                 static_cast<unsigned long long>(ca.actual_sum),
                 static_cast<unsigned long long>(ca.missing),
                 static_cast<unsigned long long>(ca.extra), ca.bad_records);
  }
  return out;
}

std::size_t Bench::PoisonedPages() {
  std::size_t total = 0;
  for (NodeId id : cluster_->NodeIds()) {
    Check(cluster_->Execute(
              id, [&] { total += cluster_->node(id)->PoisonedPages().size(); }),
          "poison scan");
  }
  return total;
}

Cycle Bench::RestartCycle(bool loss, bool traced, Samples* batch,
                          Counters* delta) {
  Cycle c;
  c.loss = loss;
  // The batch: one client thread, each transaction on the node its inputs
  // name (round-robin in the restart workload).
  const Counters before = ReadCounters();
  const auto b0 = Clock::now();
  for (std::uint32_t i = 0; i < in_.cycle_txns; ++i) {
    const Txn& t = Next(0);
    std::uint64_t values[kPicksPerTxn] = {};
    Status st = RunOne(0, t, t.node, traced, batch, values);
    if (st.ok()) {
      Apply(0, t, values);
    } else {
      std::fprintf(stderr, "restart batch: %s\n", st.ToString().c_str());
    }
  }
  batch->wall_s += std::chrono::duration<double>(Clock::now() - b0).count();
  Add(delta, Minus(ReadCounters(), before));

  clog::Node* victim = cluster_->node(kVictim);
  clog::Metrics& m = victim->metrics();
  auto hist_sum = [&](const char* name) {
    return static_cast<double>(m.GetHistogram(name).sum());
  };
  const double a0 = hist_sum("recovery.analyze_ns"),
               e0 = hist_sum("recovery.exchange_ns"),
               r0 = hist_sum("recovery.redo_ns"),
               u0 = hist_sum("recovery.undo_ns");
  const std::uint64_t seed0 = m.CounterValue("recovery.pages_rebuilt_from_seed"),
                      plan0 = m.CounterValue("restore.pages_planned");

  const std::uint64_t read0 = LogRecordsRead();
  if (loss) {
    injector_->ArmDeviceFault(kVictim, clog::DeviceFault::kDestroyDataFile);
  }
  Check(cluster_->CrashNode(kVictim), "crash");
  const auto t0 = Clock::now();
  Status st = cluster_->RestartNode(kVictim);
  const auto t1 = Clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "restart failed: %s\n", st.ToString().c_str());
    c.ok = false;
    return c;
  }
  // The first commit on the restarted node.
  Samples probe;
  const Txn& t = Next(0);
  std::uint64_t values[kPicksPerTxn] = {};
  st = RunOne(0, t, kVictim, /*traced=*/false, &probe, values);
  const auto t2 = Clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "first commit failed: %s\n", st.ToString().c_str());
    c.ok = false;
    return c;
  }
  Apply(0, t, values);
  c.records_read = static_cast<double>(LogRecordsRead() - read0);
  c.restart_ms = static_cast<double>(Ns(t0, t1)) / 1e6;
  c.first_commit_ms = static_cast<double>(Ns(t0, t2)) / 1e6;

  c.analyze_ms = (hist_sum("recovery.analyze_ns") - a0) / 1e6;
  c.exchange_ms = (hist_sum("recovery.exchange_ns") - e0) / 1e6;
  c.redo_ms = (hist_sum("recovery.redo_ns") - r0) / 1e6;
  c.undo_ms = (hist_sum("recovery.undo_ns") - u0) / 1e6;
  const auto& rs = cluster_->recovery_stats().at(kVictim);
  c.redo_rounds = static_cast<double>(rs.redo_rounds);
  c.redo_applied = static_cast<double>(rs.redo_applied);
  c.analysis_records = static_cast<double>(rs.analysis_records);
  c.from_peer_cache = static_cast<double>(rs.own_pages_fetched);
  c.archive_restores = static_cast<double>(rs.archive_restores);
  c.rebuilt_from_seed = static_cast<double>(
      m.CounterValue("recovery.pages_rebuilt_from_seed") - seed0);
  c.pages_planned =
      static_cast<double>(m.CounterValue("restore.pages_planned") - plan0);

  const char* when = loss ? "after device-loss restart" : "after restart";
  const AuditResult audit = Audit(when);
  const std::size_t fenced = loss ? 0 : PoisonedPages();
  if (fenced != 0) {
    std::fprintf(stderr, "%zu pages fenced after a plain crash\n", fenced);
  }
  c.ok = audit.missing == 0 && audit.wrong == 0 && fenced == 0;
  return c;
}

// --- Reporting -------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    }
    std::printf("}}\n");
  }
};

double PerCommit(std::uint64_t n, std::uint64_t commits) {
  return commits == 0 ? 0
                      : static_cast<double>(n) / static_cast<double>(commits);
}

double Us(double ns) { return ns / 1e3; }

double Tps(const Samples& s) {
  return s.wall_s > 0 ? static_cast<double>(s.commits) / s.wall_s : 0;
}

// `plain` is the untraced share of the trace run's commits, `s` the traced.
void AddCommitPathLayers(Report* r, const Samples& plain, const Samples& s,
                         const Counters& d, double force_p50_us,
                         double rtt_p50_us) {
  r->Add("core.commit_tps", Tps(plain), "1/s");
  r->Add("core.commit_p50_us", Us(P(plain.commit_ns, 0.5)), "us");
  r->Add("core.commit_p99_us", Us(P(plain.commit_ns, 0.99)), "us");
  r->Add("core.queue_p50_us", Us(P(s.queue_ns, 0.5)), "us");
  r->Add("core.attempts_per_commit", PerCommit(s.attempts, s.commits),
         "count");
  r->Add("node.update_local_p50_us", Us(P(s.update_local_ns, 0.5)), "us");
  r->Add("node.update_remote_p50_us", Us(P(s.update_remote_ns, 0.5)), "us");
  r->Add("node.read_remote_p50_us", Us(P(s.read_remote_ns, 0.5)), "us");
  r->Add("node.commit_p50_us", Us(P(s.commit_tail_ns, 0.5)), "us");
  r->Add("wal.forces_per_commit", PerCommit(d.forces, s.commits), "count");
  r->Add("wal.force_p50_us", force_p50_us, "us");
  r->Add("net.msgs_per_commit", PerCommit(d.msgs, s.commits), "count");
  r->Add("net.bytes_per_commit", PerCommit(d.bytes, s.commits), "bytes");
  r->Add("net.rpc_rtt_p50_us", rtt_p50_us, "us");
  r->Add("lock.callbacks_per_commit", PerCommit(d.callbacks, s.commits),
         "count");
  r->Add("lock.grants_per_commit", PerCommit(d.grants, s.commits), "count");
  // The network counts bytes, not page images: payload beyond the 32-byte
  // envelope of each message, in pages. Page images dominate that payload.
  const std::uint64_t payload =
      d.bytes > 32 * d.msgs ? d.bytes - 32 * d.msgs : 0;
  r->Add("buffer.pages_shipped_per_commit",
         PerCommit(payload, s.commits) / static_cast<double>(clog::kPageSize),
         "count");
  r->Add("storage.page_writes_per_commit", PerCommit(d.page_writes, s.commits),
         "count");
}

// One field of the plain and of the device-loss cycles.
std::pair<std::vector<double>, std::vector<double>> PlainAndLoss(
    const std::vector<Cycle>& cycles, double Cycle::*f) {
  std::pair<std::vector<double>, std::vector<double>> out;
  for (const Cycle& c : cycles) (c.loss ? out.second : out.first).push_back(c.*f);
  return out;
}

void AddRecoveryLayers(Report* r, const std::vector<Cycle>& cycles) {
  r->Add("core.restart_ms",
         Median(PlainAndLoss(cycles, &Cycle::restart_ms).first), "ms");
  r->Add("core.loss_first_commit_ms",
         Median(PlainAndLoss(cycles, &Cycle::first_commit_ms).second), "ms");
  auto med = [&](double Cycle::*f) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(c.*f);
    return Median(v);
  };
  auto mean = [&](double Cycle::*f) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(c.*f);
    return Mean(v);
  };
  r->Add("recovery.analyze_ms", med(&Cycle::analyze_ms), "ms");
  r->Add("recovery.exchange_ms", med(&Cycle::exchange_ms), "ms");
  r->Add("recovery.redo_ms", med(&Cycle::redo_ms), "ms");
  r->Add("recovery.undo_ms", med(&Cycle::undo_ms), "ms");
  r->Add("recovery.redo_rounds", mean(&Cycle::redo_rounds), "count");
  r->Add("recovery.redo_applied", mean(&Cycle::redo_applied), "count");
  r->Add("recovery.analysis_records", mean(&Cycle::analysis_records), "count");
  r->Add("recovery.pages_from_peer_cache", mean(&Cycle::from_peer_cache),
         "count");
  r->Add("recovery.archive_restores", mean(&Cycle::archive_restores), "count");
  r->Add("recovery.pages_rebuilt_from_seed", mean(&Cycle::rebuilt_from_seed),
         "count");
  r->Add("restore.pages_planned", mean(&Cycle::pages_planned), "count");
}

void AddEndToEnd(Report* r, double setup_s, const Samples& s,
                 const Counters& d, const std::vector<Cycle>& cycles) {
  // Means, not medians: the count of a restart moves in steps of whole
  // log scans, and a median of a few such values jumps between them.
  const auto [restart_read, loss_read] =
      PlainAndLoss(cycles, &Cycle::records_read);
  r->Add("setup_s", setup_s, "s");
  r->Add("forces_per_commit", PerCommit(d.forces, s.commits), "count");
  r->Add("log_bytes_per_commit", PerCommit(d.log_bytes, s.commits), "bytes");
  r->Add("restart_records_read", Mean(restart_read), "count");
  r->Add("loss_records_read", Mean(loss_read), "count");
}

struct Args {
  std::string workload, inputs, dir;
  double seconds = 10;
  bool trace = false;
  bool instant_restore = false;
};

int RunWorkload(const Args& a) {
  Inputs in = LoadInputs(a.inputs);
  if (in.workload != a.workload) Die("inputs are for " + in.workload);
  const bool restart = a.workload == "restart";
  if (!restart && a.workload != "local_commit" &&
      a.workload != "shared_pages") {
    Die("unknown workload " + a.workload);
  }
  if (in.cycle_txns == 0) Die("inputs need cycle_txns");
  Bench b(std::move(in), a.dir, a.instant_restore);

  // setup_s is the median of kSetups set-ups before the workload (the last
  // one is the cluster it starts on) and kSetups after it. Set-up is
  // dominated by synced metadata writes, whose cost on a shared disk moves
  // from minute to minute; sampling both ends of the run follows that
  // better than one moment does. The set-ups of restart rounds are not
  // timed: they would weight setup_s by how many rounds fit in the run.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(b.SetUp());

  Report r;
  Samples s;      // Commit samples the reported figures come from.
  Counters d;     // Engine counters over the same transactions.
  Samples plain;  // Trace run: the untraced commits, for the overhead.
  std::vector<Cycle> cycles;  // The restart cycles the metrics come from.
  std::vector<double> force_p50, rtt_p50;

  // Runs one restart cycle and books it as one operation; false once the
  // cluster is unusable.
  auto cycle = [&](bool loss, bool traced, bool measured, Samples* batch,
                   Counters* cd) {
    const Cycle c = b.RestartCycle(loss, traced, batch, cd);
    if (measured) cycles.push_back(c);
    ++r.attempted;
    if (c.ok) return true;
    ++r.failed;
    return c.restart_ms != 0;
  };

  if (!restart) {
    // Restart figures from a history of fixed length, so that they neither
    // grow with the timed phase's throughput nor vary with its
    // interleavings: on the fresh cluster, a plain and a device-loss cycle,
    // each after cycle_txns transactions of session 0 from this thread.
    // Each cycle is one operation. A cycle that leaves the cluster unusable
    // is failed, and the timed phase runs on a fresh one.
    {
      Samples unused;
      Counters unused_d;
      if (!cycle(false, false, true, &unused, &unused_d) ||
          !cycle(true, false, true, &unused, &unused_d)) {
        b.SetUp();
      }
    }
    Counters warm;
    b.CommitPhase(0, b.inputs().warmup_txns, false, &warm);
    Counters all;  // Every slice of the timed phase, traced or not.
    if (a.trace) {
      // Untraced and traced slices alternate, so that drift in the machine
      // shows in both halves of the overhead comparison alike.
      b.ResetHistograms();
      for (int i = 0; i < 2 * kTraceSlicePairs; ++i) {
        const bool traced = i % 2 == 1;
        Counters cd;
        (traced ? s : plain)
            .Merge(b.CommitPhase(a.seconds / (2 * kTraceSlicePairs), 0,
                                 traced, &cd));
        if (traced) Add(&d, cd);
        Add(&all, cd);
      }
      force_p50.push_back(b.ForceP50Us());
      rtt_p50.push_back(b.RttP50Us());
    } else {
      s = b.CommitPhase(a.seconds, 0, false, &d);
      all = d;
    }
    if (a.workload == "local_commit" && all.msgs != 0) {
      // The paper's local commit sends nothing; a message here is a fault.
      std::fprintf(stderr, "local commit sent %llu messages\n",
                   static_cast<unsigned long long>(all.msgs));
      r.correct = false;
    }
    const Bench::AuditResult audit = b.Audit("after the commit phase");
    // An operation is a transaction in local_commit and an increment in
    // shared_pages; a missing increment is a failed one (a lost update),
    // anything else the audit finds is a wrong answer.
    const std::uint64_t per_op =
        b.inputs().increments() ? kPicksPerTxn : 1;
    r.attempted +=
        (s.commits + s.failed + plain.commits + plain.failed) * per_op;
    r.failed += (s.failed + plain.failed) * per_op + audit.missing;
    if (audit.wrong != 0) r.correct = false;
  } else {
    // Whole rounds until the time is up, each on a fresh cluster and on the
    // next stretch of the input stream: a warm-up plain/loss pair, which
    // restarts a freshly populated node (every page still dirty) and is
    // audited but not measured, then kCyclePairs measured pairs. In a trace
    // run every other measured pair is traced.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    bool usable = true;
    for (int round = 0; usable && (round == 0 || Clock::now() < deadline);
         ++round) {
      if (round > 0) b.SetUp();
      for (int c = 0; usable && c < 2 * (kCyclePairs + 1); ++c) {
        const int pair = c / 2;  // 0 is the warm-up.
        const bool traced = a.trace && pair != 0 && pair % 2 == 0;
        Samples warmup;
        Samples* batch = pair == 0 ? &warmup : traced || !a.trace ? &s : &plain;
        Counters cd;
        if (traced) b.ResetHistograms();
        usable = cycle(c % 2 == 1, traced, pair != 0, batch, &cd);
        if (pair != 0 && (traced || !a.trace)) Add(&d, cd);
        if (traced) {
          force_p50.push_back(b.ForceP50Us());
          rtt_p50.push_back(b.RttP50Us());
        }
      }
    }
  }
  for (int i = 0; i < kSetups; ++i) setups.push_back(b.SetUp());
  const double setup_s = Median(setups);

  if (a.trace) {
    AddCommitPathLayers(&r, plain, s, d, Median(force_p50), Median(rtt_p50));
    AddRecoveryLayers(&r, cycles);
    const double base = Tps(plain);
    r.Add("trace.overhead_pct", base > 0 ? (base - Tps(s)) / base * 100 : 0,
          "%");
  } else {
    AddEndToEnd(&r, setup_s, s, d, cycles);
  }
  std::fprintf(stderr,
               "%s: %llu commits in %.2f s, %llu attempts, setups %s s\n",
               a.workload.c_str(), static_cast<unsigned long long>(s.commits),
               s.wall_s, static_cast<unsigned long long>(s.attempts),
               [&] {
                 std::string out;
                 for (double x : setups) out += std::to_string(x) + " ";
                 return out;
               }()
                   .c_str());
  for (const Cycle& c : cycles) {
    std::fprintf(stderr,
                 "  cycle %s: restart %.1f ms, first commit %.1f ms "
                 "(analyze %.1f exchange %.1f redo %.1f undo %.1f), "
                 "%.0f log records read%s\n",
                 c.loss ? "loss " : "plain", c.restart_ms, c.first_commit_ms,
                 c.analyze_ms, c.exchange_ms, c.redo_ms, c.undo_ms,
                 c.records_read,
                 c.ok ? "" : " FAILED");
  }
  r.Print();
  return 0;
}

// --- Self-tests of the checks ----------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Counter audit: a planted dropped increment must be caught, and must
  // not be cancelled by an extra one on another counter.
  {
    const std::vector<std::uint64_t> model = {10, 11, 12, 13};
    const std::vector<bool> valid(4, true);
    expect(perfbench::AuditCounters(model, model, valid).ok(),
           "counter audit accepts matching counters");
    std::vector<std::uint64_t> dropped = model;
    dropped[2] -= 1;
    perfbench::CounterAudit ca =
        perfbench::AuditCounters(model, dropped, valid);
    expect(!ca.ok() && ca.missing == 1 && ca.extra == 0,
           "counter audit rejects one dropped increment");
    std::vector<std::uint64_t> moved = dropped;
    moved[0] += 1;  // Same sum, wrong counters.
    ca = perfbench::AuditCounters(model, moved, valid);
    expect(!ca.ok() && ca.missing == 1 && ca.extra == 1 &&
               ca.expected_sum == ca.actual_sum,
           "counter audit rejects a lost increment hidden by an extra one");
    std::vector<bool> unreadable = valid;
    unreadable[1] = false;
    expect(!perfbench::AuditCounters(model, model, unreadable).ok(),
           "counter audit rejects an unreadable counter");
  }

  // Record audit: a planted stale value must be caught.
  {
    const std::vector<std::string> model = {EncodeValue(7, "aa"),
                                            EncodeValue(9, "bb")};
    expect(perfbench::AuditRecords(model, model).mismatched == 0,
           "record audit accepts matching records");
    std::vector<std::string> stale = model;
    stale[1] = EncodeValue(8, "bb");
    const perfbench::RecordAudit ra = perfbench::AuditRecords(model, stale);
    expect(ra.mismatched == 1 && ra.first_bad == 1,
           "record audit rejects a stale value");
    std::vector<std::string> short_read = {model[0]};
    expect(perfbench::AuditRecords(model, short_read).mismatched == 1,
           "record audit rejects a missing record");
    std::uint64_t n = 0;
    expect(perfbench::DecodeNumber(EncodeValue(12345, "pad"), &n) && n == 12345,
           "values round-trip through the encoding");
    expect(!perfbench::DecodeNumber("12345", &n),
           "a value of the wrong size does not decode");
  }

  // Nearest-rank quantile against hand-computed ranks.
  {
    const std::vector<std::uint64_t> five = {15, 20, 35, 40, 50};
    expect(perfbench::NearestRank(five, 0.05) == 15, "p5 of 5 samples");
    expect(perfbench::NearestRank(five, 0.30) == 20, "p30 of 5 samples");
    expect(perfbench::NearestRank(five, 0.40) == 20, "p40 of 5 samples");
    expect(perfbench::NearestRank(five, 0.50) == 35, "p50 of 5 samples");
    expect(perfbench::NearestRank(five, 1.00) == 50, "p100 of 5 samples");
    std::vector<std::uint64_t> hundred;
    for (std::uint64_t i = 1; i <= 100; ++i) hundred.push_back(i);
    expect(perfbench::NearestRank(hundred, 0.50) == 50, "p50 of 1..100");
    expect(perfbench::NearestRank(hundred, 0.99) == 99, "p99 of 1..100");
    expect(perfbench::NearestRank({}, 0.5) == 0, "no samples reads 0");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--inputs") {
      a.inputs = value();
    } else if (arg == "--dir") {
      a.dir = value();
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--instant-restore") {
      a.instant_restore = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (selftest) return SelfTest();
  if (a.workload.empty() || a.inputs.empty() || a.dir.empty() ||
      a.seconds <= 0) {
    Die("usage: clogbench --workload W --inputs FILE --dir DIR --seconds S "
        "--trace 0|1 [--instant-restore] | --selftest");
  }
  return RunWorkload(a);
}
