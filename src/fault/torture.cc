#include "fault/torture.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "net/message.h"
#include "recovery/node_psn_list.h"
#include "trace/trace_export.h"
#include "trace/trace_sink.h"
#include "wal/log_reader.h"

namespace clog {
namespace {

// ---------------------------------------------------------------------------
// Schedule hashing: incremental FNV-1a64 over the event strings. Events never
// contain filesystem paths or addresses, so hashes are stable across machines.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  h ^= '\n';
  h *= kFnvPrime;
  return h;
}

std::string OptStr(const std::optional<std::string>& v) {
  return v ? "\"" + *v + "\"" : "<absent>";
}

/// One record's role in an in-flight transaction: the committed value before
/// the transaction and the value it will have if the commit lands. For an
/// insert `prior` is absent; for a delete `staged` is absent.
struct StagedWrite {
  RecordId rid;
  std::optional<std::string> prior;
  std::optional<std::string> staged;
};

/// A transaction whose Commit() returned an error while faults were live:
/// its commit record may or may not have reached the durable log, so the
/// model cannot say which state is correct until the node restarts and
/// recovery decides. Resolved (all-or-nothing) at the next full restart.
struct PendingTxn {
  NodeId node = kInvalidNodeId;
  std::vector<StagedWrite> writes;
};

/// Group commit: a transaction whose CommitRequest parked. Not yet
/// acknowledged — the model treats its records as indeterminate until the
/// node's shared force completes it (ack) or its node crashes while it is
/// parked (becomes a PendingTxn, resolved at restart like any commit
/// interrupted mid-force).
struct ParkedTxn {
  NodeId node = kInvalidNodeId;
  TxnId txn = kInvalidTxnId;
  std::vector<StagedWrite> writes;
};

// ---------------------------------------------------------------------------
// TortureRun: one seeded schedule, start to verdict.
// ---------------------------------------------------------------------------

class TortureRun {
 public:
  explicit TortureRun(const TortureOptions& options)
      : options_(options),
        rng_(options.seed),
        injector_(options.seed),
        trace_(options.trace_events_per_node) {}

  ~TortureRun() {
    cluster_.reset();  // Close files before removing the directory.
    if (owns_dir_ && !dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  TortureReport Run() {
    report_.seed = options_.seed;
    Setup();
    if (failure_.empty()) {
      for (int step = 0; step < options_.steps && failure_.empty(); ++step) {
        Step(step);
      }
    }
    if (failure_.empty()) FinalPhase();
    Finish();
    report_.page_digest = PageDigest();
    return std::move(report_);
  }

 private:
  // --- Bookkeeping ------------------------------------------------------

  void Event(const std::string& s) {
    hash_ = FnvMix(hash_, s);
    if (options_.keep_events) report_.events.push_back(s);
  }

  void Fail(const std::string& msg) {
    if (failure_.empty()) failure_ = msg;
    Event("FAIL " + msg);
  }

  void Finish() {
    report_.ok = failure_.empty();
    report_.failure = failure_;
    report_.schedule_hash = hash_;
    report_.trace_hash = trace_.Hash();
    if (!failure_.empty()) {
      TraceFormatOptions fmt;
      fmt.msg_name = [](std::uint32_t t) {
        return MsgTypeName(static_cast<MsgType>(t));
      };
      report_.trace_tail = FormatTrace(trace_, /*tail=*/32, fmt);
    }
    report_.faults = injector_.counters();
    if (cluster_ != nullptr) {
      const Metrics& m = cluster_->network().metrics();
      report_.rpc_retries = m.CounterValue("rpc.retries");
      report_.rpc_retry_success = m.CounterValue("rpc.retry_success");
      report_.rpc_retry_exhausted = m.CounterValue("rpc.retry_exhausted");
      report_.hb_probes = m.CounterValue("hb.probes");
      report_.restore_planned = cluster_->SumCounter("restore.pages_planned");
      report_.restore_from_peer =
          cluster_->SumCounter("restore.pages_from_peer");
      report_.restore_from_archive =
          cluster_->SumCounter("restore.pages_from_archive");
      report_.restore_from_seed =
          cluster_->SumCounter("restore.pages_from_seed");
      report_.restore_already_durable =
          cluster_->SumCounter("restore.pages_already_durable");
      report_.remote_pages_recovered =
          cluster_->SumCounter("recovery.remote_pages_recovered");
    }
  }

  /// FNV-1a64 over the bytes of every node's data file, in node-id order.
  /// Reads the files directly — not through the fault injector or the
  /// trace sink — so computing it moves neither schedule nor trace hash.
  std::uint64_t PageDigest() const {
    std::map<std::uint64_t, std::filesystem::path> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0 || name.size() == 4) continue;
      const auto db = entry.path() / "node.db";
      if (std::filesystem::exists(db, ec)) {
        files[std::strtoull(name.c_str() + 4, nullptr, 10)] = db;
      }
    }
    std::uint64_t h = kFnvOffset;
    for (const auto& [id, path] : files) {
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      h = FnvMix(h, "node" + std::to_string(id));
      h = FnvMix(h, bytes);
    }
    return h;
  }

  std::string NextValue() { return "v" + std::to_string(++value_seq_); }

  std::optional<std::string> ModelValue(RecordId rid) const {
    auto it = model_.find(rid);
    return it == model_.end() ? std::nullopt : it->second;
  }

  bool InPending(RecordId rid) const {
    for (const PendingTxn& p : pending_) {
      for (const StagedWrite& w : p.writes) {
        if (w.rid == rid) return true;
      }
    }
    // Parked group commits are indeterminate too: an absorbed force on
    // their node can complete them at any moment between our polls, so
    // the model cannot pin their records' values until the ack.
    for (const ParkedTxn& p : parked_) {
      for (const StagedWrite& w : p.writes) {
        if (w.rid == rid) return true;
      }
    }
    return false;
  }

  /// The model cannot pin this record's value: its commit is in flight
  /// (pending/parked), its page is currently fenced as unrecoverable, or a
  /// media failure swallowed the only evidence of an indeterminate commit
  /// touching it (cursed — unverifiable forever). Healthy-mode schedules
  /// never populate the latter two sets, so this reduces to InPending.
  bool Unverifiable(RecordId rid) const {
    return InPending(rid) || poisoned_.contains(rid.page) ||
           cursed_.contains(rid);
  }

  /// Media machinery live this run: media-failure mode, or the
  /// instant-restore hammer (media plus on-demand rebuild on every node).
  bool MediaMode() const {
    return options_.media_failure || options_.hammer_restore;
  }

  /// Re-reads every up node's poison ledger into the harness's view of the
  /// fenced-page set. Call only when all nodes are up (post-restart), so a
  /// down node's ledger can't silently drop out. Emits a deterministic
  /// event per transition so poison verdicts are part of the schedule hash.
  void HarvestPoison() {
    if (!MediaMode()) return;
    std::set<PageId> now;
    for (NodeId id : cluster_->NodeIds()) {
      Node* n = cluster_->node(id);
      if (n == nullptr || n->state() != NodeState::kUp) continue;
      for (PageId pid : n->PoisonedPages()) now.insert(pid);
    }
    for (PageId pid : now) {
      if (!poisoned_.contains(pid)) Event("poison " + pid.ToString());
    }
    for (PageId pid : poisoned_) {
      if (!now.contains(pid)) Event("unpoison " + pid.ToString());
    }
    poisoned_ = std::move(now);
    report_.pages_poisoned = poisoned_.size();
  }

  std::vector<NodeId> UpNodes() const {
    std::vector<NodeId> up;
    for (NodeId id : cluster_->NodeIds()) {
      Node* n = const_cast<Cluster*>(cluster_.get())->node(id);
      if (n != nullptr && n->state() == NodeState::kUp) up.push_back(id);
    }
    return up;
  }

  NodeId RandomUpNode() {
    std::vector<NodeId> up = UpNodes();
    return up[rng_.Uniform(up.size())];
  }

  RecordId RandomRid() { return rids_[rng_.Uniform(rids_.size())]; }

  void CrashActor(NodeId id, const char* why) {
    Node* n = cluster_->node(id);
    if (n == nullptr || n->state() != NodeState::kUp) return;
    // An abrupt crash discards this node's unforced log tail. A page it
    // holds dirty whose newest records sit in that tail (an abort's update
    // and CLR force nothing) can legally resurface at a lower PSN — no
    // committed update rode on those records. Forget such pages'
    // never-regress watermarks; the next sighting re-seeds them. (This
    // also forgets any durable floor the page had earlier — acceptable:
    // the alternative is a false regression alarm on legal loser-state
    // loss, and the model value checks still cover committed data.)
    for (PageId pid : pages_) {
      const Page* p = n->pool().Peek(pid);
      if (p != nullptr && n->pool().IsDirty(pid) &&
          p->page_lsn() >= n->log().flushed_lsn()) {
        watermark_.erase(pid);
      }
    }
    Status st = cluster_->CrashNode(id);
    if (!st.ok()) {
      Fail("CrashNode(" + std::to_string(id) + "): " + st.ToString());
      return;
    }
    ++report_.crashes;
    Event("crash node=" + std::to_string(id) + " why=" + why);
  }

  // --- Setup ------------------------------------------------------------

  void Setup() {
    if (options_.scratch_dir.empty()) {
      std::string tmpl = "/tmp/clog_torture_XXXXXX";
      std::vector<char> buf(tmpl.begin(), tmpl.end());
      buf.push_back('\0');
      if (::mkdtemp(buf.data()) == nullptr) {
        Fail("mkdtemp failed");
        return;
      }
      dir_ = buf.data();
      owns_dir_ = true;
    } else {
      dir_ = options_.scratch_dir;
    }

    // The fault mix this seed runs under. Every seed tolerates crashes and
    // torn log tails; richer mixes add message faults, armed I/O faults,
    // and partitions.
    FaultConfig cfg;
    int mix = static_cast<int>(rng_.Uniform(4));
    cfg.torn_tail_p = 0.4;
    if (mix >= 1) {
      cfg.net_drop_p = 0.02;
      cfg.net_delay_p = 0.05;
      cfg.net_duplicate_p = 0.05;
    }
    use_io_faults_ = mix >= 2;
    use_partitions_ = mix == 3;
    injector_.set_config(cfg);
    injector_.set_enabled(false);  // Quiet while the cluster is built.
    Event("mix=" + std::to_string(mix));

    ClusterOptions copts;
    copts.dir = dir_;
    copts.fault_injector = &injector_;
    copts.trace_sink = &trace_;
    // A pool smaller than the working set keeps pages bouncing through the
    // eviction/ship/force paths, where most of the interesting fault
    // interactions (torn and failed page writes included) live.
    copts.node_defaults.buffer_frames = 4;
    // The availability envelope runs hot in every schedule: transient drops
    // get retried behind the admission layer, and recovering owners park
    // requests instead of bouncing them. The jitter stream is derived from
    // the schedule seed so replays stay bit-identical.
    copts.retry_policy.enabled = true;
    copts.retry_policy.jitter_seed = options_.seed ^ 0xC10CBEEFull;
    if (options_.group_commit) {
      copts.logging_policy.WithGroupCommitWindow(2'000'000, 4);
      Event("group-commit on");
    }
    if (options_.adaptive) {
      // Strategy-mix schedules: the cluster default is adaptive (DoTxn
      // overrides a seeded fraction back to physical). Two redo workers
      // keep the real-mode pool path honest; the simulation replays the
      // chains sequentially either way.
      copts.logging_policy.WithStrategy(LogStrategy::kAdaptive)
          .WithRedoWorkers(2);
      Event("adaptive on");
    }
    if (MediaMode()) {
      // Media schedules run with the archive at its most aggressive
      // cadence so device losses land on pages with fresh base images.
      copts.logging_policy.WithArchiveEvery(1);
      Event("media-failure on");
    }
    if (options_.hammer_restore) {
      // Hammer: data-device losses defer their rebuilds to instant restore
      // instead of recovering eagerly; the step loop sweeps one page per
      // node per step so the backlog drains while the workload keeps
      // landing on half-restored nodes.
      copts.node_defaults.instant_restore.enabled = true;
      copts.node_defaults.instant_restore.sweep_batch = 1;
      Event("hammer-restore on");
    }
    cluster_ = std::make_unique<Cluster>(copts);

    for (int i = 0; i < options_.num_nodes; ++i) {
      Result<Node*> added = cluster_->AddNode();
      if (!added.ok()) {
        Fail("AddNode: " + added.status().ToString());
        return;
      }
    }

    // Seed data: every node owns `pages_per_node` pages, each preloaded
    // with `records_per_page` committed records.
    for (NodeId id : cluster_->NodeIds()) {
      Node* n = cluster_->node(id);
      for (int p = 0; p < options_.pages_per_node; ++p) {
        Result<PageId> pid = n->AllocatePage();
        if (!pid.ok()) {
          Fail("AllocatePage: " + pid.status().ToString());
          return;
        }
        pages_.push_back(*pid);
        Result<TxnId> txn = n->Begin();
        if (!txn.ok()) {
          Fail("seed Begin: " + txn.status().ToString());
          return;
        }
        for (int r = 0; r < options_.records_per_page; ++r) {
          std::string val = NextValue();
          Result<RecordId> rid = n->Insert(*txn, *pid, val);
          if (!rid.ok()) {
            Fail("seed Insert: " + rid.status().ToString());
            return;
          }
          model_[*rid] = val;
          rids_.push_back(*rid);
          known_.insert(*rid);
        }
        Status st = n->Commit(*txn);
        if (!st.ok()) {
          Fail("seed Commit: " + st.ToString());
          return;
        }
      }
    }
    // Media mode: checkpoint every node once before faults go live, so a
    // durable log mark and a first sealed archive pass exist before any
    // device can be lost.
    if (MediaMode()) {
      for (NodeId id : cluster_->NodeIds()) {
        Status st = cluster_->node(id)->Checkpoint();
        if (!st.ok()) {
          Fail("seed Checkpoint: " + st.ToString());
          return;
        }
      }
    }
    Event("setup nodes=" + std::to_string(options_.num_nodes) +
          " pages=" + std::to_string(pages_.size()) +
          " records=" + std::to_string(rids_.size()));
    injector_.set_enabled(true);
  }

  // --- The step loop ----------------------------------------------------

  void Step(int step) {
    // Fail-stop: a node whose armed I/O fault fired must not keep running
    // on a device that lied to it (the PostgreSQL fsync lesson).
    for (NodeId id : injector_.TakeFiredNodes()) {
      CrashActor(id, "io-fault-fired");
      if (!failure_.empty()) return;
    }
    PollParked();
    if (!failure_.empty()) return;
    if (UpNodes().empty()) {
      Event("step=" + std::to_string(step) + " all-down");
      DoRestartAll();
      if (!failure_.empty()) return;
    }
    // Hammer mode: the background sweeper's stand-in — one page per up
    // node per step (no RNG draw), so rebuilds interleave with the
    // workload instead of the backlog draining in one burst.
    if (options_.hammer_restore) {
      for (NodeId id : UpNodes()) cluster_->node(id)->SweepRestore(1);
    }
    // Elastic mode: membership churn rides on top of the normal step mix.
    // The extra RNG draws happen only when the mode is on, so every
    // non-elastic schedule's stream — and hash — is byte-identical to a
    // build without the subsystem.
    if (options_.elastic && rng_.Uniform(100) < 12) {
      DoElasticOp(step);
      if (!failure_.empty()) return;
    }

    std::uint64_t dice = rng_.Uniform(100);
    if (dice < 42) {
      DoTxn(step);
    } else if (dice < 54) {
      DoRead(step);
    } else if (dice < 64) {
      DoCrash(step);
    } else if (dice < 74) {
      DoRestartAll();
    } else if (dice < 82) {
      if (use_partitions_) {
        DoPartition(step);
      } else {
        DoTxn(step);
      }
    } else if (dice < 90) {
      if (use_io_faults_) {
        DoArmIoFault(step);
      } else {
        DoCheckpoint(step);
      }
    } else if (dice < 95) {
      DoFlush(step);
    } else {
      DoCheckpoint(step);
    }
    if (!failure_.empty()) return;

    for (NodeId id : UpNodes()) {
      Status st = cluster_->node(id)->CheckInvariants(false);
      if (!st.ok()) {
        Fail("step=" + std::to_string(step) + " node=" + std::to_string(id) +
             " invariants: " + st.ToString());
        return;
      }
    }
  }

  void DoTxn(int step) {
    NodeId actor = RandomUpNode();
    Node* n = cluster_->node(actor);
    // Strategy mix (adaptive mode only, so other schedules keep their RNG
    // stream byte-identical): roughly a third of the transactions force
    // physical records, the rest inherit the cluster's adaptive default.
    // Physical and logical records from concurrent transactions then
    // interleave on the same pages, which is where upgrade, backfill, and
    // skip classification earn their keep.
    TxnOptions topts;
    if (options_.adaptive && rng_.Uniform(100) < 35) {
      topts.strategy = LogStrategy::kPhysical;
    }
    Result<TxnId> begun = n->Begin(topts);
    if (!begun.ok()) {
      Event("txn node=" + std::to_string(actor) + " begin-failed");
      return;
    }
    if (options_.adaptive && !topts.strategy.has_value()) {
      ++report_.txns_adaptive;
    }
    TxnId txn = *begun;
    // rid -> (value before this txn, value if this txn commits).
    std::map<RecordId,
             std::pair<std::optional<std::string>, std::optional<std::string>>>
        staged;
    auto prior_of = [&](RecordId rid) {
      auto it = staged.find(rid);
      return it != staged.end() ? it->second.first : ModelValue(rid);
    };
    auto expected_of = [&](RecordId rid) {
      auto it = staged.find(rid);
      return it != staged.end() ? it->second.second : ModelValue(rid);
    };

    bool gave_up = false;
    int nops = 1 + static_cast<int>(rng_.Uniform(3));
    int done = 0;
    for (int op = 0; op < nops; ++op) {
      std::uint64_t kind = rng_.Uniform(100);
      if (kind < 55) {  // Update.
        RecordId rid = RandomRid();
        std::string val = NextValue();
        Status st = n->Update(txn, rid, val);
        if (st.IsNotFound()) {
          // Deleted record; a legal no-op pick unless the model disagrees.
          if (expected_of(rid).has_value() && !Unverifiable(rid)) {
            Fail("update lost record " + rid.ToString() + " expected " +
                 OptStr(expected_of(rid)));
            break;
          }
          continue;
        }
        if (!st.ok()) {
          gave_up = true;
          break;
        }
        if (!expected_of(rid).has_value()) {
          Fail("update succeeded on deleted record " + rid.ToString());
          break;
        }
        staged[rid] = {prior_of(rid), val};
        ++done;
      } else if (kind < 70) {  // Insert.
        PageId pid = pages_[rng_.Uniform(pages_.size())];
        std::string val = NextValue();
        Result<RecordId> rid = n->Insert(txn, pid, val);
        if (!rid.ok()) {
          gave_up = true;
          break;
        }
        staged[*rid] = {prior_of(*rid), val};
        ++done;
      } else if (kind < 85) {  // Delete.
        RecordId rid = RandomRid();
        Status st = n->Delete(txn, rid);
        if (st.IsNotFound()) {
          if (expected_of(rid).has_value() && !Unverifiable(rid)) {
            Fail("delete lost record " + rid.ToString());
            break;
          }
          continue;
        }
        if (!st.ok()) {
          gave_up = true;
          break;
        }
        if (!expected_of(rid).has_value()) {
          Fail("delete succeeded on deleted record " + rid.ToString());
          break;
        }
        staged[rid] = {prior_of(rid), std::nullopt};
        ++done;
      } else {  // Read (checked against the model + this txn's writes).
        RecordId rid = RandomRid();
        if (Unverifiable(rid)) continue;  // Indeterminate until next restart.
        Result<std::string> got = n->Read(txn, rid);
        std::optional<std::string> expected = expected_of(rid);
        if (got.ok()) {
          if (!expected || *expected != *got) {
            Fail("txn read mismatch " + rid.ToString() + " got \"" + *got +
                 "\" expected " + OptStr(expected));
            break;
          }
          ++report_.reads_checked;
        } else if (got.status().IsNotFound()) {
          if (expected) {
            Fail("txn read lost record " + rid.ToString() + " expected " +
                 OptStr(expected));
            break;
          }
          ++report_.reads_checked;
        } else {
          gave_up = true;
          break;
        }
      }
    }
    if (!failure_.empty()) {
      (void)n->Abort(txn);
      return;
    }

    if (gave_up || staged.empty()) {
      Status ab = n->Abort(txn);
      ++report_.txns_aborted;
      Event("txn step=" + std::to_string(step) +
            " node=" + std::to_string(actor) + " aborted ops=" +
            std::to_string(done));
      if (!ab.ok()) CrashActor(actor, "abort-failed");
      return;
    }

    // Sometimes die with the transaction still open: recovery must undo it.
    if (rng_.Uniform(100) < 8) {
      Event("txn step=" + std::to_string(step) +
            " node=" + std::to_string(actor) + " midcrash ops=" +
            std::to_string(done));
      CrashActor(actor, "mid-txn");
      return;
    }

    Status cs;
    if (options_.group_commit) {
      Result<bool> durable = n->CommitRequest(txn);
      cs = durable.status();
      if (cs.ok() && !*durable) {
        // Parked: not yet acknowledged. The model holds its records
        // indeterminate (InPending) until PollParked sees the ack.
        ParkedTxn parked;
        parked.node = actor;
        parked.txn = txn;
        for (const auto& [rid, vals] : staged) {
          parked.writes.push_back(StagedWrite{rid, vals.first, vals.second});
        }
        parked_.push_back(std::move(parked));
        ++report_.txns_parked;
        Event("txn step=" + std::to_string(step) +
              " node=" + std::to_string(actor) + " parked ops=" +
              std::to_string(done));
        return;
      }
    } else {
      cs = n->Commit(txn);
    }
    if (cs.ok()) {
      for (const auto& [rid, vals] : staged) {
        model_[rid] = vals.second;
        if (known_.insert(rid).second) rids_.push_back(rid);
      }
      ++report_.txns_committed;
      Event("txn step=" + std::to_string(step) +
            " node=" + std::to_string(actor) + " committed ops=" +
            std::to_string(done));
    } else {
      // The commit record may or may not be durable; recovery decides.
      PendingTxn pending;
      pending.node = actor;
      for (const auto& [rid, vals] : staged) {
        pending.writes.push_back(StagedWrite{rid, vals.first, vals.second});
      }
      pending_.push_back(std::move(pending));
      ++report_.txns_indeterminate;
      Event("txn step=" + std::to_string(step) +
            " node=" + std::to_string(actor) + " indeterminate ops=" +
            std::to_string(done));
      CrashActor(actor, "commit-failed");
    }
  }

  void DoRead(int step) {
    NodeId actor = RandomUpNode();
    Node* n = cluster_->node(actor);
    RecordId rid = RandomRid();
    Result<TxnId> begun = n->Begin();
    if (!begun.ok()) return;
    TxnId txn = *begun;
    Result<std::string> got = n->Read(txn, rid);
    bool checked = false;
    if (!Unverifiable(rid)) {
      std::optional<std::string> expected = ModelValue(rid);
      if (got.ok()) {
        if (!expected || *expected != *got) {
          Fail("read mismatch " + rid.ToString() + " got \"" + *got +
               "\" expected " + OptStr(expected));
        }
        checked = true;
      } else if (got.status().IsNotFound()) {
        if (expected) {
          Fail("read lost record " + rid.ToString() + " expected " +
               OptStr(expected));
        }
        checked = true;
      }
      // Busy / NodeDown / injected IOError: nothing to conclude.
    }
    if (checked) ++report_.reads_checked;
    Status done = n->Commit(txn);
    Event("read step=" + std::to_string(step) +
          " node=" + std::to_string(actor) +
          (checked ? " checked" : " gave-up"));
    if (!done.ok()) CrashActor(actor, "read-commit-failed");
  }

  void DoCrash(int step) {
    NodeId victim = RandomUpNode();
    if (MediaMode() && rng_.Uniform(100) < 35) {
      DoDeviceLoss(step, victim);
      return;
    }
    Event("sched-crash step=" + std::to_string(step));
    CrashActor(victim, "scheduled");
  }

  /// Media mode: arm a whole-device loss and crash the victim so the fault
  /// is consumed at the crash point (a live process never observes its own
  /// device vanish under fail-stop). Data-device loss composes freely with
  /// whatever else the schedule has in flight — restart recovery rebuilds
  /// the device from the archive plus every client's log. Log-device loss
  /// is armed only when the victim will be the sole crashed node and is
  /// followed by an immediate full restart: the loss notices it must send
  /// (docs/RECOVERY_WALKTHROUGH.md) need reachable owners, and the model's
  /// poison bookkeeping needs the verdict before the schedule moves on.
  void DoDeviceLoss(int step, NodeId victim) {
    bool lose_log = rng_.Uniform(100) < 30;
    if (UpNodes().size() != cluster_->NodeIds().size()) lose_log = false;
    injector_.ArmDeviceFault(victim, lose_log ? DeviceFault::kDestroyLogFile
                                              : DeviceFault::kDestroyDataFile);
    ++report_.device_losses;
    if (lose_log) {
      ++report_.log_losses;
      log_loss_occurred_ = true;
    }
    Event("device-loss step=" + std::to_string(step) +
          " node=" + std::to_string(victim) +
          " dev=" + (lose_log ? "log" : "data"));
    CrashActor(victim, lose_log ? "log-device-lost" : "data-device-lost");
    if (!failure_.empty()) return;
    if (lose_log) DoRestartAll();
  }

  void DoPartition(int step) {
    if (injector_.AnyLinkBlocked()) {
      injector_.HealAllLinks();
      Event("partition step=" + std::to_string(step) + " healed");
      return;
    }
    std::vector<NodeId> ids = cluster_->NodeIds();
    if (ids.size() < 2) return;
    NodeId a = ids[rng_.Uniform(ids.size())];
    NodeId b = ids[rng_.Uniform(ids.size())];
    if (a == b) b = ids[(a + 1) % ids.size()];
    injector_.BlockLink(a, b);
    ++report_.partitions;
    Event("partition step=" + std::to_string(step) + " block " +
          std::to_string(a) + "-" + std::to_string(b));
  }

  void DoArmIoFault(int step) {
    NodeId victim = RandomUpNode();
    // Media mode widens the mix with kFailPageRead (transient read-path
    // failure); healthy schedules keep the original four-fault modulus so
    // their RNG streams — and hashes — are untouched.
    IoFault fault = static_cast<IoFault>(
        1 + rng_.Uniform(MediaMode() ? 5 : 4));
    injector_.ArmIoFault(victim, fault);
    Event("arm step=" + std::to_string(step) +
          " node=" + std::to_string(victim) +
          " fault=" + std::to_string(static_cast<int>(fault)));
  }

  void DoFlush(int step) {
    // Force one of the actor's own pages to disk — the page-write path an
    // armed torn/failed write fault fires on.
    NodeId actor = RandomUpNode();
    Node* n = cluster_->node(actor);
    std::vector<PageId> own;
    for (PageId pid : pages_) {
      if (cluster_->CurrentOwner(pid) == actor) own.push_back(pid);
    }
    if (own.empty()) return;
    PageId pid = own[rng_.Uniform(own.size())];
    if (poisoned_.contains(pid)) {
      // Fenced page: flushing it is refused by design, not a node fault.
      Event("flush step=" + std::to_string(step) + " poisoned-skip");
      return;
    }
    Status st = n->HandleFlushRequest(actor, pid);
    Event("flush step=" + std::to_string(step) +
          " node=" + std::to_string(actor) + (st.ok() ? " ok" : " failed"));
    // Unavailable is not a lying device: flushing a page still awaiting
    // instant restore rebuilds it first, and that rebuild legitimately
    // blocks while a redo source is down.
    if (!st.ok() && !st.IsUnavailable()) CrashActor(actor, "flush-failed");
  }

  void DoCheckpoint(int step) {
    NodeId actor = RandomUpNode();
    Node* n = cluster_->node(actor);
    Status st = n->Checkpoint();
    Event("checkpoint step=" + std::to_string(step) +
          " node=" + std::to_string(actor) + (st.ok() ? " ok" : " failed"));
    if (!st.ok()) CrashActor(actor, "checkpoint-failed");
  }

  // --- Elastic membership (ownership handoff, join, leave) --------------

  void DoElasticOp(int step) {
    std::uint64_t kind = rng_.Uniform(100);
    if (kind < 70) {
      DoHandoff(step);
    } else if (kind < 85) {
      DoJoin(step);
    } else {
      DoLeave(step);
    }
  }

  /// Moves one seeded page to a seeded up node through the four-phase
  /// protocol. A seeded fraction of the handoffs (all of them under
  /// crash_during_handoff) arms a crash of one endpoint at a seeded phase
  /// boundary; the interrupted handoff must then re-enter from the durable
  /// ledgers at the next restart. A completed handoff is immediately held
  /// to the elastic invariants: durable PSN at the new owner at or above
  /// the watermark, and every committed record on the page readable there.
  void DoHandoff(int step) {
    PageId pid = pages_[rng_.Uniform(pages_.size())];
    std::vector<NodeId> up = UpNodes();
    NodeId to = up[rng_.Uniform(up.size())];
    std::uint64_t arm_roll = rng_.Uniform(100);
    bool arm = options_.crash_during_handoff || arm_roll < 30;
    int boundary = 0;
    bool crash_target = false;
    if (arm) {
      boundary = static_cast<int>(rng_.Uniform(4));
      crash_target = rng_.Uniform(2) == 1;
    }
    NodeId from = cluster_->CurrentOwner(pid);
    if (from == to) {
      Event("handoff step=" + std::to_string(step) + " " + pid.ToString() +
            " self-noop");
      return;
    }
    if (arm) {
      NodeId victim = crash_target ? to : from;
      cluster_->set_handoff_phase_hook(
          [this, victim, boundary](PageId, HandoffPhase phase) {
            if (static_cast<int>(phase) != boundary) return;
            Node* v = cluster_->node(victim);
            if (v == nullptr || v->state() != NodeState::kUp) return;
            CrashActor(victim, "handoff-boundary");
            ++report_.handoff_crashes;
            Event("handoff-crash node=" + std::to_string(victim) +
                  " phase=" + std::to_string(boundary));
          });
    }
    Status st = cluster_->HandoffPage(pid, to);
    cluster_->set_handoff_phase_hook(nullptr);
    Event("handoff step=" + std::to_string(step) + " " + pid.ToString() +
          " " + std::to_string(from) + "->" + std::to_string(to) +
          (st.ok() ? " ok" : " failed"));
    if (!failure_.empty()) return;
    if (st.ok()) {
      ++report_.handoffs;
      CheckHandoffDurability(pid, to);
      return;
    }
    // An armed crash can kill the driver's endpoint after the target
    // already durably adopted (the commit point) — the call reports
    // failure but the transfer took effect. Count it as a handoff so the
    // crash shard's non-degeneracy check measures ownership movement, not
    // clean returns; the post-restart sweep holds it to the invariants.
    if (cluster_->CurrentOwner(pid) == to) ++report_.handoffs;
  }

  /// Elastic invariants 2+3, checked right after a completed handoff with
  /// faults quiesced: the page's newest visible PSN (caches plus the
  /// adopted durable copy) must sit at or above its never-regress
  /// watermark — the transferred RedoLSN horizon must not have lost an
  /// update — and every committed record on the page must read back its
  /// model value from the new owner. Both halves defer to the post-restart
  /// sweep when they cannot conclude anything here: the PSN half needs
  /// every copy visible (a crashed holder may hold the newest version in
  /// its dead cache until its redo restores it), and a read may bounce off
  /// an exclusive lock legitimately retained for a crashed holder
  /// (Section 2.3 — the handoff transfers that residue with the page).
  void CheckHandoffDurability(PageId pid, NodeId to) {
    Node* n = cluster_->node(to);
    if (n == nullptr || n->state() != NodeState::kUp) return;
    if (poisoned_.contains(pid) || n->IsRestoring(pid)) return;
    injector_.set_enabled(false);
    if (UpNodes().size() == cluster_->NodeIds().size()) {
      Psn effective = 0;
      for (NodeId id : cluster_->NodeIds()) {
        const Page* p = cluster_->node(id)->pool().Peek(pid);
        if (p != nullptr) effective = std::max(effective, p->psn());
      }
      Result<Psn> dp = n->DiskPsn(pid);
      if (!dp.ok()) {
        // Zero durable owners: the adopt wrote this image moments ago.
        Fail("handoff " + pid.ToString() +
             ": adopted durable copy unreadable at node " +
             std::to_string(to) + ": " + dp.status().ToString());
        injector_.set_enabled(true);
        return;
      }
      effective = std::max(effective, *dp);
      auto it = watermark_.find(pid);
      if (it != watermark_.end() && effective < it->second) {
        Fail("handoff " + pid.ToString() + ": visible psn regressed " +
             std::to_string(it->second) + " -> " + std::to_string(effective) +
             " across transfer to node " + std::to_string(to));
        injector_.set_enabled(true);
        return;
      }
      watermark_[pid] = effective;
    }
    Result<TxnId> begun = n->Begin();
    if (begun.ok()) {
      for (RecordId rid : rids_) {
        if (rid.page != pid || Unverifiable(rid)) continue;
        Result<std::string> got = n->Read(*begun, rid);
        std::optional<std::string> expected = ModelValue(rid);
        if (got.ok()) {
          if (!expected || *expected != *got) {
            Fail("handoff " + pid.ToString() + ": committed record " +
                 rid.ToString() + " reads \"" + *got + "\" at new owner, " +
                 "expected " + OptStr(expected));
            break;
          }
          ++report_.reads_checked;
        } else if (got.status().IsNotFound()) {
          if (expected) {
            Fail("handoff " + pid.ToString() + ": committed record " +
                 rid.ToString() + " lost at new owner, expected " +
                 OptStr(expected));
            break;
          }
          ++report_.reads_checked;
        } else {
          Event("handoff-check deferred " + pid.ToString());
          break;
        }
      }
      (void)n->Abort(*begun);
    }
    injector_.set_enabled(true);
  }

  void DoJoin(int step) {
    // Cap growth at a few nodes over the seeded complement so a join-heavy
    // schedule cannot allocate without bound.
    if (cluster_->NodeIds().size() >=
        static_cast<std::size_t>(options_.num_nodes) + 4) {
      Event("join step=" + std::to_string(step) + " capped");
      return;
    }
    Result<Node*> added = cluster_->JoinNode();
    if (!added.ok()) {
      Event("join step=" + std::to_string(step) + " failed");
      return;
    }
    ++report_.joins;
    Event("join step=" + std::to_string(step) +
          " node=" + std::to_string((*added)->id()));
  }

  /// Graceful departure: the victim drains every owned page round-robin to
  /// the surviving members, then is halted and marked departed forever.
  /// Failures are tolerated — a drain handoff can hit a Busy page or a
  /// crashed recipient under live faults; pages already moved stay moved
  /// and the node simply keeps running.
  void DoLeave(int step) {
    std::vector<NodeId> up = UpNodes();
    // Never drain the cluster below three up members: the remaining pair
    // must still absorb the departing node's pages and each other's faults.
    if (up.size() < 3 || cluster_->NodeIds().size() < 3) {
      Event("leave step=" + std::to_string(step) + " too-few");
      return;
    }
    NodeId victim = up[rng_.Uniform(up.size())];
    Status st = cluster_->LeaveNode(victim);
    if (!st.ok()) {
      Event("leave step=" + std::to_string(step) +
            " node=" + std::to_string(victim) + " failed");
      return;
    }
    ++report_.leaves;
    Event("leave step=" + std::to_string(step) +
          " node=" + std::to_string(victim) + " ok");
  }

  /// Elastic invariant 1: every page has exactly one durable owner claim —
  /// its home node unless durably ceded, plus whichever node's handoff
  /// ledger holds an adopted image — and the claimant is the directory's
  /// current owner. Zero claims would orphan the page's history; two would
  /// fork it. Requires every (non-departed) node up with all in-flight
  /// handoffs resolved, so callers run it right after ResolveHandoffs.
  void CheckOwnershipClaims(const char* tag) {
    if (!options_.elastic) return;
    for (NodeId id : cluster_->NodeIds()) {
      Node* n = cluster_->node(id);
      if (n == nullptr || n->state() != NodeState::kUp) continue;
      std::vector<PageId> inflight = n->handoff().InflightPages();
      if (!inflight.empty()) {
        Fail(std::string(tag) + " node " + std::to_string(id) + ": " +
             std::to_string(inflight.size()) +
             " handoff(s) still in flight after resolution, first " +
             inflight.front().ToString());
        return;
      }
    }
    for (PageId pid : pages_) {
      NodeId owner = cluster_->CurrentOwner(pid);
      std::size_t claims = 0;
      NodeId claimant = owner;
      for (NodeId id : cluster_->NodeIds()) {
        Node* n = cluster_->node(id);
        if (n == nullptr || n->state() != NodeState::kUp) continue;
        bool claim = pid.owner == id ? !n->handoff().IsCeded(pid)
                                     : n->handoff().IsAdopted(pid);
        if (!claim) continue;
        ++claims;
        claimant = id;
      }
      if (claims != 1) {
        Fail(std::string(tag) + " " + pid.ToString() + ": " +
             std::to_string(claims) + " durable owner claims, want exactly 1");
        return;
      }
      if (claimant != owner) {
        Fail(std::string(tag) + " " + pid.ToString() + ": directory owner " +
             std::to_string(owner) + " but durable claimant " +
             std::to_string(claimant));
        return;
      }
    }
    Event(std::string("ownership-check ") + tag + " ok");
  }

  // --- Group commit bookkeeping -----------------------------------------

  /// The ack: the node confirmed the parked commit durable and finished, so
  /// its staged writes become committed model state.
  void AckParked(const ParkedTxn& p) {
    for (const StagedWrite& w : p.writes) {
      model_[w.rid] = w.staged;
      if (known_.insert(w.rid).second) rids_.push_back(w.rid);
    }
    ++report_.txns_committed;
    Event("gc-ack node=" + std::to_string(p.node));
  }

  /// The parked commit's fate is unknowable from here (its node crashed
  /// while it waited, or the group force failed): same contract as a commit
  /// interrupted mid-force — the commit record may sit in the torn tail.
  void MoveToPending(ParkedTxn& p, const char* why) {
    PendingTxn pending;
    pending.node = p.node;
    pending.writes = std::move(p.writes);
    pending_.push_back(std::move(pending));
    ++report_.txns_indeterminate;
    Event("gc-indeterminate node=" + std::to_string(p.node) + " why=" + why);
  }

  /// Once per step: check on every parked commit. Completed ones are acked
  /// into the model; ones whose node died became indeterminate; a failed
  /// group force fail-stops the node (the device lied about durability).
  void PollParked() {
    if (parked_.empty()) return;
    std::vector<ParkedTxn> keep;
    for (ParkedTxn& p : parked_) {
      Node* n = cluster_->node(p.node);
      if (n == nullptr || n->state() != NodeState::kUp) {
        MoveToPending(p, "crashed-while-parked");
        continue;
      }
      Result<bool> durable = n->PollCommit(p.txn);
      if (!durable.ok()) {
        MoveToPending(p, "group-force-failed");
        CrashActor(p.node, "group-force-failed");
        continue;
      }
      if (*durable) {
        AckParked(p);
      } else {
        keep.push_back(std::move(p));
      }
    }
    parked_ = std::move(keep);
  }

  /// Settles every parked commit before a verification phase: leads the
  /// group force on live nodes, hands crashed nodes' parked commits to the
  /// pending (indeterminate) machinery. Leaves nothing parked.
  void DrainParked(const char* why) {
    if (parked_.empty()) return;
    std::vector<ParkedTxn> parked = std::move(parked_);
    parked_.clear();
    for (ParkedTxn& p : parked) {
      Node* n = cluster_->node(p.node);
      if (n == nullptr || n->state() != NodeState::kUp) {
        MoveToPending(p, why);
        continue;
      }
      Status st = n->FlushCommitGroup();
      if (!st.ok()) {
        MoveToPending(p, "group-force-failed");
        CrashActor(p.node, "group-force-failed");
        continue;
      }
      Result<bool> durable = n->PollCommit(p.txn);
      if (durable.ok() && *durable) {
        AckParked(p);
      } else {
        MoveToPending(p, why);
        CrashActor(p.node, "group-commit-stuck");
      }
    }
  }

  // --- Restart + the four invariants ------------------------------------

  void DoRestartAll() {
    // Group commits still parked on live nodes are forced through now;
    // ones on crashed nodes become indeterminate and are resolved after
    // the restart below. Verification needs a settled model.
    DrainParked("restart-while-parked");
    if (!failure_.empty()) return;
    // Faults quiesce during repair: the torture contract is that recovery
    // runs on honest hardware (fail-stop, not byzantine).
    injector_.set_enabled(false);
    injector_.HealAllLinks();

    // At most one crash-during-recovery event is armed per repair pass: a
    // seeded victim dies at a seeded phase boundary, its partial restart is
    // abandoned (fail-stop), and a later round must re-enter recovery from
    // scratch. The loop doubles as the liveness check — repair has to
    // converge to every node up within a bounded number of rounds.
    bool arm = options_.crash_during_recovery ||
               rng_.Uniform(100) < 10;
    int round = 0;
    for (;;) {
      std::vector<NodeId> down;
      for (NodeId id : cluster_->NodeIds()) {
        if (cluster_->node(id)->state() == NodeState::kDown) {
          down.push_back(id);
        }
      }
      if (down.empty()) break;
      if (++round > 8) {
        Fail("restart did not converge after 8 rounds");
        return;
      }
      if (arm) {
        arm = false;
        NodeId victim = down[rng_.Uniform(down.size())];
        // kFinished is excluded: by then the node is up and this would be
        // an ordinary crash, not a crash *during* recovery.
        int boundary = static_cast<int>(rng_.Uniform(3));
        cluster_->set_recovery_phase_hook(
            [this, victim, boundary](NodeId id, RecoveryPhase phase) {
              if (id != victim || static_cast<int>(phase) != boundary) return;
              if (cluster_->CrashNode(id).ok()) {
                ++report_.crashes;
                ++report_.recovery_crashes;
                Event("recovery-crash node=" + std::to_string(id) +
                      " phase=" + std::to_string(boundary));
              }
            });
      }
      // Elastic: an endpoint crash can leave a page fenced in doubt at a
      // *live* source until its target answers a HandoffQuery. A node
      // restarting this round may need a lock on that page to reconstruct
      // its retained state, so settle what is already settleable first —
      // each round brings more endpoints up, and the convergence bound
      // still applies.
      if (options_.elastic) {
        Status rh = cluster_->ResolveHandoffs();
        if (!rh.ok()) {
          Fail("ResolveHandoffs: " + rh.ToString());
          return;
        }
      }
      Status st = cluster_->RestartNodes(down);
      cluster_->set_recovery_phase_hook(nullptr);
      if (!st.ok()) {
        if (options_.elastic && st.IsBusy()) {
          // A fence held by a still-unresolved handoff blocked this
          // round's recovery; the next round resolves further and retries.
          Event("restart-blocked round=" + std::to_string(round) + " " +
                st.ToString());
          continue;
        }
        Fail("RestartNodes: " + st.ToString());
        return;
      }
      std::string who;
      std::size_t recovered = 0;
      for (NodeId id : down) {
        who += (who.empty() ? "" : ",") + std::to_string(id);
        if (cluster_->node(id)->state() == NodeState::kUp) ++recovered;
      }
      report_.restarts += recovered;
      Event("restart round=" + std::to_string(round) + " nodes=" + who +
            " recovered=" + std::to_string(recovered));
    }
    HarvestPoison();
    // Elastic mode: settle every in-flight handoff now that all nodes are
    // up with links healed — in-doubt pages unfence (the target either
    // durably adopted or the handoff aborts), so the verification below
    // never reads into a fence — then hold the exactly-one-owner claim
    // invariant across every durable ledger.
    if (options_.elastic) {
      Status rh = cluster_->ResolveHandoffs();
      if (!rh.ok()) {
        Fail("ResolveHandoffs: " + rh.ToString());
        return;
      }
      CheckOwnershipClaims("post-restart");
      if (!failure_.empty()) return;
    }
    ResolvePending();
    if (failure_.empty()) CheckPsnConsistency("post-restart");
    if (failure_.empty() && !rids_.empty()) {
      // Hammer mode samples the post-restart verification: reading every
      // record would touch every page and drain the whole restore backlog
      // on the spot, leaving nothing mid-restore for later crashes to land
      // on. The final phase still verifies everything.
      VerifyModel(RandomUpNode(), "post-restart",
                  /*sampled=*/options_.hammer_restore);
    }
    injector_.set_enabled(true);
  }

  /// Reads the committed state of `rid` with faults quiesced. Returns
  /// nullopt-wrapped value; sets *ok=false (and fails the run) on any error
  /// other than NotFound.
  std::optional<std::string> ReadCommitted(Node* n, RecordId rid, bool* ok) {
    *ok = false;
    Result<TxnId> begun = n->Begin();
    if (!begun.ok()) {
      Fail("resolve Begin: " + begun.status().ToString());
      return std::nullopt;
    }
    Result<std::string> got = n->Read(*begun, rid);
    std::optional<std::string> value;
    if (got.ok()) {
      value = *got;
    } else if (!got.status().IsNotFound()) {
      Fail("resolve Read " + rid.ToString() + ": " + got.status().ToString());
      (void)n->Abort(*begun);
      return std::nullopt;
    }
    Status done = n->Commit(*begun);
    if (!done.ok()) {
      Fail("resolve Commit: " + done.ToString());
      return std::nullopt;
    }
    *ok = true;
    return value;
  }

  /// Invariants 1+2 for interrupted commits: recovery must have made each
  /// pending transaction land atomically — all staged values visible
  /// (committed) or none (rolled back). Picks the branch from the first
  /// record, then holds the rest to it.
  void ResolvePending() {
    std::vector<PendingTxn> pending = std::move(pending_);
    pending_.clear();
    for (const PendingTxn& p : pending) {
      Node* n = cluster_->node(p.node);
      if (n == nullptr || n->state() != NodeState::kUp) {
        Fail("resolve: node " + std::to_string(p.node) + " not up");
        return;
      }
      // A media failure may have fenced some (or all) of the touched pages:
      // those records cannot be read back, so the verdict must come from a
      // record on a healthy page. If none exists the transaction's fate is
      // unknowable forever — its records are cursed (never verified again),
      // which is exactly the contract: a fenced page refuses service rather
      // than pick a side.
      const StagedWrite* first = nullptr;
      for (const StagedWrite& w : p.writes) {
        if (!poisoned_.contains(w.rid.page)) {
          first = &w;
          break;
        }
      }
      if (first == nullptr) {
        for (const StagedWrite& w : p.writes) cursed_.insert(w.rid);
        Event("resolve node=" + std::to_string(p.node) + " cursed");
        continue;
      }
      bool ok = false;
      std::optional<std::string> got = ReadCommitted(n, first->rid, &ok);
      if (!ok) return;
      bool committed;
      if (got == first->staged) {
        committed = true;
      } else if (got == first->prior) {
        committed = false;
      } else {
        Fail("resolve " + first->rid.ToString() + ": got " + OptStr(got) +
             ", neither staged " + OptStr(first->staged) + " nor prior " +
             OptStr(first->prior));
        return;
      }
      for (const StagedWrite& w : p.writes) {
        if (&w == first || poisoned_.contains(w.rid.page)) continue;
        std::optional<std::string> expect = committed ? w.staged : w.prior;
        std::optional<std::string> val = ReadCommitted(n, w.rid, &ok);
        if (!ok) return;
        if (val != expect) {
          Fail("atomicity: " + w.rid.ToString() + " got " + OptStr(val) +
               " but txn " + (committed ? "committed" : "aborted") +
               " elsewhere (expected " + OptStr(expect) + ")");
          return;
        }
        ++report_.reads_checked;
      }
      if (committed) {
        for (const StagedWrite& w : p.writes) {
          model_[w.rid] = w.staged;
          if (known_.insert(w.rid).second) rids_.push_back(w.rid);
        }
      }
      Event(std::string("resolve node=") + std::to_string(p.node) +
            (committed ? " committed" : " rolled-back"));
    }
  }

  /// Invariants 1+2 in bulk: every record the model knows reads back at its
  /// committed value (or NotFound if deleted) from `reader`.
  void VerifyModel(NodeId reader, const char* tag, bool sampled = false) {
    Node* n = cluster_->node(reader);
    Result<TxnId> begun = n->Begin();
    if (!begun.ok()) {
      Fail(std::string(tag) + " verify Begin: " + begun.status().ToString());
      return;
    }
    TxnId txn = *begun;
    for (RecordId rid : rids_) {
      if (sampled && rng_.Uniform(4) != 0) continue;
      if (Unverifiable(rid)) continue;
      std::optional<std::string> expected = ModelValue(rid);
      Result<std::string> got = n->Read(txn, rid);
      if (got.ok()) {
        if (!expected || *expected != *got) {
          Fail(std::string(tag) + " verify from node " +
               std::to_string(reader) + ": " + rid.ToString() + " got \"" +
               *got + "\" expected " + OptStr(expected));
          break;
        }
      } else if (got.status().IsNotFound()) {
        if (expected) {
          Fail(std::string(tag) + " verify from node " +
               std::to_string(reader) + ": " + rid.ToString() +
               " lost, expected " + OptStr(expected));
          break;
        }
      } else {
        Fail(std::string(tag) + " verify Read " + rid.ToString() + ": " +
             got.status().ToString());
        break;
      }
      ++report_.reads_checked;
    }
    Status done = failure_.empty() ? n->Commit(txn) : n->Abort(txn);
    if (failure_.empty() && !done.ok()) {
      Fail(std::string(tag) + " verify Commit: " + done.ToString());
    }
  }

  /// Invariant 3. Runs only when every node is up and recovery is done:
  /// per page, the newest visible PSN (max over all cached copies and the
  /// disk version) never regresses across the run — crashes and recoveries
  /// must never lose updates — and the disk version must be readable
  /// whenever no surviving cache holds the page dirty. Per-copy PSN
  /// equality is deliberately NOT asserted: the owner legitimately keeps a
  /// stale clean "home copy" after being called back, and undo CLRs
  /// advance one copy past the others until the next transfer.
  void CheckPsnConsistency(const char* tag) {
    for (PageId pid : pages_) {
      // A fenced page legitimately sits at a pre-loss PSN (the base image
      // media recovery could not replay forward); its watermark resumes if
      // a later rebuild un-poisons it.
      if (poisoned_.contains(pid)) continue;
      // A page still queued for instant restore sits unreadable on disk by
      // design until its on-demand rebuild; its watermark resumes once the
      // rebuild lands (and must not have regressed then).
      Node* owner_probe = cluster_->node(cluster_->CurrentOwner(pid));
      if (owner_probe != nullptr && owner_probe->IsRestoring(pid)) continue;
      Psn max_psn = 0;
      bool any_copy = false;
      bool any_dirty = false;
      for (NodeId id : cluster_->NodeIds()) {
        Node* n = cluster_->node(id);
        if (n->state() != NodeState::kUp) continue;
        const Page* p = n->pool().Peek(pid);
        if (p == nullptr) continue;
        any_copy = true;
        max_psn = std::max(max_psn, p->psn());
        if (n->pool().IsDirty(pid)) any_dirty = true;
      }
      Psn disk_psn = 0;
      bool have_disk = false;
      Node* owner = cluster_->node(cluster_->CurrentOwner(pid));
      if (owner != nullptr && owner->state() == NodeState::kUp) {
        Result<Psn> dr = owner->DiskPsn(pid);
        if (dr.ok()) {
          disk_psn = *dr;
          have_disk = true;
        } else if (!any_dirty) {
          Fail(std::string(tag) + " " + pid.ToString() +
               ": disk version unreadable with no dirty cached copy: " +
               dr.status().ToString());
          return;
        }
      }
      Psn effective = std::max(max_psn, disk_psn);
      if (!any_copy && !have_disk) continue;  // Owner down: nothing visible.
      auto [it, fresh] = watermark_.try_emplace(pid, effective);
      if (!fresh) {
        if (effective < it->second) {
          Fail(std::string(tag) + " " + pid.ToString() + ": psn regressed " +
               std::to_string(it->second) + " -> " +
               std::to_string(effective));
          return;
        }
        it->second = effective;
      }
    }
    Event(std::string("psn-check ") + tag + " ok");
  }

  /// Invariant 4. Ground truth: an independent forward scan of each node's
  /// log, coalescing update/CLR/logical records into transaction runs
  /// exactly as Section 2.3.4 specifies, minus the runs the redo skip rule
  /// removes. It must agree with what HandleBuildPsnList
  /// reports in full-history mode, and the merged cross-node schedule must
  /// be strictly ascending with adjacent runs on different nodes.
  void CheckPsnListReconstruction() {
    std::map<PageId, std::size_t> index;
    for (std::size_t i = 0; i < pages_.size(); ++i) index[pages_[i]] = i;
    // lists[page index][node] = that node's full-history PSN list.
    std::vector<std::map<NodeId, std::vector<PsnListEntry>>> lists(
        pages_.size());

    for (NodeId id : cluster_->NodeIds()) {
      Node* n = cluster_->node(id);
      std::vector<std::vector<PsnListEntry>> truth(pages_.size());
      std::vector<std::vector<TxnId>> truth_txns(pages_.size());
      std::map<PageId, TxnId> last_txn;
      std::set<TxnId> logical_txns;
      std::set<TxnId> resolved_txns;
      LogCursor cursor(&n->log(), LogManager::first_lsn());
      LogRecord rec;
      Lsn lsn = kNullLsn;
      Status scan;
      while (cursor.Next(&rec, &lsn, &scan)) {
        if (rec.type == LogRecordType::kCommit ||
            rec.type == LogRecordType::kUndoBackfill) {
          resolved_txns.insert(rec.txn);
          continue;
        }
        if (rec.type != LogRecordType::kUpdate &&
            rec.type != LogRecordType::kClr &&
            rec.type != LogRecordType::kLogicalUpdate) {
          continue;
        }
        if (rec.type == LogRecordType::kLogicalUpdate) {
          logical_txns.insert(rec.txn);
        }
        auto it = index.find(rec.page);
        if (it == index.end()) continue;
        auto lt = last_txn.find(rec.page);
        if (lt == last_txn.end() || lt->second != rec.txn) {
          truth[it->second].push_back(PsnListEntry{rec.psn_before, lsn});
          truth_txns[it->second].push_back(rec.txn);
          last_txn[rec.page] = rec.txn;
        }
      }
      if (!scan.ok()) {
        Fail("psn-list scan node " + std::to_string(id) + ": " +
             scan.ToString());
        return;
      }
      // Redo skip rule, mirrored (docs/PROTOCOLS.md "Redo skip rule"):
      // runs of a transaction that wrote logical records but never reached
      // a commit nor an UNDO_BACKFILL are dropped from the lists — their
      // effects were volatile-only and recovery must not replay them. The
      // builder additionally exempts live transactions; every harness
      // transaction is closed by the time this check runs, so the mirror
      // needs no such clause.
      std::set<TxnId> skip;
      for (TxnId t : logical_txns) {
        if (resolved_txns.count(t) == 0) skip.insert(t);
      }
      if (!skip.empty()) {
        for (std::size_t i = 0; i < pages_.size(); ++i) {
          auto& list = truth[i];
          std::size_t kept = 0;
          for (std::size_t j = 0; j < list.size(); ++j) {
            if (skip.count(truth_txns[i][j]) == 0) list[kept++] = list[j];
          }
          list.resize(kept);
        }
      }

      PsnListReply reply;
      Status st = n->HandleBuildPsnList(id, pages_, /*full_history=*/true,
                                        &reply);
      if (!st.ok()) {
        Fail("BuildPsnList node " + std::to_string(id) + ": " + st.ToString());
        return;
      }
      for (std::size_t i = 0; i < pages_.size(); ++i) {
        const auto& got = reply.per_page[i];
        const auto& want = truth[i];
        if (got.size() != want.size()) {
          Fail("psn-list node " + std::to_string(id) + " " +
               pages_[i].ToString() + ": " + std::to_string(got.size()) +
               " runs reported, ground truth has " +
               std::to_string(want.size()));
          return;
        }
        for (std::size_t k = 0; k < got.size(); ++k) {
          if (got[k].psn != want[k].psn ||
              got[k].start_lsn != want[k].start_lsn) {
            Fail("psn-list node " + std::to_string(id) + " " +
                 pages_[i].ToString() + " run " + std::to_string(k) +
                 ": reported (psn=" + std::to_string(got[k].psn) +
                 ", lsn=" + std::to_string(got[k].start_lsn) +
                 ") truth (psn=" + std::to_string(want[k].psn) +
                 ", lsn=" + std::to_string(want[k].start_lsn) + ")");
            return;
          }
        }
        if (!want.empty()) lists[i][id] = want;
      }
    }

    std::size_t total_runs = 0;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
      std::vector<RecoveryRun> merged = MergePsnLists(lists[i]);
      total_runs += merged.size();
      for (std::size_t k = 0; k + 1 < merged.size(); ++k) {
        if (merged[k].psn >= merged[k + 1].psn) {
          Fail("merged schedule for " + pages_[i].ToString() +
               " not strictly ascending at run " + std::to_string(k));
          return;
        }
        // After a log-device loss one node's runs are missing from the
        // middle of the history, so two surviving runs of one node can
        // legitimately sit adjacent; only the ascending check still holds.
        if (!log_loss_occurred_ && merged[k].node == merged[k + 1].node) {
          Fail("merged schedule for " + pages_[i].ToString() +
               " has uncoalesced adjacent runs of node " +
               std::to_string(merged[k].node));
          return;
        }
      }
    }
    Event("psn-list-check ok runs=" + std::to_string(total_runs));
  }

  // --- Final phase ------------------------------------------------------

  void FinalPhase() {
    injector_.set_enabled(false);
    injector_.HealAllLinks();
    for (NodeId id : injector_.TakeFiredNodes()) {
      CrashActor(id, "io-fault-fired");
      if (!failure_.empty()) return;
    }
    DrainParked("final-drain");
    if (!failure_.empty()) return;
    // Bring stragglers back and settle indeterminate commits while the
    // survivors' caches are still warm.
    DoRestartAll();
    injector_.set_enabled(false);
    if (!failure_.empty()) return;

    // The big hammer: lose every cache at once, then recover the whole
    // cluster jointly (Section 2.4) and check everything.
    for (NodeId id : cluster_->NodeIds()) {
      CrashActor(id, "final");
      if (!failure_.empty()) return;
    }
    Status st = cluster_->RestartNodes(cluster_->NodeIds());
    if (!st.ok()) {
      Fail("final RestartNodes: " + st.ToString());
      return;
    }
    report_.restarts += cluster_->NodeIds().size();
    Event("final restart");
    HarvestPoison();
    // Elastic mode: the joint recovery must have re-entered every handoff
    // the run left interrupted; after one live resolution pass, exactly
    // one durable owner claim per page, cluster-wide.
    if (options_.elastic) {
      Status rh = cluster_->ResolveHandoffs();
      if (!rh.ok()) {
        Fail("final ResolveHandoffs: " + rh.ToString());
        return;
      }
      CheckOwnershipClaims("final");
      if (!failure_.empty()) return;
    }

    // Hammer mode: drain every restore backlog before the full
    // verification, then hold the exit invariants — no plan left pending
    // and the durable restore ledger empty on every node. With all nodes
    // up and faults off, a rebuild that still can't make progress is a
    // bug, not bad luck.
    if (options_.hammer_restore) {
      for (NodeId id : cluster_->NodeIds()) {
        Node* n = cluster_->node(id);
        std::size_t pending = n->RestorePendingCount();
        while (pending != 0) {
          std::size_t after = n->SweepRestore(pending);
          if (after >= pending) break;  // No progress: sweep is blocked.
          pending = after;
        }
        if (n->RestorePendingCount() != 0) {
          Fail("restore drain: node " + std::to_string(id) + " stuck with " +
               std::to_string(n->RestorePendingCount()) + " pages pending");
          return;
        }
        if (!n->restore().LedgerEntries().empty()) {
          Fail("restore drain: node " + std::to_string(id) +
               " finished with a non-empty restore ledger");
          return;
        }
      }
      // Draining may have fenced pages for real (permanent poison verdicts
      // reached during rebuild); refresh the model's view before verifying.
      HarvestPoison();
      Event("restore-drain ok");
    }

    for (NodeId id : cluster_->NodeIds()) {
      VerifyModel(id, "final");
      if (!failure_.empty()) return;
    }
    for (NodeId id : cluster_->NodeIds()) {
      Status inv = cluster_->node(id)->CheckInvariants(/*deep=*/true);
      if (!inv.ok()) {
        Fail("final deep invariants node " + std::to_string(id) + ": " +
             inv.ToString());
        return;
      }
    }
    CheckPsnConsistency("final");
    if (!failure_.empty()) return;
    CheckPsnListReconstruction();
    if (!failure_.empty()) return;

    // Invariant 6 (adaptive mode): logical records replay to the same page
    // bytes. Snapshot every recoverable page as the first joint recovery
    // rebuilt it, crash the whole cluster a second time, and require the
    // second recovery to reconstruct identical images, PSN and body both.
    // (A live cache is NOT a valid reference — aborted adaptive
    // transactions bump PSNs and shuffle slots in memory without leaving
    // replayable records — but two recoveries read the same log, so any
    // divergence between them is a replay-determinism bug: a logical
    // record that redoes differently from the physical application it
    // stands in for.)
    if (options_.adaptive) {
      std::map<PageId, std::string> first_images;
      for (const PageId& pid : pages_) {
        if (poisoned_.contains(pid)) continue;
        Result<std::string> img =
            cluster_->node(cluster_->CurrentOwner(pid))->DebugPageImage(pid);
        // Unreadable (fenced mid-harvest): no fidelity claim for this page.
        if (img.ok()) first_images[pid] = std::move(*img);
      }
      for (NodeId id : cluster_->NodeIds()) {
        CrashActor(id, "fidelity");
        if (!failure_.empty()) return;
      }
      Status again = cluster_->RestartNodes(cluster_->NodeIds());
      if (!again.ok()) {
        Fail("fidelity RestartNodes: " + again.ToString());
        return;
      }
      report_.restarts += cluster_->NodeIds().size();
      HarvestPoison();
      std::size_t checked = 0;
      for (const auto& [pid, want] : first_images) {
        if (poisoned_.contains(pid)) continue;
        Result<std::string> got =
            cluster_->node(cluster_->CurrentOwner(pid))->DebugPageImage(pid);
        if (!got.ok()) {
          Fail("redo fidelity: " + pid.ToString() +
               " unreadable after second recovery: " + got.status().ToString());
          return;
        }
        if (*got != want) {
          Fail("redo fidelity: " + pid.ToString() +
               " bytes differ between two recoveries of one log");
          return;
        }
        ++checked;
      }
      Event("redo-fidelity ok pages=" + std::to_string(checked));
    }

    // Invariant 5 (media mode): the archive pair must be self-consistent
    // on every node, and every record on a fenced page must refuse to read
    // — Corruption, never silent stale data.
    if (MediaMode()) {
      for (NodeId id : cluster_->NodeIds()) {
        Status ar = cluster_->node(id)->CheckArchiveConsistency();
        if (!ar.ok()) {
          Fail("archive consistency node " + std::to_string(id) + ": " +
               ar.ToString());
          return;
        }
      }
      Event("archive-check ok");
      VerifyPoisonFencing();
    }
  }

  /// Every known record on a currently fenced page must read back an error
  /// (the fence), with all caches cold after the final full restart — a
  /// successful read here would be silent stale data, the one outcome media
  /// recovery may never produce.
  void VerifyPoisonFencing() {
    if (poisoned_.empty()) return;
    NodeId reader = RandomUpNode();
    Node* n = cluster_->node(reader);
    Result<TxnId> begun = n->Begin();
    if (!begun.ok()) {
      Fail("fence Begin: " + begun.status().ToString());
      return;
    }
    std::uint64_t fenced = 0;
    for (RecordId rid : rids_) {
      if (!poisoned_.contains(rid.page)) continue;
      Result<std::string> got = n->Read(*begun, rid);
      if (got.ok()) {
        Fail("poison fence: " + rid.ToString() + " read \"" + *got +
             "\" from a page fenced as unrecoverable");
        break;
      }
      if (!got.status().IsCorruption()) {
        Fail("poison fence: " + rid.ToString() + " failed with " +
             got.status().ToString() + ", expected Corruption");
        break;
      }
      ++fenced;
    }
    (void)n->Abort(*begun);
    if (failure_.empty()) Event("poison-fence ok=" + std::to_string(fenced));
  }

  // --- State ------------------------------------------------------------

  TortureOptions options_;
  Random rng_;
  FaultInjector injector_;
  TraceSink trace_;  ///< Outlives cluster_; every node emits into it.
  bool use_partitions_ = false;
  bool use_io_faults_ = false;

  std::string dir_;
  bool owns_dir_ = false;
  std::unique_ptr<Cluster> cluster_;

  /// Ground-truth committed state: rid -> value, nullopt = deleted.
  std::map<RecordId, std::optional<std::string>> model_;
  std::vector<RecordId> rids_;  ///< Stable pick order for the RNG.
  std::set<RecordId> known_;
  std::vector<PageId> pages_;
  std::vector<PendingTxn> pending_;
  std::vector<ParkedTxn> parked_;  ///< Group commits awaiting their ack.
  std::map<PageId, Psn> watermark_;  ///< Invariant 3: PSNs never regress.

  // Media mode (empty/false in healthy schedules):
  std::set<PageId> poisoned_;  ///< Pages currently fenced as unrecoverable.
  std::set<RecordId> cursed_;  ///< Records whose pending fate was fenced off.
  bool log_loss_occurred_ = false;  ///< Any log device destroyed this run.

  std::uint64_t value_seq_ = 0;
  std::uint64_t hash_ = kFnvOffset;
  std::string failure_;
  TortureReport report_;
};

}  // namespace
}  // namespace clog

namespace clog {

std::string TortureReport::Summary() const {
  std::ostringstream out;
  out << "seed=" << seed << " verdict=" << (ok ? "PASS" : "FAIL")
      << " hash=" << std::hex << schedule_hash << " trace=" << trace_hash
      << " pages=" << page_digest << std::dec
      << " committed=" << txns_committed << " aborted=" << txns_aborted
      << " indeterminate=" << txns_indeterminate
      << " parked=" << txns_parked << " crashes=" << crashes
      << " restarts=" << restarts << " recovery_crashes=" << recovery_crashes
      << " partitions=" << partitions
      << " reads=" << reads_checked
      << " rpc{retries=" << rpc_retries << " ok=" << rpc_retry_success
      << " exhausted=" << rpc_retry_exhausted << " probes=" << hb_probes
      << "} faults{drop=" << faults.dropped_msgs
      << " delay=" << faults.delayed_msgs << " dup=" << faults.duplicated_msgs
      << " blocked=" << faults.blocked_msgs << " torn_tail=" << faults.torn_tails
      << " torn_page=" << faults.torn_page_writes
      << " failed_write=" << faults.failed_page_writes
      << " failed_sync=" << faults.failed_syncs << "}";
  if (device_losses != 0 || pages_poisoned != 0) {
    out << " media{losses=" << device_losses << " log=" << log_losses
        << " read_faults=" << faults.failed_page_reads
        << " poisoned=" << pages_poisoned << "}";
  }
  if (handoffs != 0 || handoff_crashes != 0 || joins != 0 || leaves != 0) {
    out << " elastic{handoffs=" << handoffs
        << " crashes=" << handoff_crashes << " joins=" << joins
        << " leaves=" << leaves << "}";
  }
  if (restore_planned != 0) {
    out << " restore{planned=" << restore_planned
        << " peer=" << restore_from_peer << " archive=" << restore_from_archive
        << " seed=" << restore_from_seed
        << " durable=" << restore_already_durable << "}";
  }
  if (!ok) out << " failure=\"" << failure << "\"";
  return out.str();
}

TortureReport RunTortureSchedule(const TortureOptions& options) {
  TortureRun run(options);
  return run.Run();
}

}  // namespace clog
