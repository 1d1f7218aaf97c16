#ifndef CLOG_NODE_OPTIONS_H_
#define CLOG_NODE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/sim_clock.h"

namespace clog {

class FaultInjector;
class TraceSink;

/// Which logging protocol a node runs. kClientLocal is the paper's
/// contribution; the other two are the related-work baselines the benchmark
/// harness compares against (DESIGN.md Section 2).
enum class LoggingMode : std::uint8_t {
  /// Paper: all log records written to the node's local log; commit is
  /// local; crash recovery per Sections 2.3/2.4.
  kClientLocal = 0,
  /// Baseline B1 (ARIES/CSA-like): log records are shipped to the owner
  /// node — on dirty-page replacement and, with a force, at commit. The
  /// owner's log is the only log for the client's updates.
  kShipToOwner = 1,
  /// Baseline B2 (Rdb/VMS-like): updated pages are forced to the owner's
  /// disk at commit and before every inter-node transfer; undo-only local
  /// logging.
  kForceAtTransfer = 2,
};

std::string_view LoggingModeName(LoggingMode m);

/// Commit-time force coalescing (group commit — the force discipline ARIES
/// and ARIES/CSA assume as their baseline). When enabled, a committing
/// transaction appends its commit record and *parks* instead of forcing
/// immediately; one shared force — triggered by the group filling, the
/// coalescing window expiring, or any other force on the same log — covers
/// every parked commit LSN at once. A transaction is never acknowledged
/// before its commit record is durable; the only thing traded away is
/// latency inside the window. Applies to LoggingMode::kClientLocal (the
/// paper's protocol — the one whose commit force is purely local).
struct GroupCommitPolicy {
  bool enabled = false;
  /// Longest a committer parks (simulated time) before the group forces
  /// anyway. 0 = force immediately (coalescing only via group size).
  std::uint64_t window_ns = 1'000'000;
  /// Force as soon as this many committers are parked.
  std::size_t max_group_size = 8;
};

/// Fuzzy online page archiving (media recovery, docs/RECOVERY_WALKTHROUGH.md).
/// When enabled, the node incrementally snapshots its owned pages into a
/// side archive file ("node.archive") — no quiescing: pages are copied at
/// whatever PSN they currently have, dirty or clean, and the distributed
/// redo collection replays them forward from exactly that PSN after a data
/// device loss. Off by default: no archive file is created, no hot-path
/// branch is taken, trace hashes and benchmarks are byte-identical to a
/// build without the subsystem.
struct ArchiveOptions {
  bool enabled = false;
  /// Take one incremental archive pass every N completed checkpoints
  /// (1 = every checkpoint). The pass only rewrites pages whose PSN moved
  /// since they were last archived.
  std::uint32_t every_checkpoints = 1;
};

/// Instant restore (docs/RECOVERY_WALKTHROUGH.md "Instant restore"): after
/// a data-device loss, restart recovery builds only a per-page restore plan
/// and opens the node for traffic immediately; each lost page is rebuilt on
/// first touch (synchronously for the toucher) while a background sweep
/// drains the cold tail. Off by default: recovery rebuilds every lost page
/// eagerly before the node comes up, exactly as before.
struct InstantRestoreOptions {
  bool enabled = false;
  /// Pages the background sweeper rebuilds per invocation.
  std::size_t sweep_batch = 1;
};

/// What kind of update record a transaction writes (adaptive logging,
/// docs/PROTOCOLS.md "Adaptive logging"; after arxiv 1503.03653).
enum class LogStrategy : std::uint8_t {
  /// Full physical ARIES records (redo + undo image) for every update.
  /// The default; recovery behavior is byte-identical to earlier builds.
  kPhysical = 0,
  /// Compact redo-only records while the transaction stays single-node on
  /// its own pages; the node upgrades it to physical records (backfilling
  /// the stashed before-images into the log) the moment a cross-node
  /// dependency or a page steal appears.
  kAdaptive = 1,
};

std::string_view LogStrategyName(LogStrategy s);

/// The unified logging policy: strategy selection, commit-force coalescing,
/// archive cadence, and the restart redo pool size in one value type. A
/// cluster sets it once (ClusterOptions::logging_policy); a node inherits
/// it unless its NodeOptions carry their own.
///
/// Named setters chain, so call sites read as one declaration:
///
///   opts.logging_policy = LoggingPolicy()
///       .WithStrategy(LogStrategy::kAdaptive)
///       .WithGroupCommit(true)
///       .WithRedoWorkers(4);
struct LoggingPolicy {
  LogStrategy strategy = LogStrategy::kPhysical;
  /// Restart redo pool size: worker threads replaying the chain
  /// scheduler's independent transaction chains (docs/RECOVERY_WALKTHROUGH.md
  /// "Redo of self-only pages") in real execution mode. 0 or 1 replays
  /// the chains in order on the node's own thread, as the simulation
  /// always does.
  std::size_t redo_workers = 0;
  GroupCommitPolicy group_commit;
  ArchiveOptions archive;

  LoggingPolicy& WithStrategy(LogStrategy s) {
    strategy = s;
    return *this;
  }
  LoggingPolicy& WithRedoWorkers(std::size_t n) {
    redo_workers = n;
    return *this;
  }
  LoggingPolicy& WithGroupCommit(bool on) {
    group_commit.enabled = on;
    return *this;
  }
  LoggingPolicy& WithGroupCommitWindow(std::uint64_t window_ns,
                                       std::size_t max_group_size) {
    group_commit.enabled = true;
    group_commit.window_ns = window_ns;
    group_commit.max_group_size = max_group_size;
    return *this;
  }
  /// 0 disables archiving; N takes an archive pass every N checkpoints.
  LoggingPolicy& WithArchiveEvery(std::uint32_t every_checkpoints) {
    archive.enabled = every_checkpoints != 0;
    archive.every_checkpoints =
        every_checkpoints != 0 ? every_checkpoints : 1;
    return *this;
  }
};

/// Per-transaction options (TxnHandle::Begin / Node::Begin overloads).
struct TxnOptions {
  /// Overrides the node policy's LogStrategy for this transaction only;
  /// unset = inherit. An override to kAdaptive still obeys every gate
  /// (own pages, kClientLocal mode, page-granular locking).
  std::optional<LogStrategy> strategy;
};

/// Static configuration of one node.
struct NodeOptions {
  /// Directory for this node's database, log, and side files.
  std::string dir;
  /// Buffer pool capacity in frames.
  std::size_t buffer_frames = 256;
  /// Logging protocol (paper vs baselines).
  LoggingMode logging_mode = LoggingMode::kClientLocal;
  /// Bounded log capacity in bytes; 0 = unbounded (Section 2.5 off).
  std::uint64_t log_capacity_bytes = 0;
  /// Whether the node keeps a local log at all. Nodes without local logs
  /// may participate (paper Figure 1) but must use kShipToOwner.
  bool has_local_log = true;
  /// Fine-granularity extension (paper Section 4, the EDBT'96 follow-up):
  /// when true, *local* transactions lock individual records, so several
  /// of them can concurrently use different records of one page.
  /// Inter-node locking and callbacks stay page-granular, preserving the
  /// per-page PSN total order the recovery algorithms require.
  bool local_record_locking = false;
  /// Per-node log-force cost override in nanoseconds; 0 uses the cluster
  /// cost model. Lets benchmarks model asymmetric hardware (fast server
  /// log, slow client disk — the 1996 objection to client logging).
  std::uint64_t log_force_ns_override = 0;
  /// Ablation switch (bench A2): when false, the owner does not send
  /// Section 2.5 flush notifications after forcing a page, so replacers'
  /// DPT entries never advance or drop. Shows why the paper's
  /// notification bookkeeping is load-bearing for log reclamation.
  bool send_flush_notifications = true;
  /// Optional fault injector shared by the whole cluster (not owned); wired
  /// into this node's DiskManager and LogManager on open. nullptr = off.
  FaultInjector* fault_injector = nullptr;
  /// The unified logging policy (strategy, group commit, archive cadence,
  /// redo pool size). Unset = inherit ClusterOptions::logging_policy; a
  /// node built outside a cluster runs the default policy.
  std::optional<LoggingPolicy> logging_policy;
  /// On-demand media recovery: serve traffic while lost pages rebuild at
  /// first touch. Disabled by default (eager rebuild, as before).
  InstantRestoreOptions instant_restore;
  /// Optional structured-event trace sink shared by the whole cluster (not
  /// owned). nullptr = tracing off: every emit point is guarded by one
  /// branch on this pointer, so the default costs nothing.
  TraceSink* trace_sink = nullptr;
};

}  // namespace clog

#endif  // CLOG_NODE_OPTIONS_H_
