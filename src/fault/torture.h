#ifndef CLOG_FAULT_TORTURE_H_
#define CLOG_FAULT_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"

/// \file
/// Seeded crash-schedule torture harness. One call runs a whole cluster
/// lifetime — workload, crashes, partitions, torn writes, recoveries —
/// driven entirely by a single uint64 seed, and checks four global
/// invariants throughout:
///
///  1. every committed transaction's effects are durable,
///  2. no aborted (or never-committed) transaction's effects survive,
///  3. per-page PSNs are monotone over time and consistent across caches,
///  4. NodePSNList reconstruction agrees with a ground-truth log scan.
///
/// The same function backs tests/torture_test.cc and the tools/torture
/// CLI, so `tools/torture --seed=N` replays exactly the schedule a failing
/// test names. The schedule hash is a stable FNV-1a over the event trace
/// (no filesystem paths), so two runs of one seed can be diffed cheaply.

namespace clog {

struct TortureOptions {
  std::uint64_t seed = 0;
  int num_nodes = 3;
  int pages_per_node = 2;
  int records_per_page = 4;
  int steps = 40;
  /// Retain the full event trace in the report (CLI --verbose replay).
  bool keep_events = true;
  /// Force a crash-during-recovery event in every repair pass: one
  /// restarting node dies at a seeded phase boundary and must be recovered
  /// from scratch in a later round (docs/availability.md). When false the
  /// schedule still injects these with a small seeded probability.
  bool crash_during_recovery = false;
  /// Run every node with GroupCommitPolicy enabled: commits park and
  /// coalesce forces. The harness polls parked commits each step, never
  /// counts one as committed before its ACK, and treats a crash while
  /// parked as an indeterminate commit (resolved at the next restart).
  bool group_commit = false;
  /// Adaptive-logging mode: the cluster runs with LoggingPolicy
  /// strategy=kAdaptive and a 2-worker redo pool (in simulation the chains
  /// replay sequentially in deterministic order all the same), and each
  /// harness transaction draws a seeded per-transaction strategy override
  /// so compact logical records, physical records, upgrades, and backfills
  /// all interleave in one log.
  /// Two extra checks ride on top of the base invariant set: the invariant
  /// 4 ground-truth scan mirrors the redo skip rule (docs/PROTOCOLS.md),
  /// and the final phase captures every recoverable page's bytes before
  /// the full-cluster crash and requires the joint recovery — logical
  /// replay included — to reconstruct them byte-identically.
  bool adaptive = false;
  /// Media-failure mode: every node runs with fuzzy page archives enabled
  /// (a pass per checkpoint), the scheduled-crash branch sometimes arms a
  /// whole-device loss (data or log) consumed at the crash point, and the
  /// armed I/O fault mix gains transient page-read failures. The harness
  /// then tracks the poison ledger: records on pages fenced as
  /// unrecoverable must read back Corruption — never silent stale data —
  /// and a fifth invariant (archive self-consistency) is checked at the
  /// end. Off by default; healthy-mode schedules are unchanged.
  bool media_failure = false;
  /// Instant-restore hammer: everything media-failure mode does, plus
  /// instant restore enabled on every node — a node that lost its data
  /// device opens for traffic immediately and rebuilds pages on first
  /// touch, with a sweeper draining one page per harness step. Post-restart
  /// model verification samples records (instead of reading all of them)
  /// so restore backlogs survive into the following steps and crashes land
  /// mid-restore. Two invariants ride on top of the media set: a restoring
  /// page never serves stale data (every on-demand rebuild is checked
  /// against the model), and restore completion is crash-re-enterable
  /// without PSN regression (watermarks + the durable restore ledger). The
  /// final phase drains every backlog and asserts nothing is left pending
  /// or recorded in the ledger.
  bool hammer_restore = false;
  /// Elastic-membership mode: a seeded fraction of the steps runs a
  /// membership operation on top of the normal workload — a page handoff
  /// to a random up node via the four-phase crash-restartable protocol, a
  /// JoinNode (the newcomer then receives pages through later handoffs),
  /// or a graceful LeaveNode that drains every owned page round-robin.
  /// Handoffs are sometimes armed to crash one endpoint (source or
  /// target, seeded) at a seeded phase boundary, so the durable handoff
  /// ledgers must re-enter cleanly at the next restart. Three invariants
  /// ride on top of the usual four: every page has exactly one durable
  /// owner claim (never zero, never two), no committed update is lost
  /// across a transfer (every record on a moved page is re-verified from
  /// the new owner), and the durable PSN at the new owner never regresses
  /// below the page's watermark. Off by default; non-elastic schedules
  /// draw nothing extra from the RNG, so their hashes are untouched.
  bool elastic = false;
  /// Force every elastic handoff to crash one endpoint at a seeded phase
  /// boundary (instead of the default seeded probability), so whole
  /// schedules consist of interrupted handoffs and ledger re-entries.
  bool crash_during_handoff = false;
  /// Scratch directory; empty = fresh mkdtemp, removed afterwards.
  std::string scratch_dir;
  /// Per-node capacity of the structured trace ring (newest events win).
  /// The trace hash covers every event ever emitted, not just the ring.
  std::size_t trace_events_per_node = 512;
};

struct TortureReport {
  std::uint64_t seed = 0;
  bool ok = false;
  /// First invariant violation or unexpected error; empty when ok.
  std::string failure;
  /// FNV-1a64 over the event trace; equal hashes = identical schedules.
  std::uint64_t schedule_hash = 0;
  /// Combined TraceSink hash over every node's structured event stream.
  /// Like schedule_hash, equal seeds must produce equal trace hashes.
  std::uint64_t trace_hash = 0;
  /// FNV-1a64 over every node's final data file (`node<N>/node.db`, in
  /// node-id order), read straight from disk after the run. Equal digests
  /// mean every durable page image is byte-identical, so two recovery
  /// engines can be compared on the same seed.
  std::uint64_t page_digest = 0;
  /// On failure: the newest structured trace events per node, formatted
  /// for humans. Empty when the run passed.
  std::string trace_tail;
  std::vector<std::string> events;

  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  std::uint64_t txns_indeterminate = 0;  ///< Commit interrupted by a fault.
  std::uint64_t txns_parked = 0;         ///< Group commit: commits that parked.
  std::uint64_t txns_adaptive = 0;       ///< Begun under LogStrategy::kAdaptive.
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t recovery_crashes = 0;    ///< Crashes at a recovery phase boundary.
  std::uint64_t partitions = 0;
  std::uint64_t reads_checked = 0;       ///< Reads compared to the model.
  std::uint64_t device_losses = 0;       ///< Device faults armed (media mode).
  std::uint64_t log_losses = 0;          ///< Of which destroyed a log device.
  std::uint64_t pages_poisoned = 0;      ///< Pages fenced unrecoverable at the end.
  // Instant-restore counters (hammer mode; summed across nodes):
  std::uint64_t restore_planned = 0;     ///< Pages deferred to instant restore.
  std::uint64_t restore_from_peer = 0;   ///< Rebuilt from a peer's cached copy.
  std::uint64_t restore_from_archive = 0;///< Rebuilt from archive + redo.
  std::uint64_t restore_from_seed = 0;   ///< Rebuilt from seed + full redo.
  std::uint64_t restore_already_durable = 0;  ///< Durable again before touch.
  /// Remote pages restarts redid from their own logs (summed across nodes).
  std::uint64_t remote_pages_recovered = 0;
  // Elastic-membership counters (elastic mode):
  std::uint64_t handoffs = 0;         ///< Page handoffs that completed.
  std::uint64_t handoff_crashes = 0;  ///< Crashes at a handoff phase boundary.
  std::uint64_t joins = 0;            ///< Nodes that joined mid-run.
  std::uint64_t leaves = 0;           ///< Nodes that departed gracefully.
  FaultInjector::Counters faults;

  // Availability-envelope counters (mirrored from the network's metrics):
  // admission retries issued, retries that eventually got through, budgets
  // that ran dry, and heartbeat probes sent.
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_retry_success = 0;
  std::uint64_t rpc_retry_exhausted = 0;
  std::uint64_t hb_probes = 0;

  /// One-line "seed=… verdict=… hash=…" summary for reports and logs.
  std::string Summary() const;
};

/// Runs one complete seeded schedule; never throws, never aborts the
/// process — all violations land in the returned report.
TortureReport RunTortureSchedule(const TortureOptions& options);

}  // namespace clog

#endif  // CLOG_FAULT_TORTURE_H_
