#ifndef CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_
#define CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "node/node.h"
#include "recovery/local_recovery.h"
#include "recovery/node_psn_list.h"

/// \file
/// Distributed restart recovery: the paper's Sections 2.3 (single node
/// crash) and 2.4 (multiple node crashes). The restarting node:
///
///  1. rebuilds a superset DPT and the loser set by local log analysis,
///  2. queries every operational node for its cache contents, DPT entries,
///     and lock lists relevant to the crashed node,
///  3. reconstructs lock tables (shared locks it held are released by the
///     peers, exclusive ones retained and reported back),
///  4. determines the pages that may require recovery, fetching the ones
///     still cached at a peer and redo-coordinating the rest across the
///     involved nodes in ascending PSN order via NodePSNLists,
///  5. rolls back its loser transactions and takes a fresh checkpoint.
///
/// Log files are never merged; each node only ever scans its own log.
///
/// Multiple simultaneous crashes run the same three phases, staged across
/// the crashed set by the Cluster (every crashed node completes analysis
/// before any exchanges state, exactly the Section 2.4 requirement that
/// rebuilt DPT supersets are available to the owners).

namespace clog {

/// Drives the restart of one crashed node.
class RestartRecovery {
 public:
  /// Counters describing one restart (benchmark currency).
  struct Stats {
    std::uint64_t analysis_records = 0;    ///< Local log records analyzed.
    std::uint64_t peers_queried = 0;
    std::uint64_t own_pages_recovered = 0; ///< Redo-coordinated own pages.
    std::uint64_t own_pages_fetched = 0;   ///< Taken from a peer's cache.
    std::uint64_t remote_pages_recovered = 0;
    std::uint64_t redo_rounds = 0;         ///< RecoverPage calls issued.
    std::uint64_t redo_applied = 0;        ///< Redo records applied, total.
    std::uint64_t losers_undone = 0;
    std::uint64_t clean_candidates = 0;    ///< Candidates already on disk.
    std::uint64_t sim_ns = 0;              ///< Simulated time consumed.
    // --- Adaptive logging / chain-scheduled redo ---
    std::uint64_t logical_losers_skipped = 0;  ///< Pure-logical: END only.
    std::uint64_t redo_chains = 0;         ///< Independent chains scheduled.
    std::uint64_t parallel_pages = 0;      ///< Pages redone by the scheduler.
    std::uint64_t parallel_applied = 0;    ///< Records the scheduler applied.
    // --- Media recovery (data/log device loss) ---
    std::uint64_t media_candidates = 0;    ///< Probe candidates from device scan.
    std::uint64_t archive_restores = 0;    ///< Bases restored from the archive.
    std::uint64_t pages_poisoned = 0;      ///< Pages fenced as unrecoverable.
    std::uint64_t pages_deferred = 0;      ///< Planned for instant restore.
    bool log_loss_detected = false;        ///< Log shorter than its durable mark.
  };

  explicit RestartRecovery(Node* node) : node_(node) {}

  /// Full single-node restart: all three phases in order.
  Status Run();

  // --- Staged interface for multi-crash orchestration (Section 2.4) ---

  /// Phase A: reopen storage, run local analysis, install the rebuilt DPT,
  /// and become reachable for recovery RPCs (state kRecovering).
  Status OpenAndAnalyze();

  /// Phase B: query peers, reconstruct locks, determine pages, coordinate
  /// redo. Requires every other crashed node to have finished phase A.
  /// Equivalent to ExchangePeerState + RedoPages.
  Status ExchangeAndRecover();

  /// Phase B1: query peers and reconstruct lock state (2.3.1/2.3.3).
  Status ExchangePeerState();

  /// Phase B2: determine and redo the pages needing recovery (2.3.4).
  /// Requires ExchangePeerState.
  Status RedoPages();

  /// Phase C: undo losers, checkpoint, go operational, notify peers.
  Status UndoLosersAndFinish();

  /// Every phase boundary is a safe crash point: a node that dies anywhere
  /// in this sequence is simply restarted from OpenAndAnalyze. Analysis is
  /// read-only; peers' recovery handlers are idempotent per conversation
  /// (HandleRecoveryQuery re-releases released locks, HandleBuildPsnList
  /// resets any stale per-page scan state); redo work re-derives from logs
  /// and disk; undo re-entry is covered by CLR undo_next chains. See
  /// docs/availability.md.

  const Stats& stats() const { return stats_; }

 private:
  /// Requests cache/DPT/lock lists from all reachable peers (2.3.1/2.3.3).
  Status QueryPeers();

  /// Rebuilds the global lock table and lock cache from the peer replies,
  /// and takes exclusive locks for unprotected DPT pages (2.3.3).
  Status ReconstructLocks();

  /// One own page that needs redo: its base image (disk, archive, or PSN
  /// seed) and the nodes whose logs hold its missing history.
  struct RedoWork {
    PageId pid;
    std::unique_ptr<Page> base;
    std::vector<NodeId> involved;  ///< DPT contributors past the disk PSN.
    bool full_history = false;     ///< Rebuilding a lost page from its base.
    bool scheduled = false;        ///< Redone by the chain scheduler.
  };

  /// Determines and recovers pages owned by this node (2.3.1-2.3.4):
  /// collects the candidates, then plans and executes their redo.
  Status RecoverOwnPages();

  /// Plan step: probes for pages a lost data device took, then sorts every
  /// candidate in PageId order. Clean pages drop their DPT entries, fenced
  /// pages stay fenced, media-lost pages defer to instant restore when it
  /// is on, pages a peer still caches are fetched from it, and the rest
  /// become `work`, each with its base image read.
  Status PlanOwnPages(
      std::map<PageId, std::map<NodeId, DptEntry>>* contributors,
      const std::map<PageId, std::vector<NodeId>>& cached_at,
      std::vector<RedoWork>* work, std::uint64_t* deferred_with_peer);

  /// Execute step: gathers the PSN lists, redoes self-only pages with the
  /// chain scheduler, bounces the rest between the involved nodes
  /// (2.3.4), and lands every page in PageId order.
  Status RedoOwnPages(std::vector<RedoWork>* work);

  /// Installs the first copy of `pid` any of `holders` still caches;
  /// false when none does.
  Result<bool> FetchCachedCopy(PageId pid, const std::vector<NodeId>& holders);

  /// Recovers remotely owned pages this node held exclusively (2.3.1 (b)),
  /// resuming at the cursors RedoOwnPages' scan of our log left.
  Status RecoverRemotePages();

  /// A remotely owned page we hold X on: its newest version died with our
  /// cache, so our log must redo it (any other's lives elsewhere).
  bool HeldRemotePage(PageId pid) const {
    return !node_->OwnsPage(pid) &&
           node_->lock_cache_.NodeMode(pid) == LockMode::kExclusive;
  }

  /// Log-device loss: tells every reachable peer which of its pages this
  /// node's destroyed log leaves unrecoverable (the pages it held X on, per
  /// the peers' lock tables), recording durable debts for unreachable
  /// owners, and retries debts owed from earlier losses.
  Status HandleLogLoss();

  /// Own-page recovery when this node's log was destroyed: pages still
  /// cached at a peer are fetched and flushed (a cached copy carries every
  /// committed update); everything else is conservatively poisoned — the
  /// lost log may have held the top of their history.
  Status RecoverOwnPagesAfterLogLoss(
      const std::map<PageId, std::vector<NodeId>>& cached_at);

  /// Batch-builds NodePSNLists: one request per involved peer covering all
  /// its pages (2.3.4). `full_history` asks peers to scan their whole log
  /// ignoring their DPT (torn-page rebuild from the space-map PSN seed).
  Status GatherPsnLists(
      const std::map<NodeId, std::vector<PageId>>& pages_per_node,
      bool full_history,
      std::map<PageId, std::map<NodeId, std::vector<PsnListEntry>>>* out);

  /// Records one phase's duration into the node's `hist_name` histogram and
  /// emits a RECOVERY_PHASE trace event (a=phase index, b=duration ns).
  /// Phase indices match the trace exporter: 0=analyze, 1=exchange, 2=redo,
  /// 3=undo+finish.
  void FinishPhase(std::uint32_t phase, const char* hist_name,
                   std::uint64_t start_ns);

  Node* node_;
  AnalysisResult analysis_;
  std::map<NodeId, RecoveryQueryReply> peer_replies_;
  bool exchange_done_ = false;
  bool log_lost_ = false;  ///< Set by OpenAndAnalyze (log mark mismatch).
  /// Remote pages RedoOwnPages' scan of our log left a cursor for.
  std::vector<PageId> remote_scanned_;
  Stats stats_;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_DISTRIBUTED_RECOVERY_H_
