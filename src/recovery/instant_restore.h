#ifndef CLOG_RECOVERY_INSTANT_RESTORE_H_
#define CLOG_RECOVERY_INSTANT_RESTORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "node/archive.h"

/// \file
/// Instant restore: serve traffic during media recovery.
///
/// Eager media recovery (docs/RECOVERY_WALKTHROUGH.md) rebuilds every page
/// lost with the data device before the node leaves restart recovery — the
/// node's time-to-first-commit is the full distributed redo collection. In
/// the paper's architecture that is doubly unfortunate: the redo history of
/// an owner's pages lives in *other nodes'* client logs, so the rebuild is
/// network-bound, and meanwhile the node's own log — the only thing commit
/// latency depends on — is perfectly healthy.
///
/// Instant restore splits "when a page becomes servable" from "whether it
/// is provable". Restart recovery builds only a per-page *restore plan*
/// (which peers cache a copy, which peers' logs hold redo) and the node
/// opens for traffic immediately. The first touch of a restoring page
/// rebuilds it synchronously for the toucher — peer cached copy if one
/// survives, else archive image plus the merged cross-log redo schedule —
/// while a background sweeper drains the cold tail in plan-priority order.
/// Poisoned pages stay fenced exactly as in eager recovery: a rebuild that
/// finds a hole in the PSN schedule records the poison verdict durably and
/// the page refuses service, never serving stale data.
///
/// Crash re-entry is the subtle part. Eager recovery re-detects lost pages
/// by a file-extent check (the recreated device is shorter than the
/// allocation horizon). Instant restore rebuilds pages in workload order,
/// so a high-numbered page restored first re-extends the file and the
/// extent check goes blind while low pages are still holes. The manager
/// therefore keeps a durable *restore ledger* ("node.restore", the same
/// crash-atomic machinery as the poison ledger): every planned page is
/// added before the node opens, removed as each page completes, and any
/// entries found at the next restart are re-probed as lost-page candidates
/// regardless of what the extent check says.

namespace clog {

class Node;

/// How a restoring page was finally made durable again; the `c` payload of
/// the kPageRestored trace event.
enum class RestoreSource : std::uint32_t {
  /// A current image was already durable (written earlier in this restore
  /// epoch by a shipped copy, an eviction, or a previous rebuild).
  kAlreadyDurable = 0,
  kPeerCache = 1,     ///< A peer still cached the page; any cached copy is
                      ///< current.
  kArchiveRedo = 2,   ///< Archive image + merged cross-log redo.
  kSeedRedo = 3,      ///< Formatted seed + full-history merged redo.
  kPoisoned = 4,      ///< Rebuild proved a hole; the poison fence stands.
};

/// Per-node restore state. Owned by Node; all calls run in the node's
/// execution context (inline in simulation, on its worker thread in real
/// mode), so the manager needs no locking of its own.
class InstantRestoreManager {
 public:
  /// One page's restore plan, built by restart recovery from the peer
  /// exchange — everything a later on-demand rebuild needs, so the rebuild
  /// itself never depends on recovery-time state that a crash would lose.
  struct Plan {
    PageId pid;
    /// Peers that reported a cached copy of the page at plan time. A cached
    /// copy carries every update ever made (PSNs are totally ordered per
    /// page), so fetching one is a complete restore. Clean copies may be
    /// evicted at any moment — candidates are a fast path, never load-bearing.
    std::vector<NodeId> peer_candidates;
    /// Peers whose client logs may hold redo for this page (everyone that
    /// answered the recovery query, plus ourselves implicitly). The rebuild
    /// re-asks each for a fresh full-history PSN list at touch time.
    std::vector<NodeId> redo_sources;
    /// Plan-time evidence of heat: contributors + cachers. The sweeper
    /// drains hotter pages first; on-demand touches jump the queue anyway.
    std::uint32_t priority = 0;
  };

  /// Loads the durable restore ledger ("node.restore") under `dir` and
  /// clears any volatile plans. Called from Node::OpenStorage.
  Status Open(const std::string& dir);

  /// Drops all volatile state (plans, epoch markers). The ledger file on
  /// disk is untouched — it is exactly what the next restart re-probes.
  void Reset();

  bool active() const { return !plans_.empty(); }
  std::size_t pending() const { return plans_.size(); }
  bool IsRestoring(PageId pid) const {
    return !plans_.empty() && plans_.contains(pid.Pack());
  }

  /// True while RestoreOne for *this page* is on the current call stack;
  /// Node's touch hooks no-op then, so the rebuild's own page forces
  /// cannot recurse into another rebuild of the same page. Per-page on
  /// purpose: in real mode a blocked rebuild conversation re-enters the
  /// node's mailbox at wait points, and an interleaved work item touching
  /// a *different* restoring page must still get its first-touch rebuild
  /// rather than fall through to the hole-ridden device.
  bool in_restore(PageId pid) const {
    for (std::uint64_t packed : in_restore_pids_) {
      if (packed == pid.Pack()) return true;
    }
    return false;
  }

  /// Packed PageIds recorded in the durable ledger — pages a previous,
  /// interrupted restore epoch planned but never finished. Restart recovery
  /// must treat them as lost-page candidates even when the extent check
  /// passes.
  std::vector<std::uint64_t> LedgerEntries() const;

  /// Records `plan` durably (ledger first, then the in-memory plan): a
  /// crash after Plan() re-probes the page, a crash before it re-detects
  /// the loss by extent. Called by restart recovery's PlanOwnPages.
  Status Add(Plan plan);

  /// Durably forgets a ledger entry without a rebuild — the eager path
  /// finished this page itself (instant restore disabled on re-entry).
  Status Forget(PageId pid);

  /// Marks the moment the node opened for traffic with restores pending;
  /// the next successful commit records restore.first_commit_ns.
  void BeginEpoch(std::uint64_t now_ns);

  /// Cheap hot-path gate for the first-commit metric.
  bool first_commit_pending() const { return first_commit_pending_; }

  /// Records restore.first_commit_ns once per epoch.
  void NoteCommit(Node* node, std::uint64_t now_ns);

  /// Synchronously rebuilds one page; idempotent (OK if not restoring).
  /// The ladder: already-durable image, peer cached copy, archive image +
  /// merged redo, seed + full-history redo — or a durable poison verdict
  /// when the schedule has a hole. Unavailable (page still restoring, no
  /// data served) when a redo source is down: correctness never yields to
  /// availability.
  Status RestoreOne(Node* node, PageId pid);

  /// Rebuilds up to `max_pages` pending pages in priority order; stops
  /// early if a rebuild blocks on a down peer. Returns pages completed.
  std::size_t Sweep(Node* node, std::size_t max_pages);

 private:
  Status Finish(Node* node, PageId pid, Psn psn, RestoreSource source,
                std::uint64_t t0_ns);

  PoisonLedger ledger_;  ///< Durable "node.restore"; same format as poison.
  std::map<std::uint64_t, Plan> plans_;  ///< Packed PageId -> plan.
  /// Stack of packed PageIds whose RestoreOne is on the current call
  /// stack (nested conversations unwind LIFO, so push/pop suffices).
  std::vector<std::uint64_t> in_restore_pids_;
  bool first_commit_pending_ = false;
  std::uint64_t epoch_start_ns_ = 0;
  std::uint64_t restored_this_epoch_ = 0;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_INSTANT_RESTORE_H_
