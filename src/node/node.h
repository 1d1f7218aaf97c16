#ifndef CLOG_NODE_NODE_H_
#define CLOG_NODE_NODE_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/dirty_page_table.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "core/membership.h"
#include "lock/deadlock_detector.h"
#include "lock/lock_cache.h"
#include "lock/lock_manager.h"
#include "net/network.h"
#include "node/archive.h"
#include "node/handoff_ledger.h"
#include "node/options.h"
#include "recovery/instant_restore.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/space_map.h"
#include "txn/txn_table.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

/// \file
/// A processing node of the distributed architecture (paper Figure 1): the
/// composition of buffer pool, local WAL, lock manager (both the owner-side
/// global table for pages it owns and the requester-side cache), dirty page
/// table, and transaction table. Nodes execute transactions entirely
/// locally, fetch remote pages through the callback-locking page service,
/// log every update to their own local log, and commit without any
/// communication (LoggingMode::kClientLocal).

namespace clog {

class RestartRecovery;  // recovery/ implements crash restart; friend below.

/// Runtime availability of a node.
enum class NodeState : std::uint8_t {
  kDown = 0,        ///< Crashed: volatile state lost, files intact.
  kRecovering = 1,  ///< Serving recovery RPCs only.
  kUp = 2,          ///< Normal processing.
};

/// One node. Construct, then Start(). All methods are single-threaded by
/// design (deterministic simulation; DESIGN.md Section 4).
class Node : public NodeService {
 public:
  /// `network`, `clock`, and `detector` are cluster-shared and must outlive
  /// the node.
  Node(NodeId id, NodeOptions options, Network* network,
       DeadlockDetector* detector);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Opens files and registers with the network. Fresh directories start an
  /// empty database; existing ones are reattached (restart goes through
  /// Cluster/RestartRecovery instead).
  Status Start();

  /// Simulates a crash: all volatile state (cache, lock tables, DPT, active
  /// transactions, unflushed log tail) is destroyed; disk files survive.
  void Crash();

  NodeId id() const { return id_; }
  NodeState state() const { return state_.load(std::memory_order_acquire); }
  const NodeOptions& options() const { return options_; }

  /// Runtime tweaks for benchmark ablations.
  void set_send_flush_notifications(bool on) {
    options_.send_flush_notifications = on;
  }
  void set_log_force_ns_override(std::uint64_t ns) {
    options_.log_force_ns_override = ns;
  }

  // ---------------------------------------------------------------------
  // Data definition (owner-side, outside transactions)
  // ---------------------------------------------------------------------

  /// Allocates and formats a fresh page in this node's database. The
  /// initial PSN comes from the space allocation map (ARIES/CSA seeding).
  /// Durable before return.
  Result<PageId> AllocatePage();

  /// Frees `pid` (must be owned by this node and not locked remotely).
  Status FreePage(PageId pid);

  // ---------------------------------------------------------------------
  // Elastic membership (node/handoff.cc; docs/PROTOCOLS.md "Membership &
  // ownership handoff")
  // ---------------------------------------------------------------------

  /// Attaches the cluster-shared ownership directory. Must be set before
  /// Start(); nullptr (the default) means every page is owned by its home
  /// node and handoffs are refused.
  void set_directory(OwnershipDirectory* directory) { directory_ = directory; }

  /// Current owner of `pid`: the directory entry if the page has moved,
  /// else its home node.
  NodeId OwnerOf(PageId pid) const {
    return directory_ == nullptr ? pid.owner : directory_->OwnerOf(pid);
  }

  /// True iff this node is the page's *current* owner (home pages it has
  /// not ceded, plus pages it has adopted).
  bool OwnsPage(PageId pid) const { return OwnerOf(pid) == id_; }

  /// Phase 1: validates eligibility (owned here, no local transaction on
  /// the page, not poisoned/restoring, target up), fences the page against
  /// new work, and durably records the handoff intent.
  Status HandoffPrepare(PageId pid, NodeId target);

  /// Phase 2: quiet durable force — makes the local durable copy current
  /// (steal fence + WAL + page write) *without* notifying replacers (their
  /// un-advanced RedoLSNs travel to the target with the offer), then
  /// durably marks the handoff shipped.
  Status HandoffShip(PageId pid);

  /// Phase 3: sends the HandoffOffer (image + PSN + history seed +
  /// replacer set + lock residue). The target's durable adoption record is
  /// the protocol's commit point. A refusal aborts the handoff; an
  /// unreachable target leaves it in doubt (resolved by
  /// ResolvePendingHandoffs).
  Status HandoffTransfer(PageId pid);

  /// Phase 4: durably writes the ceded tombstone and drops the old owner's
  /// volatile per-page state (replacers, global-lock entries, unlocked
  /// cache frames), lifting the fence.
  Status HandoffComplete(PageId pid);

  /// Crash re-entry: walks the ledger's in-flight records. Prepared
  /// handoffs abort locally; shipped ones ask the target (kHandoffQuery)
  /// whether it adopted and complete or abort accordingly. An unreachable
  /// target leaves the page fenced in doubt — rerun later. `resolved`
  /// (optional) counts the records settled this pass.
  Status ResolvePendingHandoffs(std::size_t* resolved = nullptr);

  /// Pages this node currently owns: home pages not ceded plus adopted
  /// pages (drain enumeration for graceful leave).
  std::vector<PageId> OwnedPages() const;

  /// Graceful-leave epilogue, run after every owned page has been drained:
  /// returns every cached node-level lock on other owners' pages (shipping
  /// dirty copies home under WAL first) and asks those owners to force the
  /// pages durable, so this node's log stops being anyone's redo source
  /// (Section 2.5) and no owner's global lock table keeps an entry for a
  /// node that will never answer a callback again. Refuses while local
  /// transactions are active.
  Status PrepareDeparture();

  /// Ownership ledger introspection (tests, torture invariants).
  const HandoffLedger& handoff() const { return handoff_; }

  // ---------------------------------------------------------------------
  // Transactions
  // ---------------------------------------------------------------------

  /// Starts a transaction on this node. `opts` may override the node
  /// LoggingPolicy's LogStrategy for this one transaction (adaptive
  /// logging); the default inherits the policy.
  Result<TxnId> Begin(TxnOptions opts = {});

  /// Commits. In kClientLocal this forces the local log only — the paper's
  /// headline: zero messages, no page forces. Baselines pay their protocol.
  /// With GroupCommitPolicy enabled this is the synchronous form: the
  /// caller leads a group force that also completes every other parked
  /// committer (CommitRequest + FlushCommitGroup).
  Status Commit(TxnId txn);

  // --- Group commit (GroupCommitPolicy; docs/PROTOCOLS.md) ---

  /// Asynchronous commit entry: appends the commit record and *parks* the
  /// transaction until a shared force covers its commit LSN. Returns true
  /// when the transaction is already durable and finished (policy off —
  /// plain Commit ran — or this request filled the group and led the
  /// force); false when parked (caller must PollCommit until true).
  Result<bool> CommitRequest(TxnId txn);

  /// Checks on a parked commit. Still inside the coalescing window: returns
  /// false (nothing charged). Window expired: leads the group force and
  /// returns true. Also true when the transaction already completed via
  /// someone else's force.
  Result<bool> PollCommit(TxnId txn);

  /// Forces the log up to the highest parked commit LSN (one force, one
  /// charge) and completes every covered committer. No-op when nothing is
  /// parked.
  Status FlushCommitGroup();

  /// Rolls the transaction back entirely and ends it.
  Status Abort(TxnId txn);

  /// Declares a named savepoint (paper Section 2.2 partial rollback).
  Status SetSavepoint(TxnId txn, const std::string& name);

  /// Undoes everything after the savepoint; the transaction stays active.
  Status RollbackToSavepoint(TxnId txn, const std::string& name);

  // --- Record operations (page-granularity locking, Section 2.1) ---

  /// Inserts `payload` into `pid` (local or remote page), returning the
  /// record id. Busy/Deadlock surface lock conflicts; the caller retries or
  /// aborts (Transaction::last_blockers has the waits-for edge targets).
  Result<RecordId> Insert(TxnId txn, PageId pid, Slice payload);

  /// Reads the record (S lock).
  Result<std::string> Read(TxnId txn, RecordId rid);

  /// Overwrites the record (X lock).
  Status Update(TxnId txn, RecordId rid, Slice payload);

  /// Deletes the record (X lock).
  Status Delete(TxnId txn, RecordId rid);

  /// All live records in a page (S lock).
  Result<std::vector<std::string>> ScanPage(TxnId txn, PageId pid);

  /// Blockers reported by the last Busy result for `txn` (waits-for edges).
  std::vector<TxnId> LastBlockers(TxnId txn) const;

  // ---------------------------------------------------------------------
  // Checkpointing (Section 2.2: fuzzy, fully local, no synchronization)
  // ---------------------------------------------------------------------

  /// Takes a fuzzy checkpoint: logs the DPT and active-transaction table,
  /// forces the log, and advances the master pointer. Sends no messages.
  Status Checkpoint();

  // ---------------------------------------------------------------------
  // Log space management (Section 2.5)
  // ---------------------------------------------------------------------

  /// Frees log space until at least `needed_bytes` fit, by repeatedly
  /// evicting/forcing the page with the minimum RedoLSN and asking its
  /// owner to force it to disk.
  Status ReclaimLogSpace(std::uint64_t needed_bytes);

  // ---------------------------------------------------------------------
  // NodeService (peer-facing RPC handlers)
  // ---------------------------------------------------------------------

  Status HandleLockPage(NodeId from, PageId pid, LockMode mode, bool want_page,
                        LockPageReply* reply) override;
  Status HandleCallback(NodeId from, PageId pid, LockMode downgrade_to,
                        CallbackReply* reply) override;
  Status HandleUnlockNotice(NodeId from, PageId pid) override;
  Status HandlePageShip(NodeId from, const Page& page) override;
  Status HandleFlushRequest(NodeId from, PageId pid) override;
  void HandleFlushNotify(NodeId from, PageId pid, Psn flushed_psn) override;
  Status HandleLogShip(NodeId from, const std::vector<LogRecord>& records,
                       bool force) override;
  Status HandleRecoveryQuery(NodeId crashed, RecoveryQueryReply* reply) override;
  Status HandleFetchCachedPage(NodeId from, PageId pid,
                               std::shared_ptr<Page>* page) override;
  Status HandleBuildPsnList(NodeId from, const std::vector<PageId>& pages,
                            bool full_history, PsnListReply* reply) override;
  Status HandleRecoverPage(NodeId from, PageId pid, const Page& page_in,
                           bool has_bound, Psn bound,
                           RecoverPageReply* reply) override;
  Status HandleDptShip(NodeId from, const std::vector<DptEntry>& entries,
                       const std::vector<PageId>& cached_pages) override;
  void HandleNodeRecovered(NodeId who) override;
  Status HandleLogLossNotice(NodeId from,
                             const std::vector<PageId>& pages) override;
  Status HandleHandoffOffer(NodeId from, const HandoffOffer& offer,
                            HandoffOfferReply* reply) override;
  Status HandleHandoffQuery(NodeId from, PageId pid,
                            HandoffQueryReply* reply) override;
  PeerHealth HandlePing() override;

  /// HandleBuildPsnList with a mode per page: one scan of the local log
  /// serves partial pages (records from the DPT RedoLSN on) and
  /// full-history pages (every record) together. `full_history[i]` is the
  /// mode of `pages[i]`.
  Status BuildPsnLists(const std::vector<PageId>& pages,
                       const std::vector<bool>& full_history,
                       PsnListReply* reply);

  // ---------------------------------------------------------------------
  // Introspection (tests, benchmarks, recovery)
  // ---------------------------------------------------------------------

  const DirtyPageTable& dpt() const { return dpt_; }
  const BufferPool& pool() const { return pool_; }
  const LockCache& lock_cache() const { return lock_cache_; }
  const GlobalLockTable& global_locks() const { return global_locks_; }
  const TxnTable& txns() const { return txns_; }
  LogManager& log() { return log_; }
  DiskManager& disk() { return disk_; }
  Metrics& metrics() { return metrics_; }
  Network* network() { return network_; }
  TraceSink* trace() { return trace_; }
  /// Section 2.3.4 conversation state: where the next RecoverPage round
  /// resumes per page, and the adaptive-logging redo skip set.
  const std::map<PageId, Lsn>& recovery_cursors() const {
    return recovery_cursor_;
  }
  const std::set<TxnId>& recovery_skip_txns() const {
    return recovery_skip_txns_;
  }

  /// PSN of the disk version of an owned page (recovery comparisons).
  Result<Psn> DiskPsn(PageId pid);

  // --- Media failure (docs/RECOVERY_WALKTHROUGH.md "Media recovery") ---

  /// The fuzzy page archive (open iff
  /// options().logging_policy->archive.enabled).
  const PageArchive& archive() const { return archive_; }

  /// Owned pages whose committed state is unrecoverable; they refuse
  /// service with Corruption until (if ever) a rebuild reaches the PSN the
  /// ledger records as needed.
  bool IsPoisoned(PageId pid) const { return poison_.Contains(pid); }
  std::vector<PageId> PoisonedPages() const;

  /// Durably marks own page `pid` unrecoverable: every service path
  /// (lock grants, fetches, frees) fails with Corruption from now on.
  /// `needed_psn` is the first PSN of the missing history — a later
  /// rebuild that reaches it clears the entry; kPsnUnrecoverable never
  /// clears. Idempotent (keeps the tighter needed PSN).
  Status PoisonOwnPage(PageId pid, Psn needed_psn);

  /// Clears the poison entry after a gap-free rebuild reached the needed
  /// PSN (called by RestartRecovery only).
  Status UnpoisonPage(PageId pid);

  // --- Instant restore (docs/RECOVERY_WALKTHROUGH.md "Instant restore") ---

  /// Restore state for pages lost with the data device (open iff restores
  /// are pending: IsRestoring/pending/ledger introspection for tests and
  /// the torture harness).
  const InstantRestoreManager& restore() const { return restore_; }

  /// True while `pid` is planned for rebuild but not yet rebuilt. Such a
  /// page is *servable*: the first touch rebuilds it synchronously.
  bool IsRestoring(PageId pid) const { return restore_.IsRestoring(pid); }

  /// Pages still awaiting rebuild (0 = not in a restore epoch).
  std::size_t RestorePendingCount() const { return restore_.pending(); }

  /// Background drain: rebuilds up to `max_pages` pending pages (0 = the
  /// configured sweep batch) in plan-priority order. Returns the number of
  /// pages still pending afterwards. Driven by the cluster's sweeper (a
  /// dedicated thread in real mode, scheduled work in simulation) and
  /// callable directly by tests. No-op unless up and restoring.
  std::size_t SweepRestore(std::size_t max_pages = 0);

  /// Runs one fuzzy archive pass over all owned pages: copies every page
  /// whose PSN moved since it was last archived (newest cached version if
  /// present, else the disk version) and seals the pass. Called from
  /// Checkpoint() after the log force — that ordering is the archive's WAL
  /// rule (see node/archive.h). Public so tests and tools can force one.
  Status ArchivePass();

  /// Archive self-check (torture invariant): every sealed entry must be
  /// restorable with a valid checksum at exactly the recorded PSN, and no
  /// recorded PSN may exceed the page's current PSN where that is known.
  Status CheckArchiveConsistency();

  /// Validates the node's internal cross-structure invariants (dirty
  /// pages vs locks vs DPT, transaction-holder liveness, clean-page
  /// disk agreement when `deep`). Returns FailedPrecondition describing
  /// the first violation. Used by the property tests after every step.
  Status CheckInvariants(bool deep = false);

  /// Multi-line human-readable state dump (cache, DPT, locks, txns) for
  /// debugging and the tools.
  std::string DebugString() const;

  /// Raw bytes of the newest local version of own page `pid` (cached frame
  /// if present, else disk). Torture uses this for the adaptive-logging
  /// invariant: post-recovery page bytes must equal the pre-crash bytes.
  Result<std::string> DebugPageImage(PageId pid);

 private:
  friend class RestartRecovery;
  friend class InstantRestoreManager;  // recovery/instant_restore.cc

  // --- Internal helpers (node.cc) ---

  /// Opens database, space map, and log files under options_.dir.
  Status OpenStorage();

  /// Installs a page image shipped by `from` into the local pool as the
  /// newest dirty version of one of our own pages (guarded by PSN).
  Status InstallShippedCopy(const Page& page, NodeId from);

  /// Acquires a page-granularity `mode` on `pid` for `txn` and brings the
  /// page into the cache. Implements the full Section 2.2 flow: local lock
  /// cache, owner request, callbacks, page transfer. On Busy fills
  /// txn->last_blockers.
  Result<Page*> AcquirePage(Transaction* txn, PageId pid, LockMode mode);

  /// Record-granularity variant (fine-granularity extension); falls back
  /// to AcquirePage when the option is off.
  Result<Page*> AcquireRecord(Transaction* txn, RecordId rid, LockMode mode);

  /// Obtains the node-level lock on `pid` from the owner (running the
  /// callback protocol there) without granting any transaction-level lock.
  /// Busy fills txn->last_blockers.
  Status EnsureNodeLock(Transaction* txn, PageId pid, LockMode mode);

  /// Availability layer: Unavailable while `owner` is parked (recovering
  /// and not yet heard NodeRecovered from), OK otherwise. Parks expire
  /// after the policy's park TTL in case the broadcast was lost.
  Status CheckOwnerAvailable(NodeId owner);

  /// Availability layer: on a NodeDown from `owner`, probe it; a
  /// *recovering* owner parks the request (Unavailable — retry after
  /// NodeRecovered) instead of bouncing NodeDown to the transaction.
  Status NoteOwnerFailure(NodeId owner, Status st);

  /// EnsureNodeLock + page fetch (used by Insert, which must examine the
  /// page to pick a slot before it can take a record lock).
  Result<Page*> EnsureNodePage(Transaction* txn, PageId pid, LockMode mode);

  /// Ensures the page image is in the pool (lock already held).
  Result<Page*> FetchPage(PageId pid);

  /// Disk read of an own page with one retry on IOError: a transient read
  /// fault (injected or a real device hiccup) is not fail-stop material the
  /// way a lying write is, so every critical read path absorbs one.
  Status ReadOwnPage(std::uint32_t page_no, Page* out);

  /// Durable-store read seam for a page this node currently owns: home
  /// pages come from the database file, adopted pages from the handoff
  /// ledger's adopted store.
  Status ReadDurablePage(PageId pid, Page* out);

  /// Durable-store write seam (counterpart of ReadDurablePage). Charges a
  /// disk write either way.
  Status WriteDurablePage(PageId pid, Page* page);

  /// PSN the durable history of owned page `pid` was seeded at: the space
  /// map for home pages, the adoption record for adopted ones.
  Psn DurableSeedPsn(PageId pid) const;

  /// Rebuilds volatile handoff state from the ledger after (re)start:
  /// fences for in-flight records, directory registration for settled
  /// adoptions.
  void RegisterHandoffState();

  /// Owner-side: newest version of own page `pid` (cache, else disk).
  Result<Page*> OwnLatestPage(PageId pid);

  /// Instant-restore touch hook: synchronously rebuilds `pid` if it is
  /// still restoring, before any path that would read its disk image or
  /// poison verdict. No-op (one branch) outside a restore epoch, and while
  /// a rebuild is already on the stack.
  Status EnsureRestored(PageId pid);

  // --- Page rebuild, shared by restart recovery and instant restore
  // (page_service.cc) ---

  /// Fills `base` with the starting image for rebuilding own page `pid`,
  /// whose durable copy is gone: the newest archived image when one exists
  /// for this incarnation, else an empty page at the durable PSN seed.
  /// Returns true when the image came from the archive.
  bool LostPageBase(PageId pid, Page* base);

  /// What one ReplayPsnRuns call did.
  struct PsnReplay {
    std::uint64_t rounds = 0;   ///< RecoverPage rounds issued.
    std::uint64_t applied = 0;  ///< Redo records applied.
    bool poisoned = false;      ///< A PSN hole fenced the page.
  };

  /// Section 2.3.4 steps 2-4 for own page `pid`: merges `lists` into
  /// ascending PSN runs and bounces `page` through them, one RecoverPage
  /// round per run (self rounds bypass the network), each bounded just
  /// below the next run's PSN. Runs wholly below the page's PSN are
  /// skipped. A run starting above it proves records no surviving log
  /// holds: the page is poisoned durably, `poisoned` is set and `page` is
  /// left where the replay stopped.
  Status ReplayPsnRuns(
      PageId pid, const std::map<NodeId, std::vector<PsnListEntry>>& lists,
      Page* page, PsnReplay* out);

  /// Lands rebuilt image `page` of own page `pid`: installs it dirty in the
  /// pool, records every other node in `lists` as a replacer, forces it
  /// (the flush notifications let every contributor clear its DPT entry),
  /// lifts a poison entry whose needed PSN the rebuild reached, and counts
  /// recovery.pages_recovered.
  Status LandRebuiltPage(
      PageId pid, const Page& page,
      const std::map<NodeId, std::vector<PsnListEntry>>& lists);

  /// WAL for page transfer: before any image of `pid` leaves this node
  /// (grant-time transfer, callback, ship, recovery fetch), every local
  /// log record describing it must be durable — otherwise a page whose
  /// history includes records lost with a crashed log tail could never be
  /// redone in PSN order.
  Status WalBeforePageLeaves(PageId pid, const Page* page);

  /// Logs one update, applies it, maintains PSN/DPT/dirty bits.
  Status LoggedUpdate(Transaction* txn, Page* page, RecordOp op, SlotId slot,
                      Slice redo_image, Slice undo_image);

  // --- Adaptive logging (LogStrategy::kAdaptive; logging_strategy.cc) ---

  /// True when `txn`'s next update on `pid` may be logged as a compact
  /// redo-only kLogicalUpdate: adaptive strategy, not yet upgraded, own
  /// page, kClientLocal mode, page-granular locking.
  bool TxnLogsLogical(const Transaction* txn, PageId pid) const;

  /// Upgrades an adaptive transaction to physical logging: appends one
  /// kUndoBackfill carrying every stashed before-image (nothing if the
  /// stash is empty) and marks it upgraded. Idempotent.
  Status UpgradeTxnToPhysical(Transaction* txn);

  /// Page-steal fence: before an image of own page `pid` containing live
  /// logical updates becomes durable anywhere (eviction write, force,
  /// archive copy), every contributing transaction is upgraded and the
  /// backfill records are forced. One branch when no logical txns live.
  Status PrepareSteal(PageId pid);

  /// Stamps an adaptive transaction's commit record: the logical flag and
  /// the dependency edges gathered while it ran. No-op (zero bytes added)
  /// for physical transactions.
  void FillCommitMeta(const Transaction* txn, LogRecord* commit) const;

  /// Remembers `txn` as the last committed writer of each page it updated
  /// (dependency-edge source for later adaptive commits).
  void NoteCommittedPages(const Transaction* txn, Lsn commit_lsn);

  /// Transaction-end bookkeeping for the live-logical-txn count.
  void ReleaseLogicalState(const Transaction* txn);

  /// Applies the inverse of `rec` to its page and writes the CLR.
  Status UndoOne(Transaction* txn, const LogRecord& rec, Lsn rec_lsn);

  /// Rolls back to `target_lsn` exclusive (kNullLsn = full rollback).
  Status RollbackTo(Transaction* txn, Lsn target_lsn);

  /// Buffer pool eviction policy (write-in-place / ship-to-owner + WAL).
  Status OnEviction(PageId pid, Page* page, bool dirty);

  /// Owner-side: force own page to disk and notify replacers.
  Status ForceOwnPage(PageId pid);

  /// Ships a copy of a dirty remotely-owned page to its owner without
  /// evicting it (WAL first); used by Section 2.5 log-space pressure when
  /// the victim page is pinned or worth keeping cached.
  Status ShipDirtyCopy(PageId pid);

  /// Recomputes the log reclaim horizon from DPT and active transactions.
  void AdvanceReclaimHorizon();

  /// Baseline B1: ship `txn`'s pending records covering `pid` (WAL-to-owner
  /// before the page moves), or all pending at commit.
  Status ShipPendingRecords(Transaction* txn, bool force,
                            const PageId* only_page);

  /// Appends to the local log, retrying once after log-space reclamation.
  Status AppendWithReclaim(const LogRecord& rec, Lsn* lsn);

  /// The one gate every log force goes through: flushes up to `lsn`,
  /// charges the force cost only if the log actually hit the disk (the
  /// LogManager no-ops when `lsn` is already durable), and lets any parked
  /// group commits covered by the new durable horizon complete for free —
  /// the absorbed-force half of group commit.
  Status ForceLog(Lsn lsn);

  /// True when commits on this node coalesce (policy on + kClientLocal).
  bool GroupCommitEnabled() const;

  /// Finishes every parked committer whose commit record is now durable:
  /// END record, lock release, commit acknowledged. Called after every
  /// force (ForceLog) — group-led or absorbed.
  Status CompleteCoveredCommits();

  /// Charges simulated time for local disk/log work.
  void ChargeDiskRead();
  void ChargeDiskWrite();
  void ChargeLogForce();
  void ChargeCpuOp();

  NodeId id_;
  NodeOptions options_;
  Network* network_;
  DeadlockDetector* detector_;
  /// Atomic: peers probe it from other threads (HandlePing answers off the
  /// mailbox) and the cluster controller polls liveness while the node's
  /// worker runs. All writes stay on the node's own execution context.
  std::atomic<NodeState> state_{NodeState::kDown};

  /// Joint-restart sub-phase (Section 2.4): true once this node's redo pass
  /// (ExchangeAndRecover) has completed, at which point the recovery fences
  /// on its own pages may be yielded to peers' undo passes.
  bool recovery_redo_done_ = false;

  DiskManager disk_;
  SpaceMap space_map_;
  LogManager log_;
  /// Elastic membership (node/handoff.cc): durable ownership ledger plus
  /// the cluster-shared routing directory (not owned; nullptr in
  /// single-node unit setups). `handoff_fenced_` holds pages with an
  /// in-flight outbound handoff: new lock grants and local acquisitions
  /// answer Busy until the handoff completes, aborts, or resolves.
  HandoffLedger handoff_;
  OwnershipDirectory* directory_ = nullptr;
  std::set<PageId> handoff_fenced_;
  /// Media-recovery side state (node/archive.h). The archive is open only
  /// when options_.logging_policy->archive.enabled; the poison ledger is
  /// always loaded but keeps no file while empty, so both cost nothing on
  /// healthy nodes.
  PageArchive archive_;
  PoisonLedger poison_;
  /// Instant restore (recovery/instant_restore.h): per-page rebuild plans
  /// plus the durable "node.restore" ledger. Volatile plans are rebuilt by
  /// restart recovery; empty (and file-less) on healthy nodes.
  InstantRestoreManager restore_;
  /// Checkpoints completed since the last archive pass (pass cadence).
  std::uint32_t ckpts_since_archive_ = 0;
  BufferPool pool_;
  DirtyPageTable dpt_;
  LockCache lock_cache_;
  GlobalLockTable global_locks_;
  TxnTable txns_;
  Metrics metrics_;

  /// Structured-event tracing (docs/observability.md); nullptr = off, and
  /// every emit is guarded by a branch on this pointer.
  TraceSink* trace_ = nullptr;

  /// Pre-registered handles for the steady-state metrics so the hot paths
  /// do no string hashing. Metrics elements are reference-stable and
  /// Reset() clears values in place, so these never dangle.
  Counter* ctr_txn_begins_ = nullptr;
  Counter* ctr_txn_commits_ = nullptr;
  Counter* ctr_txn_aborts_ = nullptr;
  Counter* ctr_txn_updates_ = nullptr;
  Counter* ctr_txn_reads_ = nullptr;
  Counter* ctr_disk_page_reads_ = nullptr;
  Counter* ctr_disk_page_writes_ = nullptr;
  Counter* ctr_log_forces_ = nullptr;
  Histogram* hist_commit_ns_ = nullptr;
  Histogram* hist_force_ns_ = nullptr;

  /// Adaptive-logging accounting (introspect reports these per strategy).
  Counter* ctr_txn_begins_adaptive_ = nullptr;
  Counter* ctr_txn_commits_logical_ = nullptr;
  Counter* ctr_txn_logical_records_ = nullptr;
  Counter* ctr_txn_upgrades_ = nullptr;

  /// Owner-side flush bookkeeping: for each own page, the peers that
  /// shipped dirty copies (or contributed recovery redo) and await a flush
  /// notification (Sections 2.2/2.5).
  std::map<PageId, std::set<NodeId>> replacers_;

  /// LSN of the last complete checkpoint's begin record: restart analysis
  /// starts here, so the log cannot be reclaimed past it.
  Lsn last_ckpt_begin_ = kNullLsn;

  /// Recovery-scan state (Section 2.3.4): where the next RecoverPage round
  /// resumes in the local log, and how many redo records were applied so
  /// far, per page under recovery.
  std::map<PageId, Lsn> recovery_cursor_;
  std::map<PageId, std::uint64_t> recovery_applied_;

  /// Adaptive logging: number of active transactions currently holding
  /// un-backfilled logical records. Zero on every physical-only node, so
  /// the steal fence costs one branch.
  std::size_t live_logical_txns_ = 0;

  /// Last committed writer per page (txn id + commit LSN), volatile.
  /// Adaptive transactions copy the entries for pages they touch into
  /// their commit record as dependency edges. Maintained only in
  /// kClientLocal mode; cleared on crash.
  std::map<PageId, CommitDep> page_last_commit_;

  /// Recovery skip set (adaptive logging): transactions whose
  /// kLogicalUpdate records are excluded from redo and PSN lists — they
  /// logged logical records but have neither a kCommit nor a kUndoBackfill
  /// in the log, so their records are a provably-volatile PSN tail.
  /// Computed by BuildPsnLists, consulted by HandleRecoverPage.
  std::set<TxnId> recovery_skip_txns_;

  /// Multi-crash staging (Section 2.4): DPT entries / cached-page lists
  /// shipped by recovering peers for pages this node owns, with senders.
  std::map<PageId, std::vector<std::pair<NodeId, DptEntry>>>
      foreign_dpt_entries_;
  std::map<PageId, std::set<NodeId>> foreign_cached_;

  /// Availability layer: owners known to be mid-recovery, with the
  /// simulated time each was parked. Requests to a parked owner return
  /// Unavailable until its NodeRecovered broadcast (or the park TTL)
  /// clears the entry. Volatile: cleared on crash.
  std::map<NodeId, std::uint64_t> parked_owners_;

  /// B1 only: client log records land here at the owner.
  std::uint64_t b1_received_records_ = 0;

  /// Group commit: committers whose commit record is appended but not yet
  /// durable, in park order. Volatile — a crash loses the group, and each
  /// member becomes indeterminate exactly like a crash mid-force (the
  /// commit record may or may not survive in the torn tail). Cleared in
  /// Crash().
  struct ParkedCommit {
    TxnId txn = kInvalidTxnId;
    Lsn commit_lsn = kNullLsn;
    std::uint64_t parked_at_ns = 0;
  };
  std::vector<ParkedCommit> commit_group_;

  /// Reentrancy guard: completion appends END records, and an append can
  /// reclaim log space, which forces, which would re-enter completion.
  bool completing_group_ = false;
};

}  // namespace clog

#endif  // CLOG_NODE_NODE_H_
