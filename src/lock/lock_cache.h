#ifndef CLOG_LOCK_LOCK_CACHE_H_
#define CLOG_LOCK_LOCK_CACHE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/lock_mode.h"
#include "common/types.h"
#include "net/message.h"

/// \file
/// Requester-side lock cache: the locks this node holds (granted by owner
/// nodes, itself included) and which local transactions are using them.
/// Locks are retained across transaction boundaries (inter-transaction
/// caching, paper Section 2.1) and surrendered only through callbacks:
/// "cached locks that are called back in exclusive mode are released and
/// exclusive locks that are called back in shared mode are demoted".
///
/// Two granularities of *transaction-level* locks are supported on top of
/// the node-level page lock:
///   - page locks (the paper's baseline), and
///   - record locks (the Section 4 / EDBT'96 fine-granularity extension):
///     local transactions can concurrently use different records of the
///     same page. Inter-node locking stays page-granular, which preserves
///     the per-page PSN total order the recovery algorithms require.

namespace clog {

/// Result of a local (transaction-level) acquisition attempt.
struct LocalAcquire {
  enum class Outcome {
    kGranted,        ///< Cached node lock covered it; txn now holds it.
    kNeedNodeLock,   ///< Must ask the owner for `mode` at node level first.
    kLocalConflict,  ///< Another local active transaction conflicts.
  };
  Outcome outcome = Outcome::kGranted;
  std::vector<TxnId> blockers;  ///< For kLocalConflict.
};

/// What a callback can do right now.
struct CallbackDecision {
  bool can_comply = false;
  std::vector<TxnId> blocking_txns;  ///< Active local users, when blocked.
};

/// Per-node cache of held locks.
class LockCache {
 public:
  /// Attempts to grant a page-granularity `mode` on `pid` to local
  /// transaction `txn` from the cached node-level lock. Does not talk to
  /// the owner; on kNeedNodeLock the caller requests the node lock, calls
  /// RecordNodeLock, and retries. A page lock conflicts with every
  /// incompatible page or record lock of other transactions.
  LocalAcquire AcquireForTxn(TxnId txn, PageId pid, LockMode mode);

  /// Record-granularity variant (fine-granularity extension): conflicts
  /// only with incompatible locks on the same slot, or with incompatible
  /// page-granularity locks of other transactions.
  LocalAcquire AcquireRecordForTxn(TxnId txn, PageId pid, SlotId slot,
                                   LockMode mode);

  /// Records that the owner granted this node `mode` on `pid`.
  void RecordNodeLock(PageId pid, LockMode mode);

  /// Mode this node holds on `pid` at node level.
  LockMode NodeMode(PageId pid) const;

  /// Page-granularity mode `txn` holds on `pid`.
  LockMode TxnMode(TxnId txn, PageId pid) const;

  /// Releases every lock `txn` holds (transaction end, commit or abort).
  /// Node-level cached locks are retained (strict 2PL releases transaction
  /// locks; inter-transaction caching keeps the node locks).
  void ReleaseTxnLocks(TxnId txn);

  /// Can a callback demanding `downgrade_to` (kNone = release, kShared =
  /// demote) proceed, or do active local transactions block it?
  CallbackDecision CanComply(PageId pid, LockMode downgrade_to) const;

  /// Applies a complied callback to the cached state.
  void ApplyCallback(PageId pid, LockMode downgrade_to);

  /// Drops the cached node lock on `pid` (voluntary release).
  void DropNodeLock(PageId pid);

  /// All node-level locks, optionally only those on pages owned by `owner`
  /// (recovery: "the list of locks Nr had acquired from the crashed node").
  std::vector<LockListEntry> NodeLocks(NodeId owner = kInvalidNodeId) const;

  /// Pages on which any local transaction currently holds a lock.
  std::vector<PageId> PagesWithActiveTxns() const;

  /// Installs a node-level lock verbatim (restart reconstruction).
  void Install(PageId pid, LockMode mode);

  /// Loses everything (node crash).
  void Clear();

  std::size_t size() const { return cache_.size(); }

 private:
  /// What one transaction holds on one page.
  struct TxnHold {
    LockMode page_mode = LockMode::kNone;
    std::map<SlotId, LockMode> records;

    bool Empty() const {
      return page_mode == LockMode::kNone && records.empty();
    }
    LockMode Strongest() const;
    /// True if this hold conflicts with a page-granularity request `mode`.
    bool ConflictsWithPage(LockMode mode) const;
    /// True if this hold conflicts with a record request on `slot`.
    bool ConflictsWithRecord(SlotId slot, LockMode mode) const;
  };

  struct Entry {
    LockMode node_mode = LockMode::kNone;
    std::map<TxnId, TxnHold> txns;
  };

  void EraseIfEmpty(PageId pid);

  std::unordered_map<PageId, Entry> cache_;
};

}  // namespace clog

#endif  // CLOG_LOCK_LOCK_CACHE_H_
