#ifndef CLOG_LOCK_LOCK_MANAGER_H_
#define CLOG_LOCK_LOCK_MANAGER_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/lock_mode.h"
#include "common/types.h"
#include "net/message.h"

/// \file
/// Owner-side global lock table. Each node runs one of these for the pages
/// it owns (paper Section 2.1: "Each node has a lock manager ... and
/// forwards the lock requests for data items owned by another node to that
/// node"). Holders are *nodes*: the callback locking protocol caches locks
/// at node granularity across transaction boundaries; the requester's
/// LockCache multiplexes local transactions onto the cached node lock.

namespace clog {

class TraceSink;

/// Outcome of a node-level lock request on the owner.
struct GrantOutcome {
  bool granted = false;
  /// When not granted: the holder nodes whose cached locks conflict and
  /// must be called back (excluding the requester itself).
  std::vector<NodeId> conflicting;
};

/// Tracks which node holds which mode on each owned page.
class GlobalLockTable {
 public:
  /// Attempts to grant `mode` on `pid` to `node`. An S->X upgrade by the
  /// sole holder succeeds in place. On conflict nothing changes and the
  /// conflicting holders are reported (the page service then runs
  /// callbacks and retries).
  GrantOutcome TryGrant(PageId pid, NodeId node, LockMode mode);

  /// Removes `node`'s lock on `pid` entirely.
  void Release(PageId pid, NodeId node);

  /// Demotes `node`'s lock on `pid` from X to S (callback in shared mode).
  void Downgrade(PageId pid, NodeId node);

  /// Mode `node` currently holds on `pid` (kNone if nothing).
  LockMode HeldBy(PageId pid, NodeId node) const;

  /// Nodes currently holding any lock on `pid`.
  std::vector<NodeId> HoldersOf(PageId pid) const;

  /// Every lock held by `node`, as wire entries.
  std::vector<LockListEntry> LocksOf(NodeId node) const;

  /// Exclusive locks held by `node` (recovery: these are retained while the
  /// shared ones are released, Section 2.3.3).
  std::vector<LockListEntry> ExclusiveLocksOf(NodeId node) const;

  /// Releases all *shared* locks held by `node` (crashed-node handling).
  void ReleaseSharedOf(NodeId node);

  /// Releases everything held by `node`.
  void ReleaseAllOf(NodeId node);

  /// Installs a lock verbatim (lock-table reconstruction during restart).
  void Install(PageId pid, NodeId node, LockMode mode);

  /// Drops the whole table (node crash loses volatile state).
  void Clear();

  /// Attaches a trace sink emitting LOCK_WAIT events as owner `node`
  /// whenever TryGrant reports a conflict (nullptr detaches). Not owned.
  void set_trace_sink(TraceSink* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  /// node -> mode for one page. std::map keeps iteration deterministic.
  using Holders = std::map<NodeId, LockMode>;

  std::unordered_map<PageId, Holders> table_;
  TraceSink* trace_ = nullptr;
  NodeId trace_node_ = kInvalidNodeId;
};

}  // namespace clog

#endif  // CLOG_LOCK_LOCK_MANAGER_H_
