#ifndef CLOG_CORE_MEMBERSHIP_H_
#define CLOG_CORE_MEMBERSHIP_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

/// \file
/// Elastic membership: the cluster-shared ownership directory.
///
/// A PageId bakes its *home* node into the identity (`pid.owner`) — that
/// never changes, because log records, lock tables, DPT entries, and the
/// model in every test key off it. What elastic membership moves is the
/// *current owner*: the node that stores the durable copy, runs the global
/// lock table for the page, and answers FlushRequests. The directory maps
/// pid -> current owner for the (typically few) pages that have moved;
/// every page not listed is owned by its home node, so a cluster that never
/// hands a page off pays nothing and behaves byte-identically to before.
///
/// The directory itself is volatile routing state. Ground truth is the
/// durable per-node handoff ledgers (node/handoff_ledger.h): an adoption
/// record at the new owner, a ceded tombstone at the old one. Nodes
/// re-register their adopted pages here when they (re)start, so the
/// directory converges to the ledgers after any crash.

namespace clog {

/// Thread-safe pid -> current-owner map plus the membership epoch. One per
/// Cluster; nodes hold a pointer (may be null in single-node unit tests, in
/// which case every page is owned by its home).
class OwnershipDirectory {
 public:
  /// Current owner of `pid`: the directory entry, or the home node.
  NodeId OwnerOf(PageId pid) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = moved_.find(pid.Pack());
    return it == moved_.end() ? pid.owner : it->second;
  }

  /// Registers `node` as the current owner. Registering the home node
  /// erases the entry (the page moved back). Bumps the epoch when the
  /// effective owner actually changes.
  void SetOwner(PageId pid, NodeId node) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = moved_.find(pid.Pack());
    NodeId prev = it == moved_.end() ? pid.owner : it->second;
    if (prev == node) return;
    if (node == pid.owner) {
      moved_.erase(pid.Pack());
    } else {
      moved_[pid.Pack()] = node;
    }
    ++epoch_;
  }

  /// Membership epoch: bumped on every ownership change and on every
  /// join/leave (BumpEpoch). Carried in handoff offers for observability.
  std::uint64_t epoch() const {
    std::lock_guard<std::mutex> g(mu_);
    return epoch_;
  }

  void BumpEpoch() {
    std::lock_guard<std::mutex> g(mu_);
    ++epoch_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, NodeId> moved_;
  std::uint64_t epoch_ = 0;
};

}  // namespace clog

#endif  // CLOG_CORE_MEMBERSHIP_H_
