#include "lock/lock_cache.h"

#include <algorithm>

namespace clog {

LockMode LockCache::TxnHold::Strongest() const {
  LockMode strongest = page_mode;
  for (const auto& [_, m] : records) strongest = std::max(strongest, m);
  return strongest;
}

bool LockCache::TxnHold::ConflictsWithPage(LockMode mode) const {
  // A page request sees every lock of the other transaction.
  return !Compatible(Strongest(), mode);
}

bool LockCache::TxnHold::ConflictsWithRecord(SlotId slot,
                                             LockMode mode) const {
  if (!Compatible(page_mode, mode)) return true;  // Its page lock covers all.
  auto it = records.find(slot);
  return it != records.end() && !Compatible(it->second, mode);
}

void LockCache::EraseIfEmpty(PageId pid) {
  auto it = cache_.find(pid);
  if (it != cache_.end() && it->second.node_mode == LockMode::kNone &&
      it->second.txns.empty()) {
    cache_.erase(it);
  }
}

LocalAcquire LockCache::AcquireForTxn(TxnId txn, PageId pid, LockMode mode) {
  LocalAcquire out;
  Entry& e = cache_[pid];

  // Local transaction-level conflicts come first: even if the node lock is
  // strong enough, two local transactions cannot both write the page.
  for (const auto& [other, hold] : e.txns) {
    if (other == txn) continue;
    if (hold.ConflictsWithPage(mode)) {
      out.outcome = LocalAcquire::Outcome::kLocalConflict;
      out.blockers.push_back(other);
    }
  }
  if (out.outcome == LocalAcquire::Outcome::kLocalConflict) {
    EraseIfEmpty(pid);
    return out;
  }

  if (e.node_mode < mode) {
    out.outcome = LocalAcquire::Outcome::kNeedNodeLock;
    EraseIfEmpty(pid);
    return out;
  }

  LockMode& slot = e.txns[txn].page_mode;
  if (mode > slot) slot = mode;
  out.outcome = LocalAcquire::Outcome::kGranted;
  return out;
}

LocalAcquire LockCache::AcquireRecordForTxn(TxnId txn, PageId pid,
                                            SlotId slot, LockMode mode) {
  LocalAcquire out;
  Entry& e = cache_[pid];

  for (const auto& [other, hold] : e.txns) {
    if (other == txn) continue;
    if (hold.ConflictsWithRecord(slot, mode)) {
      out.outcome = LocalAcquire::Outcome::kLocalConflict;
      out.blockers.push_back(other);
    }
  }
  if (out.outcome == LocalAcquire::Outcome::kLocalConflict) {
    EraseIfEmpty(pid);
    return out;
  }

  // Inter-node locking stays page-granular: a record write still needs the
  // node-level exclusive page lock (PSN total order depends on it).
  if (e.node_mode < mode) {
    out.outcome = LocalAcquire::Outcome::kNeedNodeLock;
    EraseIfEmpty(pid);
    return out;
  }

  LockMode& held = e.txns[txn].records[slot];
  if (mode > held) held = mode;
  out.outcome = LocalAcquire::Outcome::kGranted;
  return out;
}

void LockCache::RecordNodeLock(PageId pid, LockMode mode) {
  Entry& e = cache_[pid];
  if (mode > e.node_mode) e.node_mode = mode;
}

LockMode LockCache::NodeMode(PageId pid) const {
  auto it = cache_.find(pid);
  return it == cache_.end() ? LockMode::kNone : it->second.node_mode;
}

LockMode LockCache::TxnMode(TxnId txn, PageId pid) const {
  auto it = cache_.find(pid);
  if (it == cache_.end()) return LockMode::kNone;
  auto tit = it->second.txns.find(txn);
  return tit == it->second.txns.end() ? LockMode::kNone
                                      : tit->second.page_mode;
}

void LockCache::ReleaseTxnLocks(TxnId txn) {
  for (auto it = cache_.begin(); it != cache_.end();) {
    it->second.txns.erase(txn);
    if (it->second.node_mode == LockMode::kNone && it->second.txns.empty()) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

CallbackDecision LockCache::CanComply(PageId pid,
                                      LockMode downgrade_to) const {
  CallbackDecision out;
  auto it = cache_.find(pid);
  if (it == cache_.end()) {
    out.can_comply = true;
    return out;
  }
  for (const auto& [txn, hold] : it->second.txns) {
    if (hold.Empty()) continue;
    bool blocks = downgrade_to == LockMode::kNone
                      ? true  // Full release: any active user blocks.
                      : hold.Strongest() == LockMode::kExclusive;  // Demote.
    if (blocks) out.blocking_txns.push_back(txn);
  }
  out.can_comply = out.blocking_txns.empty();
  return out;
}

void LockCache::ApplyCallback(PageId pid, LockMode downgrade_to) {
  auto it = cache_.find(pid);
  if (it == cache_.end()) return;
  if (downgrade_to == LockMode::kNone) {
    cache_.erase(it);
  } else if (it->second.node_mode == LockMode::kExclusive) {
    it->second.node_mode = LockMode::kShared;
  }
}

void LockCache::DropNodeLock(PageId pid) {
  auto it = cache_.find(pid);
  if (it == cache_.end()) return;
  it->second.node_mode = LockMode::kNone;
  if (it->second.txns.empty()) cache_.erase(it);
}

std::vector<LockListEntry> LockCache::NodeLocks(NodeId owner) const {
  std::vector<LockListEntry> out;
  for (const auto& [pid, e] : cache_) {
    if (e.node_mode == LockMode::kNone) continue;
    if (owner != kInvalidNodeId && pid.owner != owner) continue;
    out.push_back(LockListEntry{pid, e.node_mode});
  }
  return out;
}

std::vector<PageId> LockCache::PagesWithActiveTxns() const {
  std::vector<PageId> out;
  for (const auto& [pid, e] : cache_) {
    if (!e.txns.empty()) out.push_back(pid);
  }
  return out;
}

void LockCache::Install(PageId pid, LockMode mode) {
  if (mode == LockMode::kNone) return;
  cache_[pid].node_mode = mode;
}

void LockCache::Clear() { cache_.clear(); }

}  // namespace clog
