#include <sstream>

#include "node/node.h"

/// \file
/// Invariant checking and debug dumps. The invariants below are the
/// cross-structure consistency conditions the paper's algorithms rest on;
/// the crash fuzzer calls CheckInvariants after every step, so a protocol
/// regression surfaces as a named violation instead of a data mismatch
/// fifty steps later.

namespace clog {

namespace {

Status Violation(NodeId node, const std::string& what) {
  return Status::FailedPrecondition("invariant violation at node " +
                                    std::to_string(node) + ": " + what);
}

}  // namespace

Status Node::CheckInvariants(bool deep) {
  if (state_ == NodeState::kDown) return Status::OK();

  // I1: a dirty cached copy of a REMOTE page implies we hold the node-
  // level exclusive lock (only X lets us write, demotion/release cleans or
  // drops the copy) and a DPT entry (its updates are not on disk).
  for (PageId pid : pool_.DirtyPages()) {
    if (OwnsPage(pid)) continue;
    if (lock_cache_.NodeMode(pid) != LockMode::kExclusive) {
      return Violation(id_, "dirty remote page " + pid.ToString() +
                                " without a cached X lock");
    }
    if (!dpt_.Contains(pid)) {
      return Violation(id_, "dirty remote page " + pid.ToString() +
                                " without a DPT entry");
    }
  }

  // I2: DPT entries are internally consistent (CurrPSN never behind the
  // first-dirty PSN) and their RedoLSN lies within the log.
  for (const auto& [pid, info] : dpt_.entries()) {
    if (info.curr_psn < info.psn) {
      return Violation(id_, "DPT entry " + pid.ToString() +
                                " has CurrPSN < PSN");
    }
    if (options_.has_local_log && info.redo_lsn > log_.end_lsn()) {
      return Violation(id_, "DPT entry " + pid.ToString() +
                                " RedoLSN beyond end of log");
    }
  }

  // I3: transaction-level lock holders are live transactions.
  for (PageId pid : lock_cache_.PagesWithActiveTxns()) {
    CallbackDecision dec = lock_cache_.CanComply(pid, LockMode::kNone);
    for (TxnId holder : dec.blocking_txns) {
      if (txns_.Find(holder) == nullptr) {
        return Violation(id_, "lock on " + pid.ToString() +
                                  " held by finished txn " +
                                  std::to_string(holder));
      }
    }
  }

  // I4: the global lock table only covers pages this node owns.
  for (const auto& [pid, info] : dpt_.entries()) {
    (void)info;
    if (pid.owner == id_ && !space_map_.IsAllocated(pid.page_no)) {
      return Violation(id_, "DPT entry for unallocated own page " +
                                pid.ToString());
    }
  }

  // I5: pool occupancy within capacity.
  if (pool_.size() > pool_.capacity()) {
    return Violation(id_, "buffer pool over capacity");
  }

  // I6 (deep): a CLEAN cached copy of an OWN page matches the disk version
  // exactly — own-page cleanliness is only ever established by a write-
  // back or a fresh read.
  if (deep) {
    for (PageId pid : pool_.CachedPages()) {
      if (!OwnsPage(pid)) continue;
      if (pool_.IsDirty(pid)) continue;
      if (poison_.Contains(pid)) {
        // A poisoned page's disk image is whatever media recovery could
        // salvage; the serving paths refuse it, so disk agreement is not
        // an invariant for it.
        continue;
      }
      Page* cached = pool_.Lookup(pid);
      Page on_disk;
      Status st = ReadDurablePage(pid, &on_disk);
      if (!st.ok()) {
        return Violation(id_, "clean own page " + pid.ToString() +
                                  " unreadable on disk: " + st.ToString());
      }
      if (on_disk.psn() != cached->psn()) {
        return Violation(
            id_, "clean own page " + pid.ToString() + " at PSN " +
                     std::to_string(cached->psn()) + " but disk has PSN " +
                     std::to_string(on_disk.psn()));
      }
    }
  }
  return Status::OK();
}

std::string Node::DebugString() const {
  std::ostringstream out;
  out << "node " << id_ << " state=";
  switch (state_) {
    case NodeState::kDown:
      out << "down";
      break;
    case NodeState::kRecovering:
      out << "recovering";
      break;
    case NodeState::kUp:
      out << "up";
      break;
  }
  out << " mode=" << LoggingModeName(options_.logging_mode) << "\n";
  if (state_ == NodeState::kDown) return out.str();

  out << "  log: end=" << log_.end_lsn() << " flushed=" << log_.flushed_lsn()
      << " reclaimable=" << log_.reclaimable_lsn()
      << " records=" << log_.appended_records() << "\n";
  out << "  pool: " << pool_.size() << "/" << pool_.capacity() << " frames,"
      << " hits=" << pool_.hits() << " misses=" << pool_.misses()
      << " evictions=" << pool_.evictions() << "\n";
  for (PageId pid : pool_.CachedPages()) {
    out << "    page " << pid.ToString()
        << (pool_.IsDirty(pid) ? " dirty" : " clean") << "\n";
  }
  out << "  dpt: " << dpt_.size() << " entries\n";
  for (const auto& [pid, info] : dpt_.entries()) {
    out << "    " << pid.ToString() << " psn=" << info.psn
        << " curr=" << info.curr_psn << " redo=" << info.redo_lsn << "\n";
  }
  out << "  node locks held:";
  for (const LockListEntry& l : lock_cache_.NodeLocks()) {
    out << " " << l.pid.ToString() << "=" << LockModeName(l.mode);
  }
  out << "\n  availability: parked=" << metrics_.CounterValue("avail.parked")
      << " resumed=" << metrics_.CounterValue("avail.resumed")
      << " aborted_contention="
      << metrics_.CounterValue("workload.aborted_contention")
      << " aborted_availability="
      << metrics_.CounterValue("workload.aborted_availability");
  for (const auto& [owner, since_ns] : parked_owners_) {
    out << " parked_owner=" << owner << "@" << since_ns;
  }
  out << "\n  active txns: " << txns_.ActiveCount() << "\n";
  std::size_t adaptive_live = 0;
  for (const Transaction* t : txns_.Active()) {
    if (t->strategy == LogStrategy::kAdaptive) ++adaptive_live;
  }
  out << "  logging: strategy="
      << LogStrategyName(options_.logging_policy->strategy)
      << " adaptive_live=" << adaptive_live
      << " logical_stashes=" << live_logical_txns_
      << " begins_adaptive=" << metrics_.CounterValue("txn.begins_adaptive")
      << " commits_logical=" << metrics_.CounterValue("txn.commits_logical")
      << " logical_records=" << metrics_.CounterValue("txn.logical_records")
      << " upgrades=" << metrics_.CounterValue("txn.upgrades") << "\n";
  return out.str();
}

Result<std::string> Node::DebugPageImage(PageId pid) {
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (const Page* cached = pool_.Peek(pid); cached != nullptr) {
    return std::string(cached->data(), kPageSize);
  }
  Page tmp;
  CLOG_RETURN_IF_ERROR(ReadDurablePage(pid, &tmp));
  return std::string(tmp.data(), kPageSize);
}

}  // namespace clog
