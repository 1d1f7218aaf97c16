#include "recovery/instant_restore.h"

#include <algorithm>

#include "node/node.h"
#include "trace/trace_sink.h"

/// \file
/// On-demand page rebuild. RestoreOne runs the same PSN-run replay and
/// landing as eager restart recovery (Node::ReplayPsnRuns and
/// Node::LandRebuiltPage), with one extra invariant it leans on
/// throughout: the lost data device was recreated *empty*, so during a
/// restore epoch any checksum-valid image readable from it was written
/// after the crash — by a shipped peer copy, an eviction, or an earlier
/// rebuild — and every such source is a complete current version of the
/// page. "Readable on the recreated device" therefore means "restored".
/// Restart recovery keeps that equivalence honest by only planning pages
/// that were unreadable when the plan was built.

namespace clog {

namespace {

/// RAII for the per-page re-entrancy gate: a rebuild's own page forces
/// and disk reads must not loop back into RestoreOne for the same page.
/// Nested rebuild conversations (real-mode reentrant waits) unwind LIFO,
/// so a push/pop stack tracks exactly the pages mid-rebuild on this
/// call stack.
class InRestoreGuard {
 public:
  InRestoreGuard(std::vector<std::uint64_t>* stack, PageId pid)
      : stack_(stack) {
    stack_->push_back(pid.Pack());
  }
  ~InRestoreGuard() { stack_->pop_back(); }
  InRestoreGuard(const InRestoreGuard&) = delete;
  InRestoreGuard& operator=(const InRestoreGuard&) = delete;

 private:
  std::vector<std::uint64_t>* stack_;
};

}  // namespace

Status InstantRestoreManager::Open(const std::string& dir) {
  Reset();
  return ledger_.Open(dir, "node.restore");
}

void InstantRestoreManager::Reset() {
  plans_.clear();
  in_restore_pids_.clear();
  first_commit_pending_ = false;
  epoch_start_ns_ = 0;
  restored_this_epoch_ = 0;
}

std::vector<std::uint64_t> InstantRestoreManager::LedgerEntries() const {
  std::vector<std::uint64_t> out;
  out.reserve(ledger_.size());
  for (const auto& [packed, needed] : ledger_.entries()) {
    (void)needed;
    out.push_back(packed);
  }
  return out;
}

Status InstantRestoreManager::Add(Plan plan) {
  // Ledger first: a crash between the two writes re-probes the page (safe),
  // the reverse order would forget it was ever lost.
  CLOG_RETURN_IF_ERROR(ledger_.Add(plan.pid, 0));
  const std::uint64_t packed = plan.pid.Pack();
  plans_[packed] = std::move(plan);
  return Status::OK();
}

Status InstantRestoreManager::Forget(PageId pid) {
  return ledger_.Remove(pid);
}

void InstantRestoreManager::BeginEpoch(std::uint64_t now_ns) {
  epoch_start_ns_ = now_ns;
  restored_this_epoch_ = 0;
  first_commit_pending_ = active();
}

void InstantRestoreManager::NoteCommit(Node* node, std::uint64_t now_ns) {
  if (!first_commit_pending_) return;
  first_commit_pending_ = false;
  node->metrics_.GetHistogram("restore.first_commit_ns")
      .Record(now_ns - epoch_start_ns_);
}

Status InstantRestoreManager::Finish(Node* node, PageId pid, Psn psn,
                                     RestoreSource source,
                                     std::uint64_t t0_ns) {
  plans_.erase(pid.Pack());
  // Durable before return: completion must survive the next crash, or the
  // re-probe would rebuild a page whose disk image is already current —
  // wasteful but sound. The reverse (forgetting an *unfinished* page) is
  // what the ledger exists to prevent, so Remove comes after the page's
  // image is durable, never before.
  CLOG_RETURN_IF_ERROR(ledger_.Remove(pid));
  ++restored_this_epoch_;
  const std::uint64_t now = node->network_->clock()->NowNanos();
  node->metrics_.GetHistogram("restore.page_rebuild_ns").Record(now - t0_ns);
  if (node->trace_ != nullptr) {
    node->trace_->Emit(node->id_, TraceEventType::kPageRestored, pid.Pack(),
                       psn, static_cast<std::uint32_t>(source));
  }
  if (plans_.empty()) {
    node->metrics_.GetCounter("restore.epochs_drained").Add(1);
    if (node->trace_ != nullptr) {
      node->trace_->Emit(node->id_, TraceEventType::kRestoreDone,
                         restored_this_epoch_, now - epoch_start_ns_);
    }
  }
  return Status::OK();
}

Status InstantRestoreManager::RestoreOne(Node* node, PageId pid) {
  auto it = plans_.find(pid.Pack());
  if (it == plans_.end()) return Status::OK();  // Already restored.
  const Plan plan = it->second;  // Copy: Finish erases the entry.
  const std::uint64_t t0 = node->network_->clock()->NowNanos();
  InRestoreGuard guard(&in_restore_pids_, pid);

  auto lift_poison = [&]() -> Status {
    // The image just made durable descends from a complete current copy;
    // it supersedes any poison verdict, even a permanent one (same rescue
    // eager recovery applies to surviving cached copies).
    if (!node->poison_.Contains(pid)) return Status::OK();
    CLOG_RETURN_IF_ERROR(node->UnpoisonPage(pid));
    node->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
    return Status::OK();
  };

  // 1. A cached copy already here. During a restore epoch the only way an
  //    own page enters the pool is a peer shipping it (install) or a
  //    finished rebuild — both complete. Partially-redone images never
  //    touch the pool (the redo ladder below works on a local scratch
  //    page), so this copy is current; make it durable and be done.
  if (Page* cached = node->pool_.Lookup(pid)) {
    const Psn psn = cached->psn();
    if (node->pool_.IsDirty(pid)) {
      CLOG_RETURN_IF_ERROR(node->ForceOwnPage(pid));
    }
    CLOG_RETURN_IF_ERROR(lift_poison());
    node->metrics_.GetCounter("restore.pages_already_durable").Add(1);
    return Finish(node, pid, psn, RestoreSource::kAlreadyDurable, t0);
  }

  // 2. A readable image on the recreated device (restore-epoch invariant:
  //    it was written post-crash from a complete source — a shipped copy
  //    forced through a full pool, an eviction write-back).
  {
    Page probe;
    if (node->ReadOwnPage(pid.page_no, &probe).ok()) {
      node->ChargeDiskRead();
      CLOG_RETURN_IF_ERROR(lift_poison());
      node->metrics_.GetCounter("restore.pages_already_durable").Add(1);
      return Finish(node, pid, probe.psn(), RestoreSource::kAlreadyDurable,
                    t0);
    }
  }

  // 3. Fast path: a peer from the plan still caches the page. Any cached
  //    copy carries the page's entire committed history.
  for (NodeId holder : plan.peer_candidates) {
    std::shared_ptr<Page> copy;
    Status st = node->network_->FetchCachedPage(node->id_, holder, pid, &copy);
    if (!st.ok() || !copy) continue;  // Down or evicted: next candidate.
    const Psn psn = copy->psn();
    CLOG_RETURN_IF_ERROR(node->InstallShippedCopy(*copy, holder));
    // Dirty in the pool, or bypass-written to disk by a full pool — either
    // way ForceOwnPage leaves it durable and flush-notifies the plan-time
    // contributors waiting on this page.
    CLOG_RETURN_IF_ERROR(node->ForceOwnPage(pid));
    CLOG_RETURN_IF_ERROR(lift_poison());
    node->metrics_.GetCounter("restore.pages_from_peer").Add(1);
    return Finish(node, pid, psn, RestoreSource::kPeerCache, t0);
  }

  // 4. No complete copy anywhere, and a destroyed client log already proved
  //    the top of this page's history unrecoverable: the fence stands. The
  //    page leaves the restoring set — its rebuild verdict is the poison
  //    entry, and service paths refuse it with Corruption as in eager mode.
  if (node->poison_.NeededPsn(pid) == kPsnUnrecoverable) {
    node->metrics_.GetCounter("restore.pages_poisoned").Add(1);
    return Finish(node, pid, 0, RestoreSource::kPoisoned, t0);
  }

  // 5. Slow path: newest archived image (or the space-map PSN seed) plus
  //    the merged full-history redo schedule across every planned source's
  //    client log — the per-page core of eager media recovery.
  Page base;
  const bool from_archive = node->LostPageBase(pid, &base);

  // Fresh full-history PSN lists at touch time. BuildPsnList starts a new
  // conversation (it clears stale resume cursors), so a rebuild interrupted
  // by a crash or a down peer re-enters cleanly. An unreachable source is
  // fatal for *this attempt* only: without its list the schedule could hide
  // a hole, and a maybe-stale page must never be served.
  std::map<NodeId, std::vector<PsnListEntry>> lists;
  {
    PsnListReply reply;
    CLOG_RETURN_IF_ERROR(node->HandleBuildPsnList(
        node->id_, {pid}, /*full_history=*/true, &reply));
    if (!reply.per_page[0].empty()) {
      lists[node->id_] = std::move(reply.per_page[0]);
    }
  }
  for (NodeId peer : plan.redo_sources) {
    if (peer == node->id_) continue;
    PsnListReply reply;
    Status st = node->network_->BuildPsnList(node->id_, peer, {pid},
                                             /*full_history=*/true, &reply);
    if (!st.ok()) {
      node->metrics_.GetCounter("restore.blocked_on_peer").Add(1);
      return Status::Unavailable("restore of " + pid.ToString() +
                                 " blocked: redo source " +
                                 std::to_string(peer) + " unreachable");
    }
    if (!reply.per_page[0].empty()) {
      lists[peer] = std::move(reply.per_page[0]);
    }
  }

  Node::PsnReplay replay;
  Status st = node->ReplayPsnRuns(pid, lists, &base, &replay);
  if (st.IsNodeDown() || st.IsUnavailable()) {
    node->metrics_.GetCounter("restore.blocked_on_peer").Add(1);
    return Status::Unavailable("restore of " + pid.ToString() +
                               " blocked: " + st.ToString());
  }
  CLOG_RETURN_IF_ERROR(st);
  if (replay.poisoned) {
    node->metrics_.GetCounter("restore.pages_poisoned").Add(1);
    return Finish(node, pid, base.psn(), RestoreSource::kPoisoned, t0);
  }

  // Landing is PSN-monotonic. Two rebuild conversations for the same page
  // can interleave at re-entrant wait points (a background sweeper and a
  // first-touch rebuild): the per-page recovery cursors on the redo
  // sources alias across conversations, so the conversation that resumes
  // after the other finished may have replayed nothing and still hold the
  // bare base image. A rebuilt image therefore never replaces a newer
  // pool or durable version — the interleaved duplicate becomes wasted
  // work instead of a silent rollback of committed history.
  const Page* frame = node->pool_.Lookup(pid);
  if (frame != nullptr && frame->psn() >= base.psn()) {
    CLOG_RETURN_IF_ERROR(lift_poison());
    return Finish(node, pid, frame->psn(), RestoreSource::kAlreadyDurable, t0);
  }
  if (frame == nullptr) {
    Page durable;
    if (node->ReadOwnPage(pid.page_no, &durable).ok() &&
        durable.psn() >= base.psn()) {
      node->ChargeDiskRead();
      CLOG_RETURN_IF_ERROR(lift_poison());
      return Finish(node, pid, durable.psn(), RestoreSource::kAlreadyDurable,
                    t0);
    }
  }
  // Land and force exactly as restart recovery does: every contributor
  // clears its DPT entry via the flush notification.
  CLOG_RETURN_IF_ERROR(node->LandRebuiltPage(pid, base, lists));
  node->metrics_
      .GetCounter(from_archive ? "restore.pages_from_archive"
                               : "restore.pages_from_seed")
      .Add(1);
  return Finish(node, pid, base.psn(),
                from_archive ? RestoreSource::kArchiveRedo
                             : RestoreSource::kSeedRedo,
                t0);
}

std::size_t InstantRestoreManager::Sweep(Node* node, std::size_t max_pages) {
  std::size_t done = 0;
  while (done < max_pages && !plans_.empty()) {
    // Hottest plan first (ties by PageId for determinism); on-demand
    // touches already jumped the queue, this drains the cold tail.
    auto best = plans_.begin();
    for (auto pit = plans_.begin(); pit != plans_.end(); ++pit) {
      if (pit->second.priority > best->second.priority) best = pit;
    }
    const PageId pid = best->second.pid;
    Status st = RestoreOne(node, pid);
    if (!st.ok()) {
      // A blocked or failed rebuild leaves the page restoring; later
      // sweeps (or a touch once the peer returns) retry. Stop the pass:
      // the same dead peer likely blocks the rest too.
      node->metrics_.GetCounter("restore.sweep_blocked").Add(1);
      break;
    }
    ++done;
  }
  if (done > 0) node->metrics_.GetCounter("restore.sweep_passes").Add(1);
  return done;
}

}  // namespace clog
