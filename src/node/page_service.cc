#include <algorithm>

#include "node/node.h"
#include "recovery/node_psn_list.h"
#include "trace/trace_sink.h"

/// \file
/// NodeService handlers: the owner-side page/lock service of Section 2.2
/// and the peer-side recovery protocol of Sections 2.3-2.4, plus the
/// coordinator-side page rebuild that restart recovery and instant restore
/// share.

namespace clog {

// ---------------------------------------------------------------------------
// Normal processing (Section 2.2)
// ---------------------------------------------------------------------------

Status Node::HandleLockPage(NodeId from, PageId pid, LockMode mode,
                            bool want_page, LockPageReply* reply) {
  *reply = LockPageReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("owner not up");
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  if (pid.owner == id_ ? !space_map_.IsAllocated(pid.page_no)
                       : !handoff_.IsAdopted(pid)) {
    return Status::NotFound("page not allocated: " + pid.ToString());
  }
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    // The page is mid-handoff: its recovery state is being transferred, so
    // no new lock may be minted against the old owner's table.
    return Status::Busy("page handoff in progress: " + pid.ToString());
  }
  // Instant restore: a requester's touch of a still-restoring page rebuilds
  // it now, before the poison check — the rebuild itself may prove the page
  // whole (peer copy, archive + redo) or poison it for real.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (poison_.Contains(pid)) {
    // Media recovery could not rebuild this page (a client log holding part
    // of its history is gone). Serving it would hand out silently wrong
    // data; refusing is the contract.
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  if (state_ == NodeState::kRecovering) {
    // During restart recovery only conflict-free grants are served (no
    // callbacks run in this state): enough for a recovering peer to fetch
    // a base version or re-assert a lock it already holds, while normal
    // traffic stays fenced until recovery finishes.
    if (global_locks_.HeldBy(pid, from) < mode) {
      GrantOutcome out = global_locks_.TryGrant(pid, from, mode);
      if (!out.granted && recovery_redo_done_) {
        // Joint restart (Section 2.4): once our own redo pass is complete,
        // the Section 2.3.3 fences we installed on our pages have done
        // their job. A recovering peer's undo pass may need one of those
        // pages; yield the fence exactly as a normal self-callback would,
        // provided we are the only conflicting holder and no local
        // transaction uses the page.
        bool all_self = true;
        for (NodeId holder : out.conflicting) {
          if (holder != id_) {
            all_self = false;
            break;
          }
        }
        LockMode downgrade_to =
            mode == LockMode::kShared ? LockMode::kShared : LockMode::kNone;
        if (all_self && lock_cache_.CanComply(pid, downgrade_to).can_comply) {
          lock_cache_.ApplyCallback(pid, downgrade_to);
          if (downgrade_to == LockMode::kNone) {
            global_locks_.Release(pid, id_);
          } else {
            global_locks_.Downgrade(pid, id_);
          }
          out = global_locks_.TryGrant(pid, from, mode);
        }
      }
      if (!out.granted) {
        return Status::NodeDown("owner recovering; lock conflicts");
      }
    }
    reply->granted = true;
    if (want_page) {
      CLOG_ASSIGN_OR_RETURN(Page * latest, OwnLatestPage(pid));
      CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid, latest));
      auto copy = std::make_shared<Page>();
      copy->CopyFrom(*latest);
      copy->SealChecksum();
      reply->page = std::move(copy);
    }
    return Status::OK();
  }

  for (int attempt = 0; attempt < 4; ++attempt) {
    GrantOutcome out = global_locks_.TryGrant(pid, from, mode);
    if (out.granted) {
      reply->granted = true;
      break;
    }
    // Callback locking: conflicting cached locks are called back. A read
    // request demotes X holders to S; a write request releases everyone
    // (Section 2.2).
    LockMode downgrade_to =
        mode == LockMode::kShared ? LockMode::kShared : LockMode::kNone;
    bool all_complied = true;
    for (NodeId holder : out.conflicting) {
      if (holder == id_) {
        // Callback to ourselves: our own local transactions are the users.
        CallbackDecision dec = lock_cache_.CanComply(pid, downgrade_to);
        if (!dec.can_comply) {
          all_complied = false;
          reply->blockers.push_back(holder);
          reply->blocking_txns.insert(reply->blocking_txns.end(),
                                      dec.blocking_txns.begin(),
                                      dec.blocking_txns.end());
          continue;
        }
        lock_cache_.ApplyCallback(pid, downgrade_to);
        if (downgrade_to == LockMode::kNone) {
          global_locks_.Release(pid, id_);
          // Our cached copy stays: the owner's pool is the home for the
          // page between remote holders.
        } else {
          global_locks_.Downgrade(pid, id_);
        }
        continue;
      }
      CallbackReply cb;
      Status st = network_->Callback(id_, holder, pid, downgrade_to, &cb);
      if (st.IsNodeDown()) {
        // Holder crashed while holding the lock: the page must wait for
        // that node's recovery (Section 2.3: exclusive locks of a crashed
        // node are retained).
        all_complied = false;
        reply->blockers.push_back(holder);
        continue;
      }
      if (!st.ok()) return st;
      if (!cb.complied) {
        all_complied = false;
        reply->blockers.push_back(holder);
        reply->blocking_txns.insert(reply->blocking_txns.end(),
                                    cb.blocking_txns.begin(),
                                    cb.blocking_txns.end());
        continue;
      }
      if (downgrade_to == LockMode::kNone) {
        global_locks_.Release(pid, holder);
      } else {
        global_locks_.Downgrade(pid, holder);
      }
      if (cb.page) {
        CLOG_RETURN_IF_ERROR(InstallShippedCopy(*cb.page, holder));
        if (options_.logging_mode == LoggingMode::kForceAtTransfer) {
          // B2 forces every transferred page to disk.
          CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
        }
      }
    }
    if (!all_complied) {
      reply->granted = false;
      metrics_.GetCounter("lock.callback_blocked").Add(1);
      return Status::OK();
    }
  }

  if (!reply->granted) {
    return Status::Busy("lock grant did not converge on " + pid.ToString());
  }
  metrics_.GetCounter("lock.grants").Add(1);
  if (want_page) {
    CLOG_ASSIGN_OR_RETURN(Page * latest, OwnLatestPage(pid));
    CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid, latest));
    auto copy = std::make_shared<Page>();
    copy->CopyFrom(*latest);
    copy->SealChecksum();
    reply->page = std::move(copy);
  }
  return Status::OK();
}

Status Node::WalBeforePageLeaves(PageId pid, const Page* page) {
  if (!options_.has_local_log) return Status::OK();
  if (page == nullptr || !pool_.IsDirty(pid)) return Status::OK();
  if (options_.logging_mode == LoggingMode::kShipToOwner) {
    for (const Transaction* t : txns_.Active()) {
      CLOG_RETURN_IF_ERROR(ShipPendingRecords(const_cast<Transaction*>(t),
                                              /*force=*/false, &pid));
    }
    return Status::OK();
  }
  if (page->page_lsn() >= log_.flushed_lsn()) {
    CLOG_RETURN_IF_ERROR(ForceLog(page->page_lsn()));
  }
  return Status::OK();
}

Result<Page*> Node::OwnLatestPage(PageId pid) {
  if (Page* cached = pool_.Lookup(pid)) return cached;
  // An on-demand rebuild installs the page in the pool; re-check before
  // the miss path tries to Insert the same frame.
  CLOG_RETURN_IF_ERROR(EnsureRestored(pid));
  if (Page* cached = pool_.Lookup(pid)) return cached;
  if (poison_.Contains(pid)) {
    return Status::Corruption("page unrecoverable after media failure: " +
                              pid.ToString());
  }
  CLOG_ASSIGN_OR_RETURN(Page * frame, pool_.Insert(pid));
  Status st = ReadDurablePage(pid, frame);
  if (!st.ok()) {
    pool_.Drop(pid);
    return st;
  }
  ChargeDiskRead();
  return frame;
}

Status Node::HandleCallback(NodeId from, PageId pid, LockMode downgrade_to,
                            CallbackReply* reply) {
  *reply = CallbackReply();
  if (state_ != NodeState::kUp) return Status::NodeDown("holder not up");

  CallbackDecision dec = lock_cache_.CanComply(pid, downgrade_to);
  if (!dec.can_comply) {
    reply->complied = false;
    reply->blocking_txns = dec.blocking_txns;
    metrics_.GetCounter("lock.callbacks_refused").Add(1);
    return Status::OK();
  }

  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid)) {
    // The dirty copy travels with the callback reply so the owner can hand
    // the current version to the requester. WAL first.
    if (options_.logging_mode == LoggingMode::kShipToOwner) {
      for (const Transaction* t : txns_.Active()) {
        CLOG_RETURN_IF_ERROR(ShipPendingRecords(const_cast<Transaction*>(t),
                                                /*force=*/false, &pid));
      }
    } else if (cached->page_lsn() >= log_.flushed_lsn()) {
      CLOG_RETURN_IF_ERROR(ForceLog(cached->page_lsn()));
    }
    auto copy = std::make_shared<Page>();
    copy->CopyFrom(*cached);
    copy->SealChecksum();
    reply->page = std::move(copy);
    reply->page_psn = cached->psn();
    dpt_.OnReplaced(pid, cached->psn(), log_.end_lsn());
    pool_.MarkClean(pid);
  }
  if (downgrade_to == LockMode::kNone && cached != nullptr) {
    // Without a lock the page cannot stay cached.
    pool_.Drop(pid);
  }
  lock_cache_.ApplyCallback(pid, downgrade_to);
  reply->complied = true;
  metrics_.GetCounter("lock.callbacks_honored").Add(1);
  return Status::OK();
}

Status Node::HandleUnlockNotice(NodeId from, PageId pid) {
  global_locks_.Release(pid, from);
  return Status::OK();
}

Status Node::HandlePageShip(NodeId from, const Page& page) {
  if (state_ == NodeState::kDown) return Status::NodeDown("owner down");
  CLOG_RETURN_IF_ERROR(page.VerifyChecksum());
  CLOG_RETURN_IF_ERROR(InstallShippedCopy(page, from));
  const PageId pid = page.id();
  if (!handoff_fenced_.empty() && handoff_fenced_.count(pid) != 0) {
    // Mid-handoff the shipped (kShipped) durable image must stay the
    // latest version: re-force so the offer built from it misses nothing.
    CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
  }
  return Status::OK();
}

Status Node::HandleFlushRequest(NodeId from, PageId pid) {
  if (state_ != NodeState::kUp) return Status::NodeDown("owner not up");
  if (!OwnsPage(pid)) {
    return Status::InvalidArgument("not the owner of " + pid.ToString());
  }
  replacers_[pid].insert(from);
  return ForceOwnPage(pid);
}

void Node::HandleFlushNotify(NodeId from, PageId pid, Psn flushed_psn) {
  if (trace_ != nullptr) {
    trace_->Emit(id_, TraceEventType::kFlushNotify, pid.Pack(), flushed_psn,
                 from);
  }
  dpt_.OnOwnerFlushed(pid, flushed_psn);
  // PSNs order every update to a page globally, so a flushed version at
  // PSN >= ours subsumes our cached copy: everything in it is on the
  // owner's disk. The copy can stay cached, but it no longer needs to
  // travel home on replacement.
  Page* cached = pool_.Lookup(pid);
  if (cached != nullptr && pool_.IsDirty(pid) && cached->psn() <= flushed_psn) {
    pool_.MarkClean(pid);
  }
  AdvanceReclaimHorizon();
}

Status Node::HandleLogShip(NodeId from, const std::vector<LogRecord>& records,
                           bool force) {
  if (state_ != NodeState::kUp) return Status::NodeDown("owner not up");
  if (!options_.has_local_log) {
    return Status::FailedPrecondition("log ship to a node without a log");
  }
  Lsn lsn = kNullLsn;
  for (const LogRecord& rec : records) {
    CLOG_RETURN_IF_ERROR(AppendWithReclaim(rec, &lsn));
  }
  if (force) {
    CLOG_RETURN_IF_ERROR(ForceLog(lsn));
  }
  b1_received_records_ += records.size();
  metrics_.GetCounter("b1.records_received").Add(records.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery protocol handlers (Sections 2.3, 2.4)
// ---------------------------------------------------------------------------

Status Node::HandleRecoveryQuery(NodeId crashed, RecoveryQueryReply* reply) {
  *reply = RecoveryQueryReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");

  // (a) Pages owned by the crashed node present in our cache: these carry
  // all updates made before the crash and supersede log-based recovery
  // (Section 2.3.1).
  for (PageId pid : pool_.CachedPages()) {
    if (OwnerOf(pid) == crashed) reply->cached_pages_of_crashed.push_back(pid);
  }
  std::sort(reply->cached_pages_of_crashed.begin(),
            reply->cached_pages_of_crashed.end());

  // (b) Our DPT entries for its pages (Section 2.3.1). Ownership routes
  // through the directory: an adopted page's recovery state belongs to its
  // current owner, not the home baked into the PageId.
  for (const DptEntry& e : dpt_.ToEntries()) {
    if (OwnerOf(e.pid) == crashed) {
      reply->dpt_entries_for_crashed.push_back(e);
    }
  }
  std::sort(reply->dpt_entries_for_crashed.begin(),
            reply->dpt_entries_for_crashed.end(),
            [](const DptEntry& a, const DptEntry& b) { return a.pid < b.pid; });

  // (c) Lock reconstruction (Section 2.3.3): locks we acquired from the
  // crashed node rebuild its global table ...
  for (const LockListEntry& l : lock_cache_.NodeLocks()) {
    if (OwnerOf(l.pid) == crashed) {
      reply->locks_i_hold_on_crashed.push_back(l);
    }
  }

  // ... its shared locks here are released, its exclusive locks retained
  // (they fence off pages that are not yet recovered) and reported so it
  // can rebuild its lock cache.
  global_locks_.ReleaseSharedOf(crashed);
  reply->x_locks_crashed_held_here = global_locks_.ExclusiveLocksOf(crashed);

  // (d) Debts: pages of `crashed` whose history passed through a log we
  // lost to a media failure. The direct LogLossNotice could not be
  // delivered while it was down; the recovery query is the guaranteed
  // rendezvous (every restart queries every peer).
  for (const auto& [packed, needed] : poison_.entries()) {
    (void)needed;
    const PageId pid = PageId::Unpack(packed);
    if (OwnerOf(pid) == crashed) {
      reply->log_loss_pages_of_crashed.push_back(pid);
    }
  }
  std::sort(reply->log_loss_pages_of_crashed.begin(),
            reply->log_loss_pages_of_crashed.end());
  return Status::OK();
}

Status Node::HandleFetchCachedPage(NodeId from, PageId pid,
                                   std::shared_ptr<Page>* page) {
  page->reset();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  Page* cached = pool_.Lookup(pid);
  if (cached == nullptr) {
    return Status::NotFound("page not cached: " + pid.ToString());
  }
  CLOG_RETURN_IF_ERROR(WalBeforePageLeaves(pid, cached));
  auto copy = std::make_shared<Page>();
  copy->CopyFrom(*cached);
  copy->SealChecksum();
  *page = std::move(copy);
  return Status::OK();
}

Status Node::HandleBuildPsnList(NodeId from, const std::vector<PageId>& pages,
                                bool full_history, PsnListReply* reply) {
  return BuildPsnLists(pages, std::vector<bool>(pages.size(), full_history),
                       reply);
}

Status Node::BuildPsnLists(const std::vector<PageId>& pages,
                           const std::vector<bool>& full_history,
                           PsnListReply* reply) {
  *reply = PsnListReply();
  reply->per_page.resize(pages.size());
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  if (!options_.has_local_log) return Status::OK();

  // Scan once, from the minimum start among the requested pages (Section
  // 2.3.4). A partial page starts at its DPT RedoLSN; without an entry we
  // have nothing to redo for it. A full-history page (a torn or lost
  // on-disk page being rebuilt from an archive image or its space-map PSN
  // seed) starts at the log's first record — the DPT is no guide, since
  // updates already flushed and acknowledged must be replayed again.
  std::map<PageId, std::size_t> index;
  for (std::size_t i = 0; i < pages.size(); ++i) index[pages[i]] = i;

  // Re-entrancy (Section 2.4 + crash-during-recovery): a previous recovery
  // conversation for these pages may have died mid-flight — the requester
  // crashed between BuildPsnList and its final RecoverPage round — leaving
  // a stale resume cursor behind. A fresh BuildPsnList starts a fresh
  // conversation, so any leftover per-page scan state must go: the
  // try_emplace below would otherwise keep the stale cursor and make the
  // next redo pass resume at the wrong log position.
  for (const PageId& pid : pages) {
    recovery_cursor_.erase(pid);
    recovery_applied_.erase(pid);
  }
  Lsn start = kNullLsn;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    Lsn page_start = LogManager::first_lsn();
    if (!full_history[i]) {
      const DirtyPageInfo* info = dpt_.Find(pages[i]);
      if (info == nullptr) continue;
      page_start = info->redo_lsn;
    }
    if (start == kNullLsn || page_start < start) start = page_start;
  }
  if (start == kNullLsn) return Status::OK();

  // One pass: a PSN enters the list when the record's transaction differs
  // from the transaction of the previously inserted PSN for that page.
  //
  // Adaptive logging (docs/PROTOCOLS.md "Redo skip rule"): logical records
  // of a transaction that never reached a commit NOR an UNDO_BACKFILL are
  // volatile-only — their effects were never exposed (the steal barrier
  // upgrades before any covered page leaves the cache), so redo must not
  // replay them. The same scan that builds the lists classifies them: a
  // commit/backfill always carries a higher LSN than the records it covers,
  // so "logical record seen, no commit/backfill seen by log end" is proof.
  // Live transactions are exempt — an instant-restore rebuild can run while
  // normal processing has open adaptive transactions that will still commit.
  std::map<PageId, TxnId> last_txn;
  std::vector<std::vector<TxnId>> entry_txns(pages.size());
  std::set<TxnId> logical_txns;
  std::set<TxnId> resolved_txns;
  LogCursor cursor(&log_, start);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  while (cursor.Next(&rec, &lsn, &scan_status)) {
    if (rec.type == LogRecordType::kCommit ||
        rec.type == LogRecordType::kUndoBackfill) {
      resolved_txns.insert(rec.txn);
      continue;
    }
    if (!rec.IsPageUpdate()) continue;
    if (rec.type == LogRecordType::kLogicalUpdate) {
      logical_txns.insert(rec.txn);
    }
    auto it = index.find(rec.page);
    if (it == index.end()) continue;
    if (!full_history[it->second]) {
      const DirtyPageInfo* info = dpt_.Find(rec.page);
      if (info == nullptr || lsn < info->redo_lsn) {
        continue;  // Before this page's redo point: already on disk.
      }
    }
    // Remember where recovery for this page starts in our log.
    recovery_cursor_.try_emplace(rec.page, lsn);
    auto lt = last_txn.find(rec.page);
    if (lt == last_txn.end() || lt->second != rec.txn) {
      reply->per_page[it->second].push_back(PsnListEntry{rec.psn_before, lsn});
      entry_txns[it->second].push_back(rec.txn);
      last_txn[rec.page] = rec.txn;
    }
  }
  CLOG_RETURN_IF_ERROR(scan_status);

  // Drop skip-transaction entries from the lists and remember the verdict
  // for the redo rounds. Coalesced entries are per-transaction runs, so
  // erasing a skip transaction's entries removes exactly its records'
  // claim on the merged PSN order; later transactions that reused the same
  // PSNs (a previous crash's pure-logical loser) keep their own entries.
  std::set<TxnId> skip;
  for (TxnId t : logical_txns) {
    if (resolved_txns.count(t) != 0) continue;
    if (txns_.Find(t) != nullptr) continue;  // Live: will commit or upgrade.
    skip.insert(t);
  }
  if (!skip.empty()) {
    recovery_skip_txns_.insert(skip.begin(), skip.end());
    for (std::size_t i = 0; i < pages.size(); ++i) {
      auto& list = reply->per_page[i];
      std::size_t kept = 0;
      for (std::size_t j = 0; j < list.size(); ++j) {
        if (skip.count(entry_txns[i][j]) == 0) list[kept++] = list[j];
      }
      list.resize(kept);
    }
  }
  reply->records_scanned = cursor.records_read();
  metrics_.GetCounter("recovery.psn_list_scans").Add(1);
  metrics_.GetCounter("recovery.records_scanned")
      .Add(cursor.records_read());
  return Status::OK();
}

Status Node::HandleRecoverPage(NodeId from, PageId pid, const Page& page_in,
                               bool has_bound, Psn bound,
                               RecoverPageReply* reply) {
  *reply = RecoverPageReply();
  if (state_ == NodeState::kDown) return Status::NodeDown("peer down");
  if (!options_.has_local_log) {
    return Status::FailedPrecondition("no local log to recover from");
  }

  auto work = std::make_shared<Page>();
  work->CopyFrom(page_in);

  Lsn start = kNullLsn;
  auto cit = recovery_cursor_.find(pid);
  if (cit != recovery_cursor_.end()) {
    start = cit->second;
  } else if (const DirtyPageInfo* info = dpt_.Find(pid)) {
    start = info->redo_lsn;
  } else {
    start = log_.end_lsn();  // Nothing to contribute.
  }

  LogCursor cursor(&log_, start);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  bool more = false;
  while (cursor.Next(&rec, &lsn, &scan_status)) {
    if (!rec.IsPageUpdate() || rec.page != pid) continue;
    if (rec.type == LogRecordType::kLogicalUpdate &&
        recovery_skip_txns_.count(rec.txn) != 0) {
      // Redo skip rule: volatile-only record of a transaction that never
      // committed nor backfilled. Checked BEFORE the bound: the merged PSN
      // lists exclude skip entries, so a skip record past the bound must
      // not pause the round — the next real contributor is another node.
      continue;
    }
    if (has_bound && rec.psn_before > bound) {
      // Another node's updates come next in PSN order; remember where to
      // resume (Section 2.3.4).
      recovery_cursor_[pid] = lsn;
      more = true;
      break;
    }
    if (rec.psn_before == work->psn()) {
      CLOG_RETURN_IF_ERROR(ApplyRedo(rec, work.get()));
      ++reply->applied;
    }
    // Records with psn_before < page PSN are already reflected; records
    // with a higher PSN under the bound cannot occur (the coordinator's
    // ordering guarantees the gap belongs to another node).
  }
  CLOG_RETURN_IF_ERROR(scan_status);
  recovery_applied_[pid] += reply->applied;

  if (!more) {
    // Section 2.3.4 closing bookkeeping: a node that contributed nothing
    // drops its DPT entry (no lock held) or re-arms RedoLSN at the log end
    // (lock still held, all its past updates are on disk).
    recovery_cursor_.erase(pid);
    std::uint64_t total = recovery_applied_[pid];
    recovery_applied_.erase(pid);
    if (total == 0 && dpt_.Contains(pid)) {
      if (lock_cache_.NodeMode(pid) == LockMode::kNone) {
        dpt_.Remove(pid);
      } else if (DirtyPageInfo* info = dpt_.FindMutable(pid)) {
        info->redo_lsn = log_.end_lsn();
      }
      AdvanceReclaimHorizon();
    }
  }
  reply->more = more;
  work->SealChecksum();
  reply->page = std::move(work);
  metrics_.GetCounter("recovery.redo_applied").Add(reply->applied);
  return Status::OK();
}

bool Node::LostPageBase(PageId pid, Page* base) {
  // (An archived image older than the seed is from a prior life of a freed
  // and reallocated slot — useless for this incarnation.)
  if (archive_.is_open() && archive_.Restore(pid.page_no, base).ok() &&
      base->psn() >= DurableSeedPsn(pid)) {
    metrics_.GetCounter("media.archive_restores").Add(1);
    return true;
  }
  base->Format(pid, PageType::kData, DurableSeedPsn(pid));
  SlottedPage(base).InitBody();
  metrics_.GetCounter("recovery.pages_rebuilt_from_seed").Add(1);
  return false;
}

Status Node::ReplayPsnRuns(
    PageId pid, const std::map<NodeId, std::vector<PsnListEntry>>& lists,
    Page* page, PsnReplay* out) {
  *out = PsnReplay();
  const std::vector<RecoveryRun> runs = MergePsnLists(lists);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    // Runs wholly below the page are already-reflected history: an archive
    // or disk base subsumes them (full-history rebuilds ask every log for
    // the page's whole life). No round needed.
    if (i + 1 < runs.size() && runs[i + 1].psn <= page->psn()) continue;
    if (runs[i].psn > page->psn()) {
      // PSN density: every update bumped the PSN by exactly one, so the
      // schedule must tile upward from the base without gaps. A run
      // starting above the page's current PSN proves records existed that
      // no surviving log holds (a destroyed client log). Serving the page
      // would be silent data loss — fence it durably instead. The verdict
      // records the PSN the rebuild needs to reach; a later rebuild that
      // does reach it (say, that client came back) lifts the fence.
      CLOG_RETURN_IF_ERROR(PoisonOwnPage(pid, runs[i].psn));
      out->poisoned = true;
      return Status::OK();
    }
    const bool has_bound = i + 1 < runs.size();
    const Psn bound = has_bound ? runs[i + 1].psn - 1 : 0;
    RecoverPageReply reply;
    ++out->rounds;
    if (runs[i].node == id_) {
      CLOG_RETURN_IF_ERROR(
          HandleRecoverPage(id_, pid, *page, has_bound, bound, &reply));
    } else {
      CLOG_RETURN_IF_ERROR(network_->RecoverPage(id_, runs[i].node, pid, *page,
                                                 has_bound, bound, &reply));
    }
    if (reply.page) page->CopyFrom(*reply.page);
    out->applied += reply.applied;
  }
  return Status::OK();
}

Status Node::LandRebuiltPage(
    PageId pid, const Page& page,
    const std::map<NodeId, std::vector<PsnListEntry>>& lists) {
  Page* frame = pool_.Lookup(pid);
  if (frame == nullptr) {
    CLOG_ASSIGN_OR_RETURN(frame, pool_.Insert(pid));
  }
  frame->CopyFrom(page);
  pool_.MarkDirty(pid);
  for (const auto& [peer, _] : lists) {
    if (peer != id_) replacers_[pid].insert(peer);
  }
  CLOG_RETURN_IF_ERROR(ForceOwnPage(pid));
  const Psn needed = poison_.NeededPsn(pid);
  if (needed != 0 && needed != kPsnUnrecoverable && page.psn() >= needed) {
    // An earlier rebuild poisoned this page over a PSN hole; this one got
    // past it (a missing client's log came back). The image is durable as
    // of the force above, so the fence can lift.
    CLOG_RETURN_IF_ERROR(UnpoisonPage(pid));
    metrics_.GetCounter("media.pages_unpoisoned").Add(1);
  }
  metrics_.GetCounter("recovery.pages_recovered").Add(1);
  return Status::OK();
}

Status Node::HandleDptShip(NodeId from, const std::vector<DptEntry>& entries,
                           const std::vector<PageId>& cached_pages) {
  if (state_ == NodeState::kDown) return Status::NodeDown("owner down");
  for (const DptEntry& e : entries) {
    if (!OwnsPage(e.pid)) continue;
    foreign_dpt_entries_[e.pid].emplace_back(from, e);
  }
  for (PageId pid : cached_pages) {
    if (!OwnsPage(pid)) continue;
    foreign_cached_[pid].insert(from);
  }
  return Status::OK();
}

void Node::HandleNodeRecovered(NodeId who) {
  metrics_.GetCounter("recovery.peer_recovered_notices").Add(1);
  // Resume parked traffic: requests for `who` stopped at the door with
  // Unavailable while it was recovering; the next attempt goes through.
  if (parked_owners_.erase(who) > 0) {
    metrics_.GetCounter("avail.resumed").Add(1);
  }
}

PeerHealth Node::HandlePing() {
  switch (state_) {
    case NodeState::kUp:
      return PeerHealth::kUp;
    case NodeState::kRecovering:
      return PeerHealth::kRecovering;
    case NodeState::kDown:
      break;
  }
  // Unreachable in practice: the network refuses dispatch to down nodes.
  return PeerHealth::kDown;
}

}  // namespace clog
