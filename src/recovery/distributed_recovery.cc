#include "recovery/distributed_recovery.h"

#include <algorithm>
#include <memory>

#include "recovery/redo_scheduler.h"
#include "trace/trace_sink.h"
#include "wal/log_reader.h"

namespace clog {

Status RestartRecovery::Run() {
  std::uint64_t t0 = node_->network()->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(OpenAndAnalyze());
  CLOG_RETURN_IF_ERROR(ExchangeAndRecover());
  CLOG_RETURN_IF_ERROR(UndoLosersAndFinish());
  stats_.sim_ns = node_->network()->clock()->NowNanos() - t0;
  return Status::OK();
}

void RestartRecovery::FinishPhase(std::uint32_t phase, const char* hist_name,
                                  std::uint64_t start_ns) {
  const std::uint64_t dur =
      node_->network_->clock()->NowNanos() - start_ns;
  node_->metrics_.GetHistogram(hist_name).Record(dur);
  if (node_->trace_ != nullptr) {
    node_->trace_->Emit(node_->id_, TraceEventType::kRecoveryPhase, phase,
                        dur);
  }
}

Status RestartRecovery::OpenAndAnalyze() {
  if (node_->state_ != NodeState::kDown) {
    return Status::FailedPrecondition("node is not crashed");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(node_->OpenStorage());
  // Elastic membership: re-fence pages the crash left mid-handoff and
  // publish surviving adoptions into the shared directory before any peer
  // RPC (or recovery phase) can route by ownership.
  node_->RegisterHandoffState();
  if (node_->options_.has_local_log) {
    // Media check before analysis: forced log bytes never shrink, so a log
    // shorter than the durable extent mark written at the last checkpoint
    // cannot be a lost unforced tail — the log device was destroyed and
    // recreated empty. (The mark lives on the metadata device and survives.)
    CLOG_ASSIGN_OR_RETURN(Lsn mark, node_->log_.LoadMark());
    if (mark != kNullLsn && node_->log_.end_lsn() < mark) {
      log_lost_ = true;
      stats_.log_loss_detected = true;
      node_->metrics_.GetCounter("media.log_loss_detected").Add(1);
    }
    CLOG_RETURN_IF_ERROR(AnalyzeLog(&node_->log_, &analysis_));
    // The rebuilt superset DPT (Sections 2.3.1 / 2.4).
    for (const auto& [pid, entry] : analysis_.dpt) {
      node_->dpt_.Install(entry);
    }
    stats_.analysis_records = analysis_.records_scanned;
    node_->metrics_.GetCounter("recovery.analysis_records")
        .Add(analysis_.records_scanned);
  }
  // Reachable for recovery RPCs; normal traffic stays fenced by the state.
  node_->state_ = NodeState::kRecovering;
  node_->network_->RegisterNode(node_->id_, node_);
  node_->network_->SetNodeUp(node_->id_, true);
  FinishPhase(0, "recovery.analyze_ns", t0);
  return Status::OK();
}

Status RestartRecovery::QueryPeers() {
  for (NodeId peer : node_->network_->OperationalNodes(node_->id_)) {
    RecoveryQueryReply reply;
    Status st = node_->network_->RecoveryQuery(node_->id_, peer, &reply);
    if (st.IsNodeDown()) continue;  // Crashed and not yet restarting.
    CLOG_RETURN_IF_ERROR(st);
    peer_replies_[peer] = std::move(reply);
    ++stats_.peers_queried;
  }
  return Status::OK();
}

Status RestartRecovery::ReconstructLocks() {
  // Section 2.3.3: peers report (a) locks they acquired from us — these
  // rebuild our global lock table — and (b) the exclusive locks we held on
  // their pages — retained there, and now re-installed in our lock cache.
  for (const auto& [peer, reply] : peer_replies_) {
    for (const LockListEntry& l : reply.locks_i_hold_on_crashed) {
      node_->global_locks_.Install(l.pid, peer, l.mode);
    }
    for (const LockListEntry& l : reply.x_locks_crashed_held_here) {
      node_->lock_cache_.Install(l.pid, LockMode::kExclusive);
    }
  }
  // "The crashed node needs to acquire exclusive locks for the pages
  // present in its DPT that do not have a lock entry": for owned pages the
  // fence is installed directly; remotely owned DPT pages either still
  // have our retained X (reported above) or their current version lives at
  // an operational node and needs no fence from us.
  for (const auto& [pid, info] : node_->dpt_.entries()) {
    if (!node_->OwnsPage(pid)) continue;
    if (node_->global_locks_.HoldersOf(pid).empty()) {
      node_->global_locks_.Install(pid, node_->id_, LockMode::kExclusive);
      node_->lock_cache_.Install(pid, LockMode::kExclusive);
    }
  }
  return Status::OK();
}

Status RestartRecovery::GatherPsnLists(
    const std::map<NodeId, std::vector<PageId>>& pages_per_node,
    bool full_history,
    std::map<PageId, std::map<NodeId, std::vector<PsnListEntry>>>* out) {
  for (const auto& [peer, pages] : pages_per_node) {
    PsnListReply reply;
    CLOG_RETURN_IF_ERROR(node_->network_->BuildPsnList(
        node_->id_, peer, pages, full_history, &reply));
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (!reply.per_page[i].empty()) {
        (*out)[pages[i]][peer] = std::move(reply.per_page[i]);
      }
    }
  }
  return Status::OK();
}

Result<bool> RestartRecovery::FetchCachedCopy(
    PageId pid, const std::vector<NodeId>& holders) {
  for (NodeId holder : holders) {
    std::shared_ptr<Page> copy;
    Status st =
        node_->network_->FetchCachedPage(node_->id_, holder, pid, &copy);
    if (st.ok() && copy) {
      CLOG_RETURN_IF_ERROR(node_->InstallShippedCopy(*copy, holder));
      return true;
    }
  }
  return false;
}

Status RestartRecovery::RecoverOwnPages() {
  NodeId me = node_->id_;

  // Candidates: every page of ours with a DPT entry anywhere —
  // our rebuilt superset, the peers' replies, and any Section 2.4 staged
  // shipments (Section 2.3.1: the basic ARIES DPT alone is not enough
  // because remote-only updates leave no local log records).
  std::map<PageId, std::map<NodeId, DptEntry>> contributors;
  // Ownership routes through the directory: adopted pages are ours to
  // coordinate, home pages ceded away are not.
  for (const DptEntry& e : node_->dpt_.ToEntries()) {
    if (!node_->OwnsPage(e.pid)) continue;
    contributors[e.pid][me] = e;
  }
  for (const auto& [peer, reply] : peer_replies_) {
    for (const DptEntry& e : reply.dpt_entries_for_crashed) {
      contributors[e.pid][peer] = e;
    }
  }
  for (const auto& [pid, entries] : node_->foreign_dpt_entries_) {
    for (const auto& [sender, e] : entries) contributors[pid][sender] = e;
  }
  node_->foreign_dpt_entries_.clear();

  std::map<PageId, std::vector<NodeId>> cached_at;
  for (const auto& [peer, reply] : peer_replies_) {
    for (PageId pid : reply.cached_pages_of_crashed) {
      cached_at[pid].push_back(peer);
    }
  }
  for (const auto& [pid, holders] : node_->foreign_cached_) {
    for (NodeId h : holders) cached_at[pid].push_back(h);
  }
  node_->foreign_cached_.clear();

  if (log_lost_) {
    // Our log is gone: the DPT-driven redo below has nothing to stand on.
    return RecoverOwnPagesAfterLogLoss(cached_at);
  }

  std::vector<RedoWork> work;
  std::uint64_t deferred_with_peer = 0;
  CLOG_RETURN_IF_ERROR(
      PlanOwnPages(&contributors, cached_at, &work, &deferred_with_peer));
  CLOG_RETURN_IF_ERROR(RedoOwnPages(&work));

  // Ledger hygiene: any restore-ledger entry without a live plan was
  // handled eagerly above (rescued from a peer cache, readable after all,
  // rebuilt, or poisoned) — durably forget it so later restarts stop
  // re-probing it.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    const PageId pid = PageId::Unpack(packed);
    if (!node_->restore_.IsRestoring(pid)) {
      CLOG_RETURN_IF_ERROR(node_->restore_.Forget(pid));
    }
  }
  if (stats_.pages_deferred != 0) {
    node_->metrics_.GetCounter("restore.pages_planned")
        .Add(stats_.pages_deferred);
    if (node_->trace_ != nullptr) {
      node_->trace_->Emit(me, TraceEventType::kRestorePlan,
                          stats_.pages_deferred, deferred_with_peer);
    }
  }
  return Status::OK();
}

Status RestartRecovery::PlanOwnPages(
    std::map<PageId, std::map<NodeId, DptEntry>>* contributors,
    const std::map<PageId, std::vector<NodeId>>& cached_at,
    std::vector<RedoWork>* work, std::uint64_t* deferred_with_peer) {
  const NodeId me = node_->id_;

  // Media scan (requires the archive subsystem): flushes only ever extend
  // the database file, so a file shorter than the allocation horizon means
  // the data device was lost and recreated. Every allocated page becomes a
  // probe candidate — even ones with no DPT entry anywhere — and the
  // unreadable ones rebuild below from their newest archived image.
  std::set<PageId> media_probe;
  if (node_->archive_.is_open()) {
    std::uint32_t horizon = 0;
    const std::vector<std::uint32_t> allocated =
        node_->space_map_.AllocatedPages();
    for (std::uint32_t p : allocated) horizon = std::max(horizon, p + 1);
    if (horizon != 0) {
      CLOG_ASSIGN_OR_RETURN(std::uint32_t have, node_->disk_.NumPages());
      if (have < horizon) {
        for (std::uint32_t p : allocated) {
          const PageId probe{me, p};
          // Ceded pages live (durably) at their new owner; the recreated
          // data device owes them nothing.
          if (node_->handoff_.IsCeded(probe)) continue;
          media_probe.insert(probe);
          if (contributors->try_emplace(probe).second) {
            ++stats_.media_candidates;
          }
        }
      }
    }
  }
  // Pages a previous, interrupted instant-restore epoch planned but never
  // finished. On-demand rebuilds run in workload order, so a completed
  // high-numbered page may have re-extended the file — the extent check
  // above can go blind while lower pages are still holes. The durable
  // restore ledger is the authority: its entries are probe candidates
  // regardless of what the extent says.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    const PageId pid = PageId::Unpack(packed);
    if (pid.owner != me || !node_->space_map_.IsAllocated(pid.page_no)) {
      CLOG_RETURN_IF_ERROR(node_->restore_.Forget(pid));
      continue;
    }
    if (media_probe.insert(pid).second &&
        contributors->try_emplace(pid).second) {
      ++stats_.media_candidates;
    }
  }
  if (stats_.media_candidates != 0) {
    node_->metrics_.GetCounter("media.scan_candidates")
        .Add(stats_.media_candidates);
  }

  // Sort every candidate, in PageId order: clean, fenced, deferred to
  // instant restore, rescued from a peer's cache, or redo work.
  for (auto& [pid, contribs] : *contributors) {
    auto cit = cached_at.find(pid);
    const bool device_rebuilding = media_probe.contains(pid);
    // Instant restore defers media-lost pages even when a peer caches a
    // copy: the plan records the holder as a peer candidate and the
    // on-demand rebuild fetches it at first touch, so restart itself does
    // no page transfers at all. (If the holder drops the copy first, the
    // rebuild falls back to archive + redo — the contributors' logs stay
    // pinned below either way.)
    const bool defer_to_restore =
        node_->options_.instant_restore.enabled && device_rebuilding;
    if (cit != cached_at.end() && !defer_to_restore) {
      // Section 2.3.1: a copy cached at an operational node carries every
      // update made before the crash; fetch it instead of redoing logs.
      CLOG_ASSIGN_OR_RETURN(bool fetched, FetchCachedCopy(pid, cit->second));
      if (fetched || node_->pool_.Contains(pid)) {
        for (const auto& [n, e] : contribs) {
          if (n != me) node_->replacers_[pid].insert(n);
        }
        ++stats_.own_pages_fetched;
        node_->metrics_.GetCounter("recovery.pages_fetched_from_cache").Add(1);
        if (node_->poison_.Contains(pid) &&
            (device_rebuilding || node_->pool_.IsDirty(pid))) {
          // A surviving cached copy carries every committed update — it
          // supersedes any poison verdict, even a permanent one. Make it
          // durable first, then lift the fence.
          CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
          CLOG_RETURN_IF_ERROR(node_->UnpoisonPage(pid));
          node_->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
        } else if (device_rebuilding && node_->pool_.IsDirty(pid)) {
          // The fetched copy may be the recreated data device's only image
          // of this page. Force it home now: a fuzzy checkpoint never
          // flushes it, so an ordinary crash later would otherwise find the
          // rebuilt device still holding a hole here — with nothing left to
          // flag the page for redo.
          CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
        }
        continue;
      }
      // Fall through to the redo path if every fetch failed.
    }

    if (node_->poison_.NeededPsn(pid) == kPsnUnrecoverable) {
      // Permanently fenced with no surviving cache copy: the lost records
      // were at the top of its history, so no redo collection can prove a
      // rebuild complete. Leave the fence standing.
      continue;
    }

    auto base = std::make_unique<Page>();
    Status rd = node_->ReadDurablePage(pid, base.get());
    node_->ChargeDiskRead();

    RedoWork item;
    item.pid = pid;
    if (rd.IsCorruption() || rd.IsNotFound()) {
      if (defer_to_restore) {
        // Instant restore: don't rebuild now. Record everything the
        // on-demand rebuild will need — durably, so a crash mid-epoch
        // re-probes this page even after later rebuilds re-extend the
        // file — and open for traffic without it. Only pages *unreadable
        // right now* may defer: anything readable was either never lost or
        // already rebuilt, and the readable-means-restored rule the
        // rebuild relies on holds only under that discipline.
        InstantRestoreManager::Plan plan;
        plan.pid = pid;
        if (cit != cached_at.end()) plan.peer_candidates = cit->second;
        for (const auto& [peer, _] : peer_replies_) {
          plan.redo_sources.push_back(peer);
        }
        plan.priority = static_cast<std::uint32_t>(
            contribs.size() + plan.peer_candidates.size());
        if (!plan.peer_candidates.empty()) ++*deferred_with_peer;
        // Pin the contributors' logs: their DPT entries stand until the
        // rebuild's page force sends flush notifications.
        for (const auto& [n, e] : contribs) {
          if (n != me) node_->replacers_[pid].insert(n);
        }
        CLOG_RETURN_IF_ERROR(node_->restore_.Add(std::move(plan)));
        ++stats_.pages_deferred;
        continue;
      }
      // Torn page write (the crash interrupted a flush mid-page or
      // half-extended the file) or a lost data device. The on-disk version
      // is gone; start from the newest archived image if one exists, else
      // from the page's space-map PSN seed — the PSN this incarnation
      // started at — and redo the whole history forward from that base.
      if (node_->LostPageBase(pid, base.get())) ++stats_.archive_restores;
      item.full_history = true;
    } else {
      CLOG_RETURN_IF_ERROR(rd);
      Psn disk_psn = base->psn();
      // Section 2.3.2: a node whose CurrPSN <= the disk PSN has all its
      // updates on disk already — not involved; its entry can be dropped
      // (the flush notification does exactly that).
      for (const auto& [n, e] : contribs) {
        if (e.curr_psn > disk_psn) {
          item.involved.push_back(n);
        } else if (n != me) {
          node_->network_->FlushNotify(me, n, pid, disk_psn).ok();
        } else {
          node_->dpt_.OnOwnerFlushed(pid, disk_psn);
        }
      }
      if (item.involved.empty()) {
        ++stats_.clean_candidates;
        continue;
      }
    }
    item.base = std::move(base);
    work->push_back(std::move(item));
  }
  return Status::OK();
}

Status RestartRecovery::RedoOwnPages(std::vector<RedoWork>* work) {
  const NodeId me = node_->id_;
  // Section 2.3.4: one NodePSNList request per involved node, covering all
  // of that node's pages. Full-history rebuilds must hear from *every*
  // reachable node, not just DPT contributors: a node whose flushed
  // updates were acknowledged dropped its entry, yet those updates are
  // part of the history being replayed from the seed.
  //
  // Our own log is read once (Section 2.3(d)): the same pass serves our
  // partial and full-history pages and the remote pages
  // RecoverRemotePages will redo, leaving their resume cursors and the
  // redo skip set behind.
  std::vector<PageId> own_pages;
  std::vector<bool> own_full;
  std::map<NodeId, std::vector<PageId>> pages_per_node;
  std::map<NodeId, std::vector<PageId>> full_pages_per_node;
  for (const RedoWork& item : *work) {
    if (item.full_history) {
      own_pages.push_back(item.pid);
      own_full.push_back(true);
      for (const auto& [peer, _] : peer_replies_) {
        full_pages_per_node[peer].push_back(item.pid);
      }
      continue;
    }
    for (NodeId n : item.involved) {
      if (n != me) {
        pages_per_node[n].push_back(item.pid);
      } else {
        own_pages.push_back(item.pid);
        own_full.push_back(false);
      }
    }
  }
  for (const DptEntry& e : node_->dpt_.ToEntries()) {
    if (!HeldRemotePage(e.pid)) continue;
    own_pages.push_back(e.pid);
    own_full.push_back(false);
    remote_scanned_.push_back(e.pid);
  }
  std::map<PageId, std::map<NodeId, std::vector<PsnListEntry>>> lists;
  PsnListReply own;
  CLOG_RETURN_IF_ERROR(node_->BuildPsnLists(own_pages, own_full, &own));
  for (std::size_t i = 0; i < own_pages.size(); ++i) {
    if (!own.per_page[i].empty()) {
      lists[own_pages[i]][me] = std::move(own.per_page[i]);
    }
  }
  CLOG_RETURN_IF_ERROR(
      GatherPsnLists(pages_per_node, /*full_history=*/false, &lists));
  CLOG_RETURN_IF_ERROR(
      GatherPsnLists(full_pages_per_node, /*full_history=*/true, &lists));

  // Self-only pages — every PSN-list entry comes from our own log — need no
  // Section 2.3.4 bouncing: the chain scheduler (recovery/redo_scheduler.h)
  // redoes them all in one raw pass over the local log, replaying
  // page-disjoint transaction chains on the worker pool (real mode) or in
  // deterministic chain order on this thread. Multi-node histories,
  // full-history rebuilds, and histories with a PSN hole (which the replay
  // below fences) bounce between the nodes instead.
  std::vector<RedoPageTask> tasks;
  for (RedoWork& item : *work) {
    const auto& ls = lists[item.pid];
    if (item.full_history ||
        std::any_of(ls.begin(), ls.end(),
                    [me](const auto& entry) { return entry.first != me; })) {
      continue;
    }
    const std::vector<RecoveryRun> runs = MergePsnLists(ls);
    if (!runs.empty() && runs[0].psn > item.base->psn()) continue;
    RedoPageTask task;
    task.pid = item.pid;
    task.page = item.base.get();
    auto cur = node_->recovery_cursor_.find(item.pid);
    task.start_lsn =
        cur != node_->recovery_cursor_.end() ? cur->second : kNullLsn;
    tasks.push_back(task);
    item.scheduled = true;
  }
  if (!tasks.empty()) {
    Executor* exec = node_->network_->executor();
    RedoScheduler scheduler(
        &node_->log_, &node_->recovery_skip_txns_,
        node_->options_.logging_policy->redo_workers,
        /*use_threads=*/exec != nullptr && exec->real_threads());
    RedoScheduleStats rstats;
    CLOG_RETURN_IF_ERROR(scheduler.Run(&tasks, &rstats));
    stats_.redo_chains += rstats.chains;
    stats_.parallel_pages += tasks.size();
    stats_.parallel_applied += rstats.applied;
    stats_.redo_applied += rstats.applied;
    node_->metrics_.GetCounter("recovery.parallel_chains").Add(rstats.chains);
    node_->metrics_.GetCounter("recovery.redo_applied").Add(rstats.applied);
  }

  // Land every page in PageId order, whichever engine redid it.
  for (RedoWork& item : *work) {
    if (item.scheduled) {
      // The scheduler bypassed HandleRecoverPage, whose final round would
      // have dropped the conversation's per-page scan state.
      node_->recovery_cursor_.erase(item.pid);
      node_->recovery_applied_.erase(item.pid);
    } else {
      Node::PsnReplay replay;
      CLOG_RETURN_IF_ERROR(node_->ReplayPsnRuns(item.pid, lists[item.pid],
                                                item.base.get(), &replay));
      stats_.redo_rounds += replay.rounds;
      stats_.redo_applied += replay.applied;
      if (replay.poisoned) {
        ++stats_.pages_poisoned;
        continue;
      }
    }
    CLOG_RETURN_IF_ERROR(
        node_->LandRebuiltPage(item.pid, *item.base, lists[item.pid]));
    ++stats_.own_pages_recovered;
  }
  return Status::OK();
}

Status RestartRecovery::RecoverOwnPagesAfterLogLoss(
    const std::map<PageId, std::vector<NodeId>>& cached_at) {
  const NodeId me = node_->id_;
  // With the log destroyed there is no analysis DPT, no redo source, and —
  // decisively — no way to bound which of our own pages had updates whose
  // only trace was here (top of history: local updates to own pages leave
  // no remote record). Exactly one rescue exists per page: a copy still
  // cached at a peer carries every committed update (a cached copy implies
  // a live lock, and any newer update would have called that lock back).
  // Fetch those, flush them durable, and poison everything else.
  std::uint64_t restored = 0;
  std::vector<PageId> sweep;
  for (std::uint32_t page_no : node_->space_map_.AllocatedPages()) {
    const PageId pid{me, page_no};
    if (node_->handoff_.IsCeded(pid)) continue;  // Lives at its new owner.
    sweep.push_back(pid);
  }
  // Adopted pages are ours too: their newest history could be in the lost
  // log just like a home page's.
  for (PageId pid : node_->handoff_.AdoptedPages()) sweep.push_back(pid);
  for (PageId pid : sweep) {
    bool fetched = false;
    auto cit = cached_at.find(pid);
    if (cit != cached_at.end()) {
      CLOG_ASSIGN_OR_RETURN(fetched, FetchCachedCopy(pid, cit->second));
    }
    if (fetched) {
      if (node_->pool_.IsDirty(pid)) {
        CLOG_RETURN_IF_ERROR(node_->ForceOwnPage(pid));
      }
      // (Not dirty means the install bypassed a full pool and wrote the
      // copy straight home, synced — durable either way.)
      if (node_->poison_.Contains(pid)) {
        CLOG_RETURN_IF_ERROR(node_->UnpoisonPage(pid));
        node_->metrics_.GetCounter("media.pages_unpoisoned").Add(1);
      }
      ++restored;
      ++stats_.own_pages_fetched;
      node_->metrics_.GetCounter("recovery.pages_fetched_from_cache").Add(1);
      continue;
    }
    CLOG_RETURN_IF_ERROR(node_->PoisonOwnPage(pid, kPsnUnrecoverable));
    ++stats_.pages_poisoned;
  }
  node_->metrics_.GetCounter("media.log_loss_pages_restored").Add(restored);
  // Every allocated page is now durable or poisoned, so any restore-ledger
  // entries from an interrupted earlier epoch are settled too.
  for (std::uint64_t packed : node_->restore_.LedgerEntries()) {
    CLOG_RETURN_IF_ERROR(node_->restore_.Forget(PageId::Unpack(packed)));
  }
  return Status::OK();
}

Status RestartRecovery::RecoverRemotePages() {
  NodeId me = node_->id_;
  // Section 2.3.1 (b): remotely owned pages that were exclusively locked
  // by this node at crash time — their newest version died with our cache.
  for (const DptEntry& e : node_->dpt_.ToEntries()) {
    PageId pid = e.pid;
    if (!HeldRemotePage(pid)) continue;
    // Base version: the owner's newest copy (cache or disk). If the owner
    // crashed too, it coordinates this page itself (Section 2.4) using the
    // DPT entries and log scans it collects from us.
    LockPageReply reply;
    Status st = node_->network_->LockPage(me, node_->OwnerOf(pid), pid,
                                          LockMode::kExclusive,
                                          /*want_page=*/true, &reply);
    if (st.IsNodeDown()) continue;
    if (st.IsCorruption()) {
      // The owner poisoned the page after a media failure: it refuses to
      // hand out a base version, and our redo would change nothing. Drop
      // our DPT entry — the records it guards redo a page that can never
      // be served again — so the log is not pinned forever.
      node_->dpt_.Remove(pid);
      node_->AdvanceReclaimHorizon();
      continue;
    }
    CLOG_RETURN_IF_ERROR(st);
    if (!reply.granted || !reply.page) continue;
    if (reply.page->psn() >= e.curr_psn) {
      // Owner's version already covers all our updates — but the grant may
      // have demoted the owner's dirty copy to a clean stale home copy, on
      // the strength of the version that just traveled here. Discarding it
      // would let the newest committed state evaporate when the owner
      // evicts; cache it dirty so it ships home like any callback copy.
      Page* frame = node_->pool_.Lookup(pid);
      if (frame == nullptr) {
        CLOG_ASSIGN_OR_RETURN(frame, node_->pool_.Insert(pid));
      }
      if (reply.page->psn() > frame->psn()) {
        frame->CopyFrom(*reply.page);
      }
      node_->pool_.MarkDirty(pid);
      continue;
    }
    // Only our log can contain the missing tail (any other node's updates
    // predate our exclusive lock and traveled with the page). RedoOwnPages'
    // pass left this page's resume cursor.
    RecoverPageReply rreply;
    ++stats_.redo_rounds;
    CLOG_RETURN_IF_ERROR(node_->HandleRecoverPage(me, pid, *reply.page,
                                                  /*has_bound=*/false, 0,
                                                  &rreply));
    stats_.redo_applied += rreply.applied;
    Page* frame = node_->pool_.Lookup(pid);
    if (frame == nullptr) {
      CLOG_ASSIGN_OR_RETURN(frame, node_->pool_.Insert(pid));
    }
    if (rreply.page) frame->CopyFrom(*rreply.page);
    node_->pool_.MarkDirty(pid);
    ++stats_.remote_pages_recovered;
    node_->metrics_.GetCounter("recovery.remote_pages_recovered").Add(1);
  }
  // A redone page's last RecoverPage round dropped its cursor; a page left
  // alone (owner down, page poisoned, owner's copy current) must not carry
  // the pass's cursor into a later conversation.
  for (PageId pid : remote_scanned_) node_->recovery_cursor_.erase(pid);
  return Status::OK();
}

Status RestartRecovery::ExchangeAndRecover() {
  CLOG_RETURN_IF_ERROR(ExchangePeerState());
  return RedoPages();
}

Status RestartRecovery::ExchangePeerState() {
  if (node_->state_ != NodeState::kRecovering) {
    return Status::FailedPrecondition("analysis has not run");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(QueryPeers());
  CLOG_RETURN_IF_ERROR(ReconstructLocks());

  // Debts owed to us: pages of ours that a peer's destroyed log left
  // unrecoverable while we were unreachable. The verdict is permanent.
  for (const auto& [peer, reply] : peer_replies_) {
    (void)peer;
    for (PageId pid : reply.log_loss_pages_of_crashed) {
      if (!node_->OwnsPage(pid)) continue;
      CLOG_RETURN_IF_ERROR(node_->PoisonOwnPage(pid, kPsnUnrecoverable));
      ++stats_.pages_poisoned;
    }
  }

  // Debts we owe: verdicts from an earlier log loss whose owners were
  // unreachable then. Retry delivery; the entry is retired once the owner
  // has durably poisoned (its handler does so before replying OK).
  std::map<NodeId, std::vector<PageId>> owed;
  for (const auto& [packed, needed] : node_->poison_.entries()) {
    (void)needed;
    const PageId pid = PageId::Unpack(packed);
    if (!node_->OwnsPage(pid)) owed[node_->OwnerOf(pid)].push_back(pid);
  }
  for (const auto& [owner, pages] : owed) {
    if (node_->network_->LogLossNotice(node_->id_, owner, pages).ok()) {
      for (PageId pid : pages) {
        CLOG_RETURN_IF_ERROR(node_->poison_.Remove(pid));
      }
    }
  }

  if (log_lost_) CLOG_RETURN_IF_ERROR(HandleLogLoss());

  exchange_done_ = true;
  FinishPhase(1, "recovery.exchange_ns", t0);
  return Status::OK();
}

Status RestartRecovery::HandleLogLoss() {
  const NodeId me = node_->id_;
  // In ship-to-owner mode (B1) the destroyed log held records for OUR
  // pages only; remote owners' histories live in their own logs and need
  // no poisoning from us. In the paper's client-local mode, any remote
  // page we held exclusively at the crash had the newest part of its
  // history only in our log — at the very top, where no surviving log can
  // prove a rebuild complete — so its owner must fence it permanently.
  // Every reachable peer is notified even with an empty page list: the
  // notice also triggers the receivers' flush hygiene, pushing surviving
  // dirty copies to disk so no future rebuild needs the destroyed records.
  for (const auto& [peer, reply] : peer_replies_) {
    std::vector<PageId> pages;
    if (node_->options_.logging_mode != LoggingMode::kShipToOwner) {
      for (const LockListEntry& l : reply.x_locks_crashed_held_here) {
        if (node_->OwnerOf(l.pid) == peer) pages.push_back(l.pid);
      }
      std::sort(pages.begin(), pages.end());
      pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    }
    Status st = node_->network_->LogLossNotice(me, peer, pages);
    if (st.ok()) continue;
    if (!st.IsNodeDown() && !st.IsUnavailable()) return st;
    // Owner vanished before the verdict landed: record it as a durable
    // debt, delivered when the owner's own restart queries us (or by the
    // retry sweep above on our next restart).
    for (PageId pid : pages) {
      CLOG_RETURN_IF_ERROR(node_->poison_.Add(pid, kPsnUnrecoverable));
    }
    node_->metrics_.GetCounter("media.debts_recorded").Add(pages.size());
  }
  return Status::OK();
}

Status RestartRecovery::RedoPages() {
  if (node_->state_ != NodeState::kRecovering || !exchange_done_) {
    return Status::FailedPrecondition("peer exchange has not run");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  CLOG_RETURN_IF_ERROR(RecoverOwnPages());
  CLOG_RETURN_IF_ERROR(RecoverRemotePages());
  node_->recovery_redo_done_ = true;
  if (node_->trace_ != nullptr &&
      (log_lost_ || stats_.media_candidates != 0 ||
       stats_.archive_restores != 0 || stats_.pages_poisoned != 0)) {
    node_->trace_->Emit(node_->id_, TraceEventType::kMediaRecovery,
                        stats_.media_candidates, stats_.archive_restores,
                        static_cast<std::uint32_t>(stats_.pages_poisoned));
  }
  FinishPhase(2, "recovery.redo_ns", t0);
  return Status::OK();
}

Status RestartRecovery::UndoLosersAndFinish() {
  if (node_->state_ != NodeState::kRecovering) {
    return Status::FailedPrecondition("recovery phases out of order");
  }
  const std::uint64_t t0 = node_->network_->clock()->NowNanos();
  // Roll back every loser (ARIES undo over the local log only — no log
  // merging, the paper's key property). Exclusive locks reconstructed in
  // Section 2.3.3 fence these pages until the undo completes.
  for (const auto& [txn_id, loser] : analysis_.losers) {
    Transaction* txn =
        node_->txns_.Resurrect(txn_id, loser.first_lsn, loser.last_lsn);
    // Adaptive logging: walk the raw prev_lsn chain first — NOT the undo
    // cursor, whose CLR undo_next jumps can hop over an UNDO_BACKFILL
    // record — to refill the before-image stash and classify the loser.
    // A pure-logical loser (logical records, no backfill) never exposed
    // anything: the steal barrier upgrades before a covered page can leave
    // the cache, so its records were redo-skipped everywhere and there is
    // nothing on any page to compensate. It gets an END record only; its
    // log records stay behind as permanent skip records.
    bool saw_logical = false;
    bool saw_backfill = false;
    for (Lsn walk = loser.last_lsn; walk != kNullLsn;) {
      LogRecord rec;
      CLOG_RETURN_IF_ERROR(node_->log_.ReadRecord(walk, &rec));
      if (rec.type == LogRecordType::kUndoBackfill) {
        saw_backfill = true;
        for (const BackfillEntry& e : rec.backfill) {
          txn->logical_undos.emplace(e.covered_lsn, e.undo_image);
        }
      } else if (rec.type == LogRecordType::kLogicalUpdate) {
        saw_logical = true;
      }
      walk = rec.prev_lsn;
    }
    const bool pure_logical = saw_logical && !saw_backfill;
    if (pure_logical) {
      ++stats_.logical_losers_skipped;
      node_->metrics_.GetCounter("recovery.logical_losers_skipped").Add(1);
    } else if (loser.last_lsn != kNullLsn) {
      CLOG_RETURN_IF_ERROR(node_->RollbackTo(txn, kNullLsn));
    }
    LogRecord end;
    end.type = LogRecordType::kEnd;
    end.txn = txn_id;
    end.prev_lsn = txn->last_lsn;
    Lsn lsn = kNullLsn;
    CLOG_RETURN_IF_ERROR(node_->log_.Append(end, &lsn));
    node_->lock_cache_.ReleaseTxnLocks(txn_id);
    node_->txns_.Remove(txn_id);
    ++stats_.losers_undone;
    node_->metrics_.GetCounter("recovery.losers_undone").Add(1);
  }

  node_->state_ = NodeState::kUp;
  // Elastic membership: settle handoffs the crash interrupted — prepared
  // records abort locally, shipped ones ask the target whether its durable
  // adoption landed. In-doubt records (target unreachable) stay fenced.
  CLOG_RETURN_IF_ERROR(node_->ResolvePendingHandoffs());
  if (node_->restore_.active()) {
    // Open-for-business with rebuilds pending: the next successful commit
    // closes the restore.first_commit_ns measurement.
    node_->restore_.BeginEpoch(node_->network_->clock()->NowNanos());
  }
  if (node_->options_.has_local_log) {
    CLOG_RETURN_IF_ERROR(node_->Checkpoint());
  }
  for (NodeId peer : node_->network_->OperationalNodes(node_->id_)) {
    node_->network_->NodeRecovered(node_->id_, peer, node_->id_).ok();
  }
  node_->metrics_.GetCounter("recovery.restarts").Add(1);
  FinishPhase(3, "recovery.undo_ns", t0);
  return Status::OK();
}

}  // namespace clog
