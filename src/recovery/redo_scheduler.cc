#include "recovery/redo_scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>

#include "common/crc32c.h"
#include "wal/log_record.h"

namespace clog {

namespace {

/// Union-find over chain vertices: tasks (pages) first, transactions
/// appended lazily behind them.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Add() {
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

/// One routed frame: still raw — the worker checksums and decodes it.
struct RoutedFrame {
  Lsn lsn = kNullLsn;
  std::uint32_t crc = 0;
  std::size_t task = 0;  ///< Index into *tasks.
  std::string body;
};

/// Replays one chain: CRC check, decode, apply-when-PSN-matches, in LSN
/// order. Tasks are page-disjoint across chains, so no synchronization.
Status ReplayChain(const std::vector<RoutedFrame*>& frames,
                   std::vector<RedoPageTask>* tasks) {
  for (const RoutedFrame* f : frames) {
    if (crc32c::Value(f->body.data(), f->body.size()) != f->crc) {
      return Status::Corruption("log record crc mismatch at lsn " +
                                std::to_string(f->lsn));
    }
    LogRecord rec;
    CLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(f->body, &rec));
    RedoPageTask& task = (*tasks)[f->task];
    if (rec.psn_before == task.page->psn()) {
      CLOG_RETURN_IF_ERROR(ApplyRedo(rec, task.page));
      ++task.applied;
    }
    // Below the page's PSN: already reflected in the base image. Above it
    // cannot occur — self-only pages have no other contributor to fill
    // the gap, and a gapped history is fenced, never scheduled.
  }
  return Status::OK();
}

}  // namespace

Status RedoScheduler::Run(std::vector<RedoPageTask>* tasks,
                          RedoScheduleStats* stats) {
  *stats = RedoScheduleStats();
  if (tasks->empty()) return Status::OK();

  std::map<PageId, std::size_t> task_of_page;
  Lsn scan_start = kNullLsn;
  for (std::size_t i = 0; i < tasks->size(); ++i) {
    const RedoPageTask& t = (*tasks)[i];
    task_of_page[t.pid] = i;
    if (t.start_lsn == kNullLsn) continue;
    if (scan_start == kNullLsn || t.start_lsn < scan_start) {
      scan_start = t.start_lsn;
    }
  }

  // --- Single raw pass: route frames, grow the dependency graph. ---
  Dsu dsu(tasks->size());
  std::map<TxnId, std::size_t> txn_vertex;
  auto vertex_of = [&](TxnId txn) {
    auto [it, inserted] = txn_vertex.try_emplace(txn, 0);
    if (inserted) it->second = dsu.Add();
    return it->second;
  };
  std::vector<RoutedFrame> routed;
  const Lsn end = log_->end_lsn();
  for (Lsn lsn = scan_start; lsn != kNullLsn && lsn < end;) {
    RoutedFrame f;
    Lsn next = kNullLsn;
    CLOG_RETURN_IF_ERROR(log_->ReadRawFrame(lsn, &f.body, &f.crc, &next));
    LogRecord hdr;
    CLOG_RETURN_IF_ERROR(LogRecord::DecodeHeaderFrom(f.body, &hdr));
    if (hdr.IsPageUpdate()) {
      auto it = task_of_page.find(hdr.page);
      if (it != task_of_page.end() &&
          (*tasks)[it->second].start_lsn != kNullLsn &&
          lsn >= (*tasks)[it->second].start_lsn) {
        const bool skip = hdr.type == LogRecordType::kLogicalUpdate &&
                          skip_txns_->count(hdr.txn) != 0;
        if (!skip) {
          dsu.Union(it->second, vertex_of(hdr.txn));
          f.lsn = lsn;
          f.task = it->second;
          routed.push_back(std::move(f));
        }
      }
    } else if (hdr.type == LogRecordType::kCommit) {
      // Dependency edges ride on adaptive commit records: the committing
      // transaction follows its predecessors, so their chains must not
      // split. (Cheap decode: commit bodies are a few dozen bytes.)
      LogRecord rec;
      CLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(f.body, &rec));
      if (!rec.commit_deps.empty()) {
        const std::size_t me = vertex_of(rec.txn);
        for (const CommitDep& d : rec.commit_deps) {
          dsu.Union(me, vertex_of(d.txn));
        }
      }
    }
    lsn = next;
  }
  stats->records_routed = routed.size();

  // --- Partition into chains (stable: scan order == LSN order). ---
  std::map<std::size_t, std::vector<RoutedFrame*>> chains;
  for (RoutedFrame& f : routed) {
    chains[dsu.Find(f.task)].push_back(&f);
  }
  stats->chains = chains.size();

  // Deterministic replay order: by each chain's first frame LSN. Chains
  // are page-disjoint so the order cannot change any page's bytes; it
  // keeps the simulation schedule reproducible and spreads long chains
  // first across the real worker pool.
  std::vector<std::vector<RoutedFrame*>*> order;
  order.reserve(chains.size());
  for (auto& [root, frames] : chains) order.push_back(&frames);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) {
              return a->front()->lsn < b->front()->lsn;
            });

  // --- Replay: worker pool in real mode, sequential in simulation. ---
  Status first_error;
  const std::uint32_t pool =
      std::min<std::uint32_t>(workers_,
                              static_cast<std::uint32_t>(order.size()));
  if (use_threads_ && pool > 1) {
    std::vector<Status> results(order.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::uint32_t w = 0; w < pool; ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= order.size()) return;
          results[i] = ReplayChain(*order[i], tasks);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& st : results) {
      if (!st.ok()) {
        first_error = st;
        break;
      }
    }
  } else {
    for (auto* frames : order) {
      first_error = ReplayChain(*frames, tasks);
      if (!first_error.ok()) break;
    }
  }
  CLOG_RETURN_IF_ERROR(first_error);

  for (const RedoPageTask& t : *tasks) stats->applied += t.applied;
  return Status::OK();
}

}  // namespace clog
