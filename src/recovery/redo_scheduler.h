#ifndef CLOG_RECOVERY_REDO_SCHEDULER_H_
#define CLOG_RECOVERY_REDO_SCHEDULER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "wal/log_manager.h"

/// \file
/// Chain-scheduled redo (docs/RECOVERY_WALKTHROUGH.md "Redo of self-only
/// pages"): the one restart-redo engine for pages whose entire history
/// lives in the local log, which need no Section 2.3.4 cross-node
/// bouncing. The scheduler makes ONE raw pass over the log, routes each
/// update frame to its page by its header alone
/// (LogRecord::DecodeHeaderFrom), and partitions the work into
/// independent chains: the connected components of the bipartite
/// transaction/page graph, with commit-dependency edges (CommitDep entries
/// on adaptive commit records) merged in. Chains touch disjoint page sets
/// by construction, so workers replay them with no locks: each checksums,
/// decodes, and applies its chains' frames onto private page images.
/// Real-threads mode with 2+ workers uses a worker pool; otherwise the
/// chains replay sequentially in deterministic order.

namespace clog {

/// One page handed to the scheduler. The page image is redone in place;
/// the caller retains ownership and installs/forces it afterwards.
struct RedoPageTask {
  PageId pid;
  Page* page = nullptr;      ///< Base image, mutated by redo.
  Lsn start_lsn = kNullLsn;  ///< First log position that may concern pid
                             ///< (the page's recovery cursor); kNullLsn =
                             ///< nothing to scan for this page.
  std::uint64_t applied = 0;  ///< Out: redo records applied to `page`.
};

struct RedoScheduleStats {
  std::uint64_t chains = 0;          ///< Independent chains formed.
  std::uint64_t records_routed = 0;  ///< Update frames handed to workers.
  std::uint64_t applied = 0;         ///< Redo records applied, total.
};

class RedoScheduler {
 public:
  /// `skip_txns`: transactions whose logical records are redo-skipped
  /// (uncommitted, never backfilled — see docs/PROTOCOLS.md "Redo skip
  /// rule"). Not owned; must outlive Run. `workers` > 1 with
  /// `use_threads` enables the real worker pool; otherwise the caller's
  /// thread replays the chains in order.
  RedoScheduler(LogManager* log, const std::set<TxnId>* skip_txns,
                std::uint32_t workers, bool use_threads)
      : log_(log),
        skip_txns_(skip_txns),
        workers_(workers),
        use_threads_(use_threads) {}

  /// Scans, partitions, and replays. On return every task's page image is
  /// redone and `applied` filled in. The caller must be the only thread
  /// touching the log while the (single-threaded) scan runs; workers never
  /// touch the log, only their routed frame copies.
  Status Run(std::vector<RedoPageTask>* tasks, RedoScheduleStats* stats);

 private:
  LogManager* log_;
  const std::set<TxnId>* skip_txns_;
  std::uint32_t workers_;
  bool use_threads_;
};

}  // namespace clog

#endif  // CLOG_RECOVERY_REDO_SCHEDULER_H_
