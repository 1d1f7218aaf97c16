#ifndef CLOG_RECOVERY_LOCAL_RECOVERY_H_
#define CLOG_RECOVERY_LOCAL_RECOVERY_H_

#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

/// \file
/// Restart passes over a node's own log. The analysis pass is the ARIES
/// analysis phase, rebuilding (a superset of) the dirty page table and the
/// set of loser transactions (paper Sections 2.3.1 and 2.4: "a superset of
/// each node's DPT can be reconstructed by scanning the node's log file"
/// from the last complete checkpoint). The self-only redo pass replays the
/// pages whose whole history lives in that log (docs/RECOVERY_WALKTHROUGH.md
/// "Redo of self-only pages").

namespace clog {

/// A transaction left unresolved by the crash.
struct LoserTxn {
  Lsn first_lsn = kNullLsn;  ///< Its kBegin (or first known record).
  Lsn last_lsn = kNullLsn;   ///< Undo starts here.
};

/// Output of the analysis pass.
struct AnalysisResult {
  /// Superset DPT rebuilt from the checkpoint image plus the scan. Entries
  /// are keyed by page; RedoLSN is the earliest record that may need redo.
  std::map<PageId, DptEntry> dpt;
  /// Transactions with no commit/end record: they must be rolled back.
  std::map<TxnId, LoserTxn> losers;
  /// LSN the scan started from (last complete checkpoint's begin).
  Lsn scan_start = kNullLsn;
  /// Records examined (benchmark metric).
  std::uint64_t records_scanned = 0;
};

/// Runs analysis over `log`: loads the master checkpoint pointer, installs
/// the checkpointed DPT/ATT, and scans forward to the end of the log.
Status AnalyzeLog(LogManager* log, AnalysisResult* out);

/// One page handed to RedoSelfOnlyPages. The page image is redone in place;
/// the caller retains ownership and installs/forces it afterwards.
struct RedoPageTask {
  PageId pid;
  Page* page = nullptr;      ///< Base image, mutated by redo.
  Lsn start_lsn = kNullLsn;  ///< First log position that may concern pid
                             ///< (the page's recovery cursor); kNullLsn =
                             ///< nothing to scan for this page.
  std::uint64_t applied = 0;  ///< Out: redo records applied to `page`.
};

/// Redoes self-only pages in one forward pass over `log`, from the smallest
/// task `start_lsn` to the end. Each frame is routed by its header alone;
/// a page-update frame at or after its page's `start_lsn` is checksummed,
/// decoded and applied when its `psn_before` equals the page's PSN. The
/// skip rule drops kLogicalUpdate records of `skip_txns` (uncommitted,
/// never backfilled; docs/PROTOCOLS.md "Redo skip rule"). A checksum
/// mismatch on a routed frame returns Corruption, applying nothing after
/// it.
Status RedoSelfOnlyPages(LogManager* log, const std::set<TxnId>& skip_txns,
                         std::vector<RedoPageTask>* tasks);

}  // namespace clog

#endif  // CLOG_RECOVERY_LOCAL_RECOVERY_H_
