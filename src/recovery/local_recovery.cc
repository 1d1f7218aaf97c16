#include "recovery/local_recovery.h"

#include <algorithm>

#include "common/crc32c.h"
#include "storage/page.h"
#include "wal/log_reader.h"

namespace clog {

Status AnalyzeLog(LogManager* log, AnalysisResult* out) {
  *out = AnalysisResult();

  CLOG_ASSIGN_OR_RETURN(Lsn master, log->LoadMaster());
  Lsn scan_start = LogManager::first_lsn();
  if (master != kNullLsn) {
    LogRecord ckpt;
    CLOG_RETURN_IF_ERROR(log->ReadRecord(master, &ckpt));
    if (ckpt.type != LogRecordType::kCheckpointEnd) {
      return Status::Corruption("master does not point at a checkpoint end");
    }
    for (const DptEntry& e : ckpt.dpt) out->dpt[e.pid] = e;
    for (const AttEntry& e : ckpt.att) {
      out->losers[e.txn] = LoserTxn{kNullLsn, e.last_lsn};
    }
    scan_start = ckpt.checkpoint_begin_lsn;
  }
  out->scan_start = scan_start;

  LogCursor cursor(log, scan_start);
  LogRecord rec;
  Lsn lsn = kNullLsn;
  Status scan_status;
  while (cursor.Next(&rec, &lsn, &scan_status)) {
    switch (rec.type) {
      case LogRecordType::kBegin: {
        LoserTxn& t = out->losers[rec.txn];
        t.first_lsn = lsn;
        t.last_lsn = std::max(t.last_lsn, lsn);
        break;
      }
      case LogRecordType::kUpdate:
      case LogRecordType::kClr:
      case LogRecordType::kLogicalUpdate: {
        // Logical records dirty pages exactly like physical ones; whether
        // their redo is later *skipped* (uncommitted, no backfill) is
        // decided by the PSN-list builder, not analysis — the DPT entry
        // stays conservative either way.
        LoserTxn& t = out->losers[rec.txn];
        t.last_lsn = std::max(t.last_lsn, lsn);
        auto it = out->dpt.find(rec.page);
        if (it == out->dpt.end()) {
          // First sight of the page since the checkpoint: this record is
          // its conservative RedoLSN.
          out->dpt[rec.page] =
              DptEntry{rec.page, rec.psn_before, rec.psn_before + 1, lsn};
        } else {
          it->second.curr_psn =
              std::max(it->second.curr_psn, rec.psn_before + 1);
        }
        break;
      }
      case LogRecordType::kSavepoint:
      case LogRecordType::kUndoBackfill: {
        // Both are links in the transaction's prev_lsn chain; a backfill
        // additionally marks the transaction as upgraded-to-physical, which
        // the undo pass rediscovers on its backward walk.
        LoserTxn& t = out->losers[rec.txn];
        t.last_lsn = std::max(t.last_lsn, lsn);
        break;
      }
      case LogRecordType::kCommit:
      case LogRecordType::kEnd:
        // Winners need no undo. (A commit without an end is still a
        // winner; END is bookkeeping.)
        out->losers.erase(rec.txn);
        break;
      case LogRecordType::kAbort: {
        // Rollback had started; undo continues from the last CLR.
        LoserTxn& t = out->losers[rec.txn];
        t.last_lsn = std::max(t.last_lsn, lsn);
        break;
      }
      case LogRecordType::kCheckpointBegin:
      case LogRecordType::kCheckpointEnd:
        break;
    }
  }
  CLOG_RETURN_IF_ERROR(scan_status);
  out->records_scanned = cursor.records_read();
  return Status::OK();
}

Status RedoSelfOnlyPages(LogManager* log, const std::set<TxnId>& skip_txns,
                         std::vector<RedoPageTask>* tasks) {
  std::map<PageId, RedoPageTask*> task_of_page;
  Lsn lsn = kNullLsn;
  for (RedoPageTask& t : *tasks) {
    if (t.start_lsn == kNullLsn) continue;
    task_of_page[t.pid] = &t;
    if (lsn == kNullLsn || t.start_lsn < lsn) lsn = t.start_lsn;
  }

  const Lsn end = log->end_lsn();
  std::string body;
  std::uint32_t crc = 0;
  while (lsn != kNullLsn && lsn < end) {
    Lsn next = kNullLsn;
    CLOG_RETURN_IF_ERROR(log->ReadRawFrame(lsn, &body, &crc, &next));
    LogRecord hdr;
    CLOG_RETURN_IF_ERROR(LogRecord::DecodeHeaderFrom(body, &hdr));
    auto it = hdr.IsPageUpdate() ? task_of_page.find(hdr.page)
                                 : task_of_page.end();
    if (it != task_of_page.end() && lsn >= it->second->start_lsn &&
        !(hdr.type == LogRecordType::kLogicalUpdate &&
          skip_txns.contains(hdr.txn))) {
      if (crc32c::Value(body.data(), body.size()) != crc) {
        return Status::Corruption("log record crc mismatch at lsn " +
                                  std::to_string(lsn));
      }
      LogRecord rec;
      CLOG_RETURN_IF_ERROR(LogRecord::DecodeFrom(body, &rec));
      RedoPageTask& task = *it->second;
      // Below the page's PSN: already reflected in the base image. Above
      // it cannot occur: self-only pages have no other contributor to fill
      // the gap, and a gapped history is fenced, never handed here.
      if (rec.psn_before == task.page->psn()) {
        CLOG_RETURN_IF_ERROR(ApplyRedo(rec, task.page));
        ++task.applied;
      }
    }
    lsn = next;
  }
  return Status::OK();
}

}  // namespace clog
