#ifndef CLOG_WAL_LOG_RECORD_H_
#define CLOG_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"

/// \file
/// Log record model. Recovery is ARIES redo-undo over a local write-ahead
/// log (paper Section 2.1). Update records are *physiological*: redo is
/// page-oriented and ordered by the PSN the page had just before the update
/// (stored in every update record, as the paper requires), undo is a
/// record-level logical operation (insert is undone by delete, etc.).

namespace clog {

/// Discriminates log record kinds.
enum class LogRecordType : std::uint8_t {
  kBegin = 1,            ///< Transaction started.
  kCommit = 2,           ///< Transaction committed (force point).
  kAbort = 3,            ///< Rollback has started.
  kEnd = 4,              ///< Transaction fully finished (after commit/undo).
  kUpdate = 5,           ///< Record operation on a page.
  kClr = 6,              ///< Compensation record written during undo.
  kSavepoint = 7,        ///< Named savepoint (partial rollback target).
  kCheckpointBegin = 8,  ///< Fuzzy checkpoint start.
  kCheckpointEnd = 9,    ///< Fuzzy checkpoint body (DPT + active txns).
  /// Adaptive logging (LogStrategy::kAdaptive): a record operation logged
  /// redo-only — no before-image. Emitted only by single-node transactions
  /// updating pages they own; the before-image stays volatile on the node
  /// until commit discards it or an upgrade backfills it (kUndoBackfill).
  /// Participates in the per-page PSN order exactly like kUpdate.
  kLogicalUpdate = 10,
  /// Adaptive-logging upgrade point: the moment a transaction's logical
  /// records might need durable undo (page steal, cross-node dependency,
  /// rollback), one kUndoBackfill carries every stashed before-image,
  /// keyed by the LSN of the kLogicalUpdate it covers. No page, no PSN
  /// effect; skipped by redo and PSN-list construction.
  kUndoBackfill = 11,
};

/// Record-level operation logged by kUpdate / compensated by kClr.
enum class RecordOp : std::uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kFormat = 4,  ///< Page formatted/allocated (redo formats the page).
};

/// Entry of the dirty page table as logged in checkpoints and exchanged
/// during distributed recovery (paper Section 2.2).
struct DptEntry {
  PageId pid;
  Psn psn = 0;        ///< Page PSN the *first* time the node dirtied it.
  Psn curr_psn = 0;   ///< Page PSN after the node's *last* update.
  Lsn redo_lsn = kNullLsn;  ///< Earliest local log record that may need redo.

  friend bool operator==(const DptEntry&, const DptEntry&) = default;
};

/// Active-transaction-table entry logged in checkpoints.
struct AttEntry {
  TxnId txn = kInvalidTxnId;
  Lsn last_lsn = kNullLsn;  ///< Most recent log record of the transaction.

  friend bool operator==(const AttEntry&, const AttEntry&) = default;
};

/// One stashed before-image carried by a kUndoBackfill record.
struct BackfillEntry {
  Lsn covered_lsn = kNullLsn;  ///< LSN of the kLogicalUpdate this undoes.
  std::string undo_image;      ///< Before-image (empty for inserts).

  friend bool operator==(const BackfillEntry&, const BackfillEntry&) = default;
};

/// Dependency edge recorded in an adaptive transaction's commit record:
/// the committed predecessor whose effects this transaction read or
/// overwrote, so dependency-aware redo keeps their chains ordered.
struct CommitDep {
  TxnId txn = kInvalidTxnId;  ///< Predecessor transaction.
  Lsn lsn = kNullLsn;         ///< Predecessor's commit LSN.

  friend bool operator==(const CommitDep&, const CommitDep&) = default;
};

/// kCommit flag bits (commit_flags).
inline constexpr std::uint8_t kCommitFlagLogical = 0x1;  ///< Logged logical.

/// A fully decoded log record. One struct covers all types; unused fields
/// stay at their defaults. Encoding is explicit (no in-memory layout
/// dependence) so logs are portable and fuzzable.
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  TxnId txn = kInvalidTxnId;
  Lsn prev_lsn = kNullLsn;  ///< Previous record of the same transaction.

  // --- kUpdate / kClr ---
  PageId page;
  Psn psn_before = 0;  ///< PSN the page had just before this update.
  RecordOp op = RecordOp::kInsert;
  SlotId slot = 0;
  std::string redo_image;  ///< After-image (insert/update) or empty.
  std::string undo_image;  ///< Before-image (update/delete) or empty.

  // --- kClr only ---
  Lsn undo_next_lsn = kNullLsn;  ///< Next record to undo after this CLR.

  // --- kUndoBackfill only ---
  std::vector<BackfillEntry> backfill;

  // --- kCommit only (adaptive logging; both default-empty so commit
  // records written by the physical strategy keep their exact bytes) ---
  std::uint8_t commit_flags = 0;
  std::vector<CommitDep> commit_deps;

  // --- kSavepoint only ---
  std::string savepoint_name;

  // --- kCheckpointEnd only ---
  Lsn checkpoint_begin_lsn = kNullLsn;
  std::vector<DptEntry> dpt;
  std::vector<AttEntry> att;
  /// Sequence number of the last *sealed* fuzzy archive pass at checkpoint
  /// time (0 = archiving off or no pass yet). Informational horizon for
  /// media recovery; encoded only when nonzero, so logs written with
  /// archiving disabled stay byte-identical to pre-archive builds.
  std::uint64_t archive_seq = 0;

  /// Serializes the record body (no framing; the log manager adds
  /// length + CRC framing).
  void EncodeTo(std::string* out) const;

  /// Decodes a record body produced by EncodeTo.
  static Status DecodeFrom(Slice body, LogRecord* out);

  /// Decodes only the fixed header of a body produced by EncodeTo: type,
  /// txn and prev_lsn, plus page, psn_before, op and slot for the
  /// page-update types. Images and every other field stay at their
  /// defaults. Lets a log pass route frames without copying their images.
  static Status DecodeHeaderFrom(Slice body, LogRecord* out);

  /// Short human-readable form for traces and test failures.
  std::string ToString() const;

  /// True for the page-mutating types that participate in the per-page PSN
  /// order (redo candidates). kUndoBackfill is transactional but carries no
  /// page effect and is never a member.
  bool IsPageUpdate() const {
    return type == LogRecordType::kUpdate || type == LogRecordType::kClr ||
           type == LogRecordType::kLogicalUpdate;
  }
};

/// Name of a log record type ("UPDATE", "CLR", ...).
std::string_view LogRecordTypeName(LogRecordType t);

class Page;

/// Redoes page-update record `rec` on `page`: its record operation, then
/// one PSN bump. FailedPrecondition unless the page is at exactly the
/// record's psn_before.
Status ApplyRedo(const LogRecord& rec, Page* page);

}  // namespace clog

#endif  // CLOG_WAL_LOG_RECORD_H_
