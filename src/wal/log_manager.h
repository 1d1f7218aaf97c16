#ifndef CLOG_WAL_LOG_MANAGER_H_
#define CLOG_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "wal/log_record.h"

/// \file
/// Per-node write-ahead log. Every node with a local disk has exactly one
/// log file holding *all* log records the node writes — for updates to its
/// own pages and to remotely owned pages alike (the paper's core idea). LSNs
/// are byte offsets into this file; LSN spaces of different nodes are
/// disjoint and never compared.

namespace clog {

class FaultInjector;
class LogDrainer;
class StagingBuffer;
class TraceSink;

/// Append/flush interface over one log file.
///
/// Durability contract (WAL, paper Section 2.1): a log record is durable
/// once Flush() has covered its LSN. The buffer pool calls Flush(page_lsn)
/// before an updated page leaves the cache, and the transaction manager
/// calls Flush(commit_lsn) at commit.
///
/// Bounded log space (paper Section 2.5): the log has a configurable
/// capacity. Live space is `end_lsn - reclaimable_lsn`, where the
/// reclaimable LSN is the minimum RedoLSN any local DPT entry still needs
/// (advanced by the node as pages are forced and flush notifications
/// arrive). Append fails with LogFull when capacity would be exceeded,
/// triggering the node's log-space pressure protocol. The file itself is
/// append-only; reclaimed prefixes simply stop counting against capacity,
/// which preserves the paper-visible behaviour without wraparound framing.
///
/// Thread safety — the lock-free front end (docs/performance.md "WAL
/// front-end"): Append never takes a lock. LSN/space reservation is one
/// CAS loop on the logical end (the capacity check is folded into the same
/// loop, so LogFull is exact under any producer count), the record body is
/// encoded into the calling thread's own staging buffer slot, and a single
/// release store publishes it. Three watermarks order everything:
///
///     flushed_lsn_  <=  published_lsn_  <=  end_lsn_
///
/// `end_lsn_` is the reserved logical end; `published_lsn_` is the end of
/// the contiguous prefix the drainer has assembled, in LSN order, into the
/// tail buffer; `flushed_lsn_` is the end of the durable prefix. The
/// invariant every caller may rely on: **records are durable only up to
/// min(published watermark, flushed LSN)** — and since Flush(up_to) first
/// waits for publication to cover `up_to`, then writes once and fsyncs
/// once, `flushed_lsn_` never overtakes `published_lsn_`. Reserved-but-
/// unpublished bytes (a producer mid-encode) are invisible to Flush, to
/// readers, and — like any unforced suffix — to crash recovery.
///
/// Two drain modes share that contract:
///  - **Inline (default; deterministic simulation).** No drainer thread:
///    Append assembles the record directly into the tail under the
///    internal mutex (uncontended: sim is single-threaded) and publication
///    is immediate, so the schedule and the produced bytes are identical
///    to the pre-front-end implementation.
///  - **Concurrent (StartDrainer; real-threads mode).** Producers are
///    lock-free as above and a background LogDrainer assembles published
///    records into the tail. Flush/ReadRecord/Close wait on the published
///    watermark; Abandon (crash) drops exactly the unpublished and
///    unforced suffix.
///
/// Orderly lifecycle methods (Open/Close/StartDrainer/StopDrainer) must
/// not run concurrently with appends — callers quiesce producers first,
/// exactly as a process shutdown does. Abandon is the exception by
/// design: it is the crash, and may race live producers and flushers —
/// they observe the closed log and fail cleanly (in-flight staged
/// records land in the lost suffix).
class LogManager {
 public:
  LogManager();
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Opens (creating if absent) the log at `path`. On reopen after a crash
  /// the tail is scanned so appends continue after the last whole record.
  Status Open(const std::string& path);

  Status Close();

  /// Lock-free: observers (assertions, space accounting, benches) must not
  /// perturb the append hot path.
  bool is_open() const { return open_.load(std::memory_order_relaxed); }

  /// Closes without flushing the append buffer — simulates losing the
  /// volatile log tail in a crash (unforced records were never durable).
  /// In concurrent mode the drainer is stopped mid-stream first: staged
  /// records it never assembled are lost with the crash, exactly like the
  /// assembled-but-unforced tail.
  void Abandon();

  // --- Drain mode (docs/architecture_modes.md) ---

  /// Switches to concurrent mode and starts the background drainer.
  /// Idempotent. Real-threads mode only; the simulation must never call
  /// this (an extra thread would perturb nothing *logically*, but inline
  /// drain is what keeps sim behaviour byte-identical and deterministic).
  void StartDrainer();

  /// Drains staged records to a barrier (published == end), stops the
  /// thread, and returns to inline mode. Called implicitly by Close.
  void StopDrainer();

  /// One drainer sweep: merges published staging records into the tail in
  /// LSN order, taking the drain role (drain_role_mu_) for the duration.
  /// Returns the number of bytes assembled (0 = nothing available).
  /// Public for the LogDrainer thread and for tests.
  std::size_t DrainPublishedBatch();

  /// Appends `rec`, assigning its LSN (returned through `*lsn`). The record
  /// is buffered; it becomes durable on the next covering Flush. Fails with
  /// LogFull if the bounded log has no room — unless `enforce_capacity` is
  /// false, which rollback paths use: compensation and end records must
  /// always be appendable or a full log could never drain (the classic
  /// ARIES rollback reservation).
  Status Append(const LogRecord& rec, Lsn* lsn, bool enforce_capacity = true);

  /// Forces all records with LSN <= `up_to` to disk (group commit: the
  /// entire assembled buffer is written, one fsync). Waits for publication
  /// up to `up_to` first in concurrent mode. No-op if already durable.
  Status Flush(Lsn up_to);

  /// Reads the record at `lsn` (possibly still unflushed; waits for its
  /// publication in concurrent mode). Returns the LSN of the following
  /// record via `*next_lsn` if non-null.
  Status ReadRecord(Lsn lsn, LogRecord* rec, Lsn* next_lsn = nullptr);

  /// Reads the raw frame at `lsn`: the undecoded record body plus the CRC
  /// the frame header stores for it, verifying neither. The self-only redo
  /// pass uses this to route frames by header and pay checksum + decode
  /// only for the frames it applies; callers must check
  /// crc32c::Value(body) == crc before decoding.
  Status ReadRawFrame(Lsn lsn, std::string* body, std::uint32_t* crc,
                      Lsn* next_lsn = nullptr);

  /// LSN that the *next* appended record will get (current logical end).
  Lsn end_lsn() const { return end_lsn_.load(std::memory_order_acquire); }

  /// End of the contiguous prefix assembled into the tail buffer. Equals
  /// end_lsn() whenever producers are quiet; lags it only transiently in
  /// concurrent mode.
  Lsn published_lsn() const {
    return published_lsn_.load(std::memory_order_acquire);
  }

  /// Highest LSN known durable.
  Lsn flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }

  /// LSN of the first valid record (after the file header).
  static constexpr Lsn first_lsn() { return kHeaderSize; }

  // --- Bounded space accounting (Section 2.5) ---

  /// Sets the capacity in bytes; 0 (default) means unbounded.
  void set_capacity(std::uint64_t bytes) {
    capacity_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Advances the reclaim horizon: all records before `lsn` are no longer
  /// needed for crash recovery (min RedoLSN moved past them).
  void SetReclaimableLsn(Lsn lsn);
  Lsn reclaimable_lsn() const {
    return reclaimable_lsn_.load(std::memory_order_acquire);
  }

  /// Bytes currently counted against capacity.
  std::uint64_t LiveBytes() const { return end_lsn() - reclaimable_lsn(); }

  /// True if appending `bytes` more would exceed a bounded capacity.
  /// Advisory under concurrency (the log-space pressure protocol polls
  /// it); the append path itself folds this check into the reservation
  /// CAS, so admission is exact even when observers race.
  bool WouldOverflow(std::uint64_t bytes) const {
    std::uint64_t cap = capacity();
    return cap != 0 && LiveBytes() + bytes > cap;
  }

  // --- Checkpoint master record ---

  /// Durably records the LSN of the last *complete* checkpoint's
  /// kCheckpointEnd record (atomic rename of a side file).
  Status StoreMaster(Lsn checkpoint_end_lsn);

  /// Reads the master pointer; kNullLsn if no checkpoint completed yet.
  Result<Lsn> LoadMaster() const;

  // --- Durable log-extent mark (media failure detection) ---

  /// Durably records the current flushed LSN in a side file that is modeled
  /// as living on the node's *metadata* device (with the space map), not on
  /// the log device. Written at every checkpoint. If a restart finds the
  /// log shorter than this mark, the log device was destroyed — not merely
  /// missing an unforced tail — and media recovery must treat every update
  /// the log ever held as potentially lost.
  Status StoreMark();

  /// Reads the durable mark; kNullLsn if never written.
  Result<Lsn> LoadMark() const;

  // --- Counters for benchmarks ---
  // Append counts live with each producer's staging buffer (two shared
  // fetch_adds per append otherwise); the accessors aggregate them over
  // the base counters, so reads are approximate while producers run and
  // exact once they quiesce.
  std::uint64_t appended_records() const;
  std::uint64_t appended_bytes() const;
  std::uint64_t forces() const {
    return forces_.load(std::memory_order_relaxed);
  }

  /// Attaches a fault injector consulted on Flush (fsync failure) and
  /// Abandon (torn tail) as `node` (nullptr detaches). Not owned.
  void set_fault_injector(FaultInjector* fault, NodeId node) {
    fault_ = fault;
    node_ = node;
  }

  /// Attaches a trace sink emitting LOG_APPEND/LOG_FORCE events as `node`
  /// (nullptr detaches). Not owned.
  void set_trace_sink(TraceSink* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  static constexpr std::uint64_t kHeaderSize = 64;
  static constexpr std::uint32_t kLogMagic = 0x434C4F4C;  // "CLOL"

  Status WriteHeader();
  Status RecoverTail();

  /// Reserves `frame_size` bytes of LSN space: one CAS loop on end_lsn_
  /// with the capacity check folded in, so concurrent producers can never
  /// jointly overshoot a bounded log. Returns the record's LSN through
  /// `*lsn`; LogFull refusals reserve nothing.
  Status ReserveLsn(std::uint64_t frame_size, bool enforce_capacity,
                    Lsn* lsn);

  /// Inline-mode append body (mu_ held): encode into the tail, reserve,
  /// publish immediately. Byte-identical to the pre-front-end path.
  Status AppendInline(const LogRecord& rec, Lsn* lsn, bool enforce_capacity);

  /// Concurrent-mode append body: lock-free staging-buffer path.
  Status AppendStaged(const LogRecord& rec, Lsn* lsn, bool enforce_capacity);

  /// The calling thread's staging buffer for this log, registering (and
  /// warming) one on first use.
  StagingBuffer* ThreadStaging();

  /// DrainPublishedBatch body; caller holds drain_role_mu_.
  std::size_t DrainBatchRoleHeld();

  /// Ensures the published watermark covers every record with start LSN
  /// <= `up_to`: first by draining the backlog itself (taking the drain
  /// role), then — only when the missing records are still unpublished in
  /// a producer's hands — by waiting. Caller holds mu_ via `lk`; it is
  /// released while draining/waiting. No-op inline.
  void AwaitPublished(Lsn up_to, std::unique_lock<std::mutex>& lk);

  /// Flush body; caller holds flush_mu_ and mu_ (via `lk`). The
  /// write+fsync itself runs with mu_ RELEASED, so producers keep
  /// appending and the drainer keeps splicing while the disk syncs;
  /// flush_mu_ keeps the I/O sections serial so flushed_lsn_ only ever
  /// advances over a fully durable prefix.
  Status FlushLocked(Lsn up_to, std::unique_lock<std::mutex>& lk);

  /// Serializes flush I/O sections (and fd teardown against them).
  /// Lock order: flush_mu_ before drain_role_mu_ before mu_, always.
  std::mutex flush_mu_;

  /// Whoever holds this *is* the drain role: the background drainer and
  /// any AwaitPublished waiter that drains the backlog itself (a commit
  /// force should not wait for another thread to be scheduled just to
  /// memcpy a few hundred bytes). The staging rings stay SPSC because
  /// consumers are serialized here; the mutex hand-off orders the
  /// consumer-side counter caches between them.
  std::mutex drain_role_mu_;

  /// Guards fd_, buffer_, buffer_start_ — the assembled tail. Producers
  /// never take it; only the drainer (briefly, per assembled batch),
  /// Flush, ReadRecord, and the lifecycle methods do. Never held across
  /// disk I/O.
  mutable std::mutex mu_;

  /// Signalled under mu_ when published_lsn_ crosses a registered waiter's
  /// threshold (see min_awaited_), and unconditionally on Abandon.
  std::condition_variable published_cv_;

  /// Lowest LSN any AwaitPublished waiter is parked on; kNoAwaiter when
  /// none. Guarded by mu_. Lets the drainer skip the per-splice notify
  /// (a futex syscall whenever a flusher is parked) until a splice
  /// actually satisfies somebody.
  static constexpr Lsn kNoAwaiter = ~static_cast<Lsn>(0);
  Lsn min_awaited_ = kNoAwaiter;


  std::string path_;
  int fd_ = -1;
  std::atomic<bool> open_{false};
  /// Concurrent (drainer) mode flag; flipped only by StartDrainer/
  /// StopDrainer with producers quiesced.
  std::atomic<bool> concurrent_{false};

  std::atomic<Lsn> end_lsn_{kHeaderSize};        ///< Reserved logical end.
  std::atomic<Lsn> published_lsn_{kHeaderSize};  ///< Assembled prefix end.
  std::atomic<Lsn> flushed_lsn_{0};  ///< All records < this are durable.
  Lsn buffer_start_ = kHeaderSize;   ///< LSN of first byte in `buffer_`.
  std::string buffer_;               ///< Assembled-but-unflushed bytes.
  /// The prefix a running Flush stole from buffer_ (O(1) swap) and is
  /// writing with mu_ released; covers [flushing_start_, buffer_start_).
  /// Non-empty only while that I/O section is in flight — i.e. only while
  /// some thread holds flush_mu_ — so teardown, which takes flush_mu_
  /// first, never sees one. ReadRecord serves these bytes from here.
  std::string flushing_chunk_;
  Lsn flushing_start_ = kHeaderSize;

  std::atomic<std::uint64_t> capacity_{0};
  std::atomic<Lsn> reclaimable_lsn_{kHeaderSize};

  std::atomic<std::uint64_t> appended_records_{0};
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> forces_{0};

  /// Registered producer staging buffers. Owned here (a producer thread
  /// may exit while its records are still staged); cleared on Open. The
  /// registry only grows between Opens, so the drainer can scan it with a
  /// brief lock per sweep.
  mutable std::mutex staging_mu_;
  std::vector<std::unique_ptr<StagingBuffer>> staging_;
  /// == staging_.size(); lets the drain role detect registry growth
  /// without taking staging_mu_ every sweep.
  std::atomic<std::size_t> staging_count_{0};
  /// Registration epoch: thread-local caches of (log, buffer) pairs are
  /// keyed by this, so a reopened or re-created LogManager never sees a
  /// stale buffer pointer. Globally monotonic.
  std::uint64_t staging_epoch_ = 0;

  std::unique_ptr<LogDrainer> drainer_;

  /// Drain-role-only scratch (DrainPublishedBatch, guarded by
  /// drain_role_mu_): reused across sweeps so a sweep allocates nothing
  /// once warm.
  std::vector<StagingBuffer*> drain_scratch_;
  std::string drain_batch_;

  FaultInjector* fault_ = nullptr;
  NodeId node_ = kInvalidNodeId;
  TraceSink* trace_ = nullptr;
  NodeId trace_node_ = kInvalidNodeId;
};

}  // namespace clog

#endif  // CLOG_WAL_LOG_MANAGER_H_
