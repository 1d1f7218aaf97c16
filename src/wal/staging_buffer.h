#ifndef CLOG_WAL_STAGING_BUFFER_H_
#define CLOG_WAL_STAGING_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

/// \file
/// Per-producer staging buffer of the lock-free WAL front end (NanoLog
/// architecture, docs/performance.md "WAL front-end"). Each producer thread
/// that appends to a LogManager in concurrent (drainer) mode owns one
/// StagingBuffer: a single-producer/single-consumer ring of record slots.
/// The producer encodes a framed record into a slot and publishes it with
/// one release store; the background drainer consumes published slots in
/// LSN order and assembles them into the durable tail. Producers never take
/// a lock and never touch another thread's buffer.

namespace clog {

/// SPSC slot ring. The producer is the registered appender thread; the
/// consumer is the LogManager's drainer (or whoever holds the drain role
/// during Close). Indices are monotonic 64-bit counters; the slot array
/// size is a power of two so `counter & mask` addresses the slot.
///
/// Each slot owns a std::string holding one complete on-disk frame
/// (u32 body_len | u32 crc | body). Strings keep their capacity across
/// laps, so a warmed-up ring appends with zero allocation; Reserve()
/// pre-sizes every slot once at registration to kill first-append jitter.
/// Variable-length records need no wrap handling — the string grows.
class StagingBuffer {
 public:
  /// Slots per ring. 2048 in-flight records (~half a megabyte of staged
  /// frames at update-record sizes) balance two pressures measured on a
  /// small host: a deep ring lets the drainer fall a whole scheduling
  /// quantum behind without producers noticing (shallow rings turn every
  /// drainer absence into a p99.9 spike of ring-full spinning), while the
  /// rings' combined cache footprint scales with the producer count, and
  /// past ~half the L2 per ring the drainer's reads go cold and
  /// multi-producer throughput drops. Beyond capacity the producer spins
  /// in AcquireSlot — backpressure, not loss.
  static constexpr std::size_t kSlots = 2048;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static_assert((kSlots & kMask) == 0, "kSlots must be a power of two");

  /// Bytes pre-reserved per slot string by Reserve(). Covers the common
  /// update-record frame without any first-lap allocation.
  static constexpr std::size_t kSlotInitialBytes = 256;

  /// A slot string that grew past this (one giant checkpoint record) is
  /// reset on reacquisition so a single outlier does not pin kSlots
  /// multiples of its size forever.
  static constexpr std::size_t kSlotShrinkBytes = 256 * 1024;

  struct Slot {
    Lsn lsn = kNullLsn;
    std::string frame;  ///< Complete frame: u32 len | u32 crc | body.
  };

  StagingBuffer() : slots_(kSlots) {}

  StagingBuffer(const StagingBuffer&) = delete;
  StagingBuffer& operator=(const StagingBuffer&) = delete;

  /// Pre-sizes every slot string (registration-time warmup).
  void Reserve() {
    for (Slot& s : slots_) s.frame.reserve(kSlotInitialBytes);
  }

  // --- Producer side (one thread) ---

  /// Next free slot, or nullptr when the ring is full (caller spins; the
  /// drainer frees slots). The returned slot stays owned by the producer
  /// until Publish() — aborting an append (LogFull) is simply not
  /// publishing.
  Slot* AcquireSlot() {
    std::uint64_t p = produced_.load(std::memory_order_relaxed);
    // The consumer's counter lives on the drainer's cache line; reading it
    // on every append would bounce that line between cores. The cached
    // copy is refreshed only when the ring *looks* full — a stale value
    // can only under-report free slots, never hand out an occupied one.
    if (p - cached_consumed_ >= kSlots) {
      cached_consumed_ = consumed_.load(std::memory_order_acquire);
      if (p - cached_consumed_ >= kSlots) return nullptr;
    }
    Slot* s = &slots_[p & kMask];
    if (s->frame.capacity() > kSlotShrinkBytes) {
      std::string().swap(s->frame);
      s->frame.reserve(kSlotInitialBytes);
    }
    return s;
  }

  /// Publishes the slot last returned by AcquireSlot: the release store
  /// is what makes the slot's lsn and frame bytes visible to the drainer.
  void Publish() {
    produced_.store(produced_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }

  /// Producer-side append statistics. Plain single-writer stores on the
  /// producer's own cache line — LogManager's aggregate counters would be
  /// two more contended fetch_adds per append otherwise.
  void CountAppend(std::uint64_t frame_bytes) {
    records_.store(records_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    bytes_.store(bytes_.load(std::memory_order_relaxed) + frame_bytes,
                 std::memory_order_relaxed);
  }
  std::uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  // --- Consumer side (one thread: the drainer / Close) ---

  /// Oldest published, unconsumed slot; nullptr when drained. Mirror of
  /// the producer-side trick: the producer's counter is only re-read when
  /// the cached copy says the ring is empty, so a drainer consuming a run
  /// of records does not bounce the producer's cache line per record.
  const Slot* Peek() const {
    std::uint64_t c = consumed_.load(std::memory_order_relaxed);
    if (cached_produced_ == c) {
      cached_produced_ = produced_.load(std::memory_order_acquire);
      if (cached_produced_ == c) return nullptr;
    }
    return &slots_[c & kMask];
  }

  /// Returns the slot from Peek to the producer.
  void Consume() {
    consumed_.store(consumed_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }

 private:
  /// Producer- and consumer-owned counters on their own cache lines so a
  /// publishing producer never bounces the drainer's line (false sharing
  /// is the classic multi-producer log-append killer).
  alignas(64) std::atomic<std::uint64_t> produced_{0};
  /// Producer-owned; shares the producer's line with produced_ on purpose
  /// (the producer dirties that line every Publish anyway).
  std::uint64_t cached_consumed_ = 0;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
  alignas(64) std::atomic<std::uint64_t> consumed_{0};
  /// Consumer-owned (see Peek); shares the consumer's line with consumed_.
  mutable std::uint64_t cached_produced_ = 0;
  alignas(64) std::vector<Slot> slots_;
};

}  // namespace clog

#endif  // CLOG_WAL_STAGING_BUFFER_H_
