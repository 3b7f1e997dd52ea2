// Write-ahead log with a decentralized commit pipeline.
//
// Append path: writers claim log space with a single atomic fetch-add on a
// packed (record-seq, byte-offset) ticket — no latch — fill their bytes in
// the ring, then publish the record through a per-slot "filled" watermark.
// The flusher advances the contiguous-filled watermark over completed
// records in LSN order, hardens [durable, watermark) (paying an optional
// simulated device latency), and advances the durable LSN. The flusher is
// event-driven: a parked commit starts the next flush as soon as the device
// is free, and with no log work it blocks until a publish, a park,
// backpressure or shutdown kicks it (KickFlusher).
//
// Durability waits: every wait — WaitDurable, a deadline-bounded commit, a
// speculative commit — parks a DeferredAck (commit_dependency.h) on one
// latch-free settlement queue. Each flusher pass settles exactly the acks
// whose LSN it just made durable, then releases their waiters with a single
// wake (consolidated group commit).
//
// On-wire record format (self-describing, CRC32C-sealed): log_record.h.
// The flusher hands hardened byte ranges to `flush_sink` — attach a
// LogDevice (log_device.h) there for a durable stream that RecoveryManager
// (recovery.h) can replay after a crash.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "src/log/commit_dependency.h"
#include "src/log/log_record.h"
#include "src/log/log_staging.h"
#include "src/util/cacheline.h"
#include "src/util/latch.h"
#include "src/util/status.h"

namespace slidb {

struct LogOptions {
  size_t buffer_bytes = 8u << 20;
  /// Coalescing window for published bytes that no commit waits on: after
  /// a flush, such bytes wait this long (plus up to the thread's timer
  /// slack) for company before the next flush. A parked commit (or a
  /// writer stalled on ring space) cuts the window short, so it delays a
  /// durable wait only while an earlier writer is still filling the bytes
  /// before the commit; an idle flusher flushes a fresh publish at once.
  uint64_t flush_interval_us = 50;
  /// Per-flush simulated device latency (the paper charges 6 ms per I/O for
  /// data pages; log devices are faster — default 0, configurable).
  uint64_t simulated_io_delay_us = 0;

  /// Bound on reserved-but-unconsumed records in flight (rounded up to a
  /// power of two, clamped to [2, 2^19] — strictly below the 2^20 seq-tag
  /// space so slot tags stay unambiguous). Sizes the publish-slot array; a
  /// writer whose slot is still occupied helps consume the publish queue
  /// and otherwise waits (slot backpressure). 0 = auto: scale with the
  /// ring (buffer_bytes / 128) so the in-flight runway covers a scheduler
  /// quantum even when one writer is preempted mid-fill.
  size_t reservation_slots = 0;

  /// fsync cadence for the SegmentedLogDevice attached via DatabaseOptions:
  /// 1 = every flush (default, the strict host-crash durability contract),
  /// N = every Nth flush (coalesced fsync — bytes between syncs survive a
  /// process crash via the page cache but not a host crash; the knob
  /// exists to measure that cost on a real disk), 0 = never fsync
  /// (page-cache durability only). For N >= 1 the device still syncs any
  /// unsynced tail on clean shutdown.
  uint32_t fsync_every_n_flushes = 1;

  /// Device-write hook: the flusher calls it for each contiguous byte range
  /// as the range becomes durable (ring wrap may split one flush into two
  /// calls; `start_lsn` is the log offset of `data[0]`). Tests use it to
  /// capture and verify the exact durable byte stream; it also gates
  /// durability (the durable LSN only advances after the sink returns).
  /// Called from the flusher thread with no internal locks held.
  std::function<void(const uint8_t* data, size_t len, Lsn start_lsn)>
      flush_sink;
};

/// Statistics snapshot.
struct LogStats {
  uint64_t appended_bytes = 0;  ///< published (contiguously filled) bytes
  uint64_t reserved_bytes = 0;  ///< claimed bytes, filled or not
  uint64_t records = 0;
  uint64_t flushes = 0;
};

class LogManager {
 public:
  explicit LogManager(LogOptions options = {});
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Append one record; returns its end LSN. May block (ring-space or
  /// publish-slot backpressure) until the flusher frees space.
  Lsn Append(uint64_t txn_id, LogRecordType type, const void* payload,
             uint32_t payload_len);

  /// Publish every record staged in `staging` and drain it; returns the
  /// batch's end LSN (the end of its last record). The whole batch costs
  /// ONE ticket fetch-add and one publish-slot handoff (it may split into
  /// a few reservations only when it exceeds half the ring), with each
  /// record's seal — lsn patch + CRC — folded into the ring copy loop.
  /// Runs of >= 2 consecutive records of at most kBatchSealMaxRecordBytes
  /// wire size each are wrapped in kBatchSeal envelopes: one CRC seals the
  /// whole run instead of one per record. Record order within the
  /// batch is preserved; an empty staging buffer publishes nothing and
  /// returns appended_lsn().
  Lsn AppendBatch(LogStagingBuffer* staging);

  /// Block until everything up to `lsn` is durable (group commit): park a
  /// stack-local ack and wait for the flusher to settle it. Returns at
  /// shutdown even if `lsn` never hardened. A wait that parked counts
  /// `log.durable_waits` and its park-to-settle time in
  /// `log.durable_wait_ns`; an already-durable `lsn` returns without
  /// reading the clock.
  void WaitDurable(Lsn lsn);

  /// Park `ack` — its `lsn` and `park_ns` already filled by the caller — on
  /// the settlement queue and return immediately. The flusher settles it
  /// (state kParked -> kDurable) in the pass that makes its LSN durable, or
  /// as kLost at shutdown if the horizon never hardens. Fast path: when the
  /// LSN is already durable the ack settles inline as kDurable and this
  /// returns false — nothing was parked. The node must stay alive until it
  /// reaches a terminal state (a waiting owner, or a DeferredAckRing).
  bool ParkDeferred(DeferredAck* ack);

  /// Wait for a parked ack to settle, charging the blocked time to the log.
  /// `deadline_ns == 0` waits untimed; otherwise the wait re-checks every
  /// `flush_interval_us` and returns false once the absolute deadline (NowNanos
  /// clock) passes, leaving the ack parked — only a node whose lifetime the
  /// caller does not end (a DeferredAckRing slot) may be abandoned so.
  bool AwaitDeferred(const DeferredAck& ack, uint64_t deadline_ns);

  Lsn durable_lsn() const { return durable_lsn_.load(std::memory_order_acquire); }
  /// End of the contiguously *published* prefix (every record below it is
  /// completely filled; the flusher may harden up to here).
  Lsn appended_lsn() const {
    return watermark_.load(std::memory_order_acquire);
  }
  /// End of the *reserved* prefix (claimed by writers, possibly still being
  /// filled). reserved_lsn() >= appended_lsn() >= durable_lsn().
  Lsn reserved_lsn() const;

  LogStats Stats() const;

 private:
  // Reservation ticket layout: low kSeqShift bits = byte offset (16 TB of
  // log — the documented capacity limit), high 20 bits = record sequence
  // number. One fetch-add claims both, so slot order always equals LSN
  // order. The sequence number wraps modulo 2^20; all tag comparisons are
  // therefore performed in that modular space (kSeqMask), which is
  // unambiguous because at most `reservation_slots` (< 2^20 by the ctor
  // clamp, in practice a live thread each) appends are ever in flight
  // between two uses of the same residue.
  static constexpr int kSeqShift = 44;
  static constexpr uint64_t kOffsetMask = (uint64_t{1} << kSeqShift) - 1;
  static constexpr uint64_t kSeqMask = (uint64_t{1} << (64 - kSeqShift)) - 1;

  /// One publish slot (bounded-MPMC style). `tag` sequences ownership in
  /// modular seq space: a writer with record seq `s` may fill the slot only
  /// when tag == s (stores tag = s + 1 after writing `end`); the flusher
  /// consumes when tag == s + 1 and re-arms with tag = s + slots,
  /// readmitting the writer of the next round. The tag's release/acquire
  /// pairs order the plain `end` field and the ring bytes.
  ///
  /// Cache-line aligned: adjacent record sequences map to adjacent slots,
  /// so unpadded slots (4 per line) put concurrent publishers on the same
  /// line — false sharing on real SMP. The slot array stays bounded via
  /// `reservation_slots` (auto-scale buffer/128, hard clamp 2^19 → at most
  /// 32 MB of slots for the largest admissible ring).
  struct alignas(kCacheLineSize) PublishSlot {
    std::atomic<uint64_t> tag{0};
    uint64_t end = 0;
  };

  /// Split the staged records into plain/envelope segments (no copying;
  /// fills the staging buffer's reusable scratch).
  void PlanBatchSegments(LogStagingBuffer* staging) const;
  /// Seal `seg` at ring offset `at`: patch interior lsns, fold the CRC into
  /// the ring copy, and write the sealed header(s). Returns wire bytes.
  size_t SealSegmentIntoRing(LogStagingBuffer* staging,
                             const LogBatchSegment& seg, Lsn at);
  /// Publish one reservation's worth of segments.
  Lsn PublishChunk(LogStagingBuffer* staging, const LogBatchSegment* segs,
                   size_t n, size_t total);
  void CopyIntoRing(Lsn at, const void* src, size_t len);
  /// CopyIntoRing fused with a CRC32C extension over the copied bytes.
  uint32_t CopyIntoRingCrc(Lsn at, const void* src, size_t len, uint32_t crc);
  /// Flusher states between flushes (see ChooseSleep). Publishers kick
  /// only kIdle; parks and backpressure kick either sleep.
  enum FlusherSleep : uint32_t { kAwake = 0, kCoalescing, kIdle };

  /// One backpressure pause: kick the flusher, yield, charge blocked time.
  void BackpressurePause();
  /// Hand a filled record to the flusher: release its publish slot, and
  /// kick the flusher if it sleeps idle (nothing else would wake it).
  void PublishSlotFilled(PublishSlot& slot, uint64_t seq, Lsn end);
  /// Wake the flusher out of either sleep. Never loses a wake-up: the flag
  /// and the sleep state are a Dekker pair of seq_cst operations (the
  /// flusher announces its sleep, then reads `kicked_`; a kicker sets
  /// `kicked_`, then reads the sleep state), and the notify is sent under
  /// `flush_mu_` only when the flusher sleeps.
  void KickFlusher();

  void FlusherLoop();
  void FlushOnce();
  /// Flusher sleep to take after a pass: none when an ack is parked and
  /// published bytes wait (flush again at once), idle when nothing is
  /// reserved beyond the durable LSN, the coalescing window otherwise.
  /// Announces the sleep in `flusher_sleep_`, an idle one before its last
  /// look at the reservations.
  FlusherSleep ChooseSleep();
  /// Consume contiguously published slots and advance `watermark_`.
  /// Returns true iff it advanced. Caller must hold `publish_latch_`.
  bool AdvanceWatermarkLocked();
  /// Try to take the consumer role and advance the watermark; returns true
  /// only when the watermark actually moved (false when another thread is
  /// already consuming or nothing is publishable — callers should back
  /// off then). Writers call this from slot backpressure (cooperative
  /// publish) so progress never waits on the flusher's wake-up cadence.
  bool TryAdvanceWatermark();
  void EmitToSink(Lsn from, Lsn to);
  /// Settle parked deferred acks whose horizon is now durable (flusher
  /// thread only). With `shutdown` set, still-unsatisfied acks settle as
  /// kLost — their dependencies aborted with the log, so they must never
  /// be reported as committed.
  void SettleDeferredAcks(bool shutdown);

  LogOptions options_;
  size_t slot_mask_ = 0;
  std::unique_ptr<uint8_t[]> ring_;
  /// Publish slots, indexed by record seq & slot_mask_ (see PublishSlot).
  std::unique_ptr<PublishSlot[]> slots_;

  /// Written by every append; kept off the lines the flusher writes each
  /// pass (watermark, durable LSN), which would otherwise take it away from
  /// the writers on every flush.
  alignas(kCacheLineSize) std::atomic<uint64_t> ticket_{0};
  std::atomic<uint64_t> records_{0};
  alignas(kCacheLineSize) std::atomic<Lsn> watermark_{0};
  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> flushes_{0};

  /// Settlement queue: acks are pushed latch-free (Treiber) onto
  /// `deferred_`; the flusher folds them into its private pending list.
  std::atomic<DeferredAck*> deferred_{nullptr};
  DeferredAck* deferred_pending_ = nullptr;

  /// Serializes the consumer role (watermark advance). Held briefly by the
  /// flusher each pass and by writers helping from slot backpressure.
  SpinLatch publish_latch_;
  uint64_t next_seq_ = 0;  ///< protected by publish_latch_

  /// A FlusherSleep, read by every publish: on its own line, away from
  /// the lines the consumer and kickers write.
  alignas(kCacheLineSize) std::atomic<uint32_t> flusher_sleep_{kAwake};
  /// A wake-up the flusher has not seen.
  alignas(kCacheLineSize) std::atomic<bool> kicked_{false};

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;  // waking the flusher
  bool stop_ = false;  ///< protected by flush_mu_
  std::thread flusher_;
};

}  // namespace slidb
