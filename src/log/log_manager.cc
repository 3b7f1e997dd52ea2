#include "src/log/log_manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/crc32c.h"
#include "src/util/time_util.h"

namespace slidb {
namespace {

/// Sleep for `d` and not measurably longer. Timer slack is a per-thread
/// attribute (default 50 us) that lets the kernel fire a sleep up to that
/// late; it is 1 ns for this sleep only and then back to the default.
/// Only the simulated device time needs to be exact: with exact
/// coalescing waits too, a 10 us window made the flusher flush six times
/// as often under a lone streaming appender and slowed it by a fifth.
void SleepExact(std::chrono::microseconds d) {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  std::this_thread::sleep_for(d);
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace

LogManager::LogManager(LogOptions options) : options_(std::move(options)) {
  ring_ = std::make_unique<uint8_t[]>(options_.buffer_bytes);
  const size_t want_slots = options_.reservation_slots != 0
                                ? options_.reservation_slots
                                : options_.buffer_bytes / 128;
  // Upper bound 2^19: the slot count must stay strictly below the 2^20
  // seq-tag space or a round's tag becomes indistinguishable from the
  // same residue one wrap later (see kSeqMask).
  const size_t slots =
      std::bit_ceil(std::clamp<size_t>(want_slots, 2, size_t{1} << 19));
  slot_mask_ = slots - 1;
  slots_ = std::make_unique<PublishSlot[]>(slots);
  for (size_t i = 0; i < slots; ++i) {
    slots_[i].tag.store(i, std::memory_order_relaxed);  // free for round 0
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  {
    std::lock_guard<std::mutex> g(flush_mu_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void LogManager::CopyIntoRing(Lsn at, const void* src, size_t len) {
  const size_t cap = options_.buffer_bytes;
  const size_t pos = static_cast<size_t>(at % cap);
  const size_t first = std::min(len, cap - pos);
  std::memcpy(ring_.get() + pos, src, first);
  if (first < len) {
    std::memcpy(ring_.get(), static_cast<const uint8_t*>(src) + first,
                len - first);
  }
}

uint32_t LogManager::CopyIntoRingCrc(Lsn at, const void* src, size_t len,
                                     uint32_t crc) {
  const size_t cap = options_.buffer_bytes;
  const size_t pos = static_cast<size_t>(at % cap);
  const size_t first = std::min(len, cap - pos);
  crc = Crc32cCopy(crc, ring_.get() + pos, src, first);
  if (first < len) {
    crc = Crc32cCopy(crc, ring_.get(),
                     static_cast<const uint8_t*>(src) + first, len - first);
  }
  return crc;
}

void LogManager::BackpressurePause() {
  CountEvent(Counter::kLogResvRetries);
  KickFlusher();
  const uint64_t t0 = RdCycles();
  std::this_thread::yield();
  if (ThreadProfile* p = ThreadProfile::Current()) {
    p->AttributeBlocked(t0, RdCycles());
  }
}

Lsn LogManager::Append(uint64_t txn_id, LogRecordType type,
                       const void* payload, uint32_t payload_len) {
  ScopedComponent comp(Component::kLog);
  assert(sizeof(LogRecordHeader) + payload_len <= options_.buffer_bytes);
  // Hard check, not an assert: a record the recovery scanner would reject
  // as corrupt (kBadLength) must never be sealed and acked durable — the
  // torn-write rule would then discard it AND every commit after it.
  if (payload_len > kMaxLogPayloadLen) {
    std::fprintf(stderr,
                 "slidb: log record payload %u exceeds scanner bound %u\n",
                 payload_len, kMaxLogPayloadLen);
    std::abort();
  }

  const size_t total = sizeof(LogRecordHeader) + payload_len;
  // One fetch-add claims both the byte range [start, end) and the record's
  // publish-slot sequence number; LSN order and slot order can never
  // diverge. The record becomes visible only through the slot
  // release-store below; seq_cst here is the writer's half of the idle
  // handshake (PublishSlotFilled).
  const uint64_t ticket = ticket_.fetch_add(
      (uint64_t{1} << kSeqShift) + total, std::memory_order_seq_cst);
  const Lsn start = ticket & kOffsetMask;
  const uint64_t seq = ticket >> kSeqShift;
  const Lsn end = start + total;
  const size_t cap = options_.buffer_bytes;

  // Ring-space backpressure: our bytes may only be written once everything
  // they would overwrite is durable. Earlier reservations never depend on
  // later ones, so the earliest unfilled writer can always make progress
  // and the wait is deadlock-free.
  while (end - durable_lsn_.load(std::memory_order_acquire) > cap) {
    BackpressurePause();
  }
  // Slot backpressure: at most `reservation_slots` records in flight. The
  // slot is ours only once its previous-round occupant was consumed (tag
  // values at this index move seq → seq+1 → seq+slots → ... in modular seq
  // space, so an unfilled predecessor and an unconsumed one both read as
  // "not our turn"). Rather than waiting on the flusher's cadence, help
  // drain the publish queue ourselves (cooperative consume); when that
  // makes no progress (consumer busy, or an unfilled predecessor stalls
  // the queue) back off so the stalled writer can run.
  PublishSlot& slot = slots_[seq & slot_mask_];
  while (slot.tag.load(std::memory_order_acquire) != (seq & kSeqMask)) {
    if (!TryAdvanceWatermark()) BackpressurePause();
  }

  // The header is sealed only now that the record's start LSN is known:
  // the CRC covers the lsn field, binding the checksum to the offset.
  const LogRecordHeader hdr =
      MakeLogRecordHeader(txn_id, type, start, payload, payload_len);
  CopyIntoRing(start, &hdr, sizeof(hdr));
  if (payload_len > 0) {
    CopyIntoRing(start + sizeof(hdr), payload, payload_len);
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  PublishSlotFilled(slot, seq, end);
  return end;
}

void LogManager::PublishSlotFilled(PublishSlot& slot, uint64_t seq, Lsn end) {
  slot.end = end;
  // Publish: the release pairs with the consumer's acquire tag load,
  // making `end` and the ring bytes visible before the watermark can cover
  // them.
  slot.tag.store((seq + 1) & kSeqMask, std::memory_order_release);
  // Idle handshake: our seq_cst ticket fetch-add, then this seq_cst load,
  // against the flusher's idle announcement, then its seq_cst ticket load
  // (ChooseSleep). Either the flusher saw our reservation and did not go
  // idle, or we see it idle and kick it.
  if (flusher_sleep_.load(std::memory_order_seq_cst) == kIdle) KickFlusher();
}

void LogManager::KickFlusher() {
  kicked_.store(true, std::memory_order_seq_cst);
  if (flusher_sleep_.load(std::memory_order_seq_cst) != kAwake) {
    // Under the mutex: the flusher checks `kicked_` and blocks atomically
    // with respect to this notify.
    std::lock_guard<std::mutex> g(flush_mu_);
    flush_cv_.notify_one();
  }
}

void LogManager::PlanBatchSegments(LogStagingBuffer* staging) const {
  std::vector<LogBatchSegment>& segs = staging->seg_scratch_;
  segs.clear();
  // Bound one envelope's interior: a single CRC never covers more than the
  // format cap, and an envelope always fits comfortably inside one ring
  // reservation even on the tiny rings the tests configure.
  const uint32_t run_cap = static_cast<uint32_t>(std::min<size_t>(
      kMaxEnvelopePayloadLen, options_.buffer_bytes / 4));
  const size_t n = staging->offsets_.size();
  const auto rec_len = [&](size_t i) -> uint32_t {
    const uint32_t end = i + 1 < n
                             ? staging->offsets_[i + 1]
                             : static_cast<uint32_t>(staging->buf_.size());
    return end - staging->offsets_[i];
  };
  size_t i = 0;
  while (i < n) {
    const uint32_t len = rec_len(i);
    // Extend a run of consecutive small records; a run of >= 2 is worth an
    // envelope (one CRC instead of count), a singleton is not (the 32-byte
    // envelope header would outweigh the saved seal).
    size_t j = i;
    uint32_t run_bytes = 0;
    while (j < n) {
      const uint32_t lj = rec_len(j);
      if (lj > kBatchSealMaxRecordBytes || run_bytes + lj > run_cap) break;
      run_bytes += lj;
      ++j;
    }
    if (j - i >= 2) {
      segs.push_back({static_cast<uint32_t>(j - i), staging->offsets_[i],
                      run_bytes, /*envelope=*/true});
      i = j;
    } else {
      segs.push_back({1, staging->offsets_[i], len, /*envelope=*/false});
      ++i;
    }
  }
}

size_t LogManager::SealSegmentIntoRing(LogStagingBuffer* staging,
                                       const LogBatchSegment& seg, Lsn at) {
  // Staged record offsets are unaligned (records pack back to back), so
  // header fields are patched with memcpy, never through a cast.
  uint8_t* base = staging->buf_.data() + seg.stage_off;
  if (!seg.envelope) {
    const Lsn lsn = at;
    std::memcpy(base + offsetof(LogRecordHeader, lsn), &lsn, sizeof(lsn));
    // Fold the seal into the copy: checksum the header tail in place, then
    // copy the payload into the ring while extending the same CRC.
    uint32_t c = Crc32c(0, base + kLogCrcSkip,
                        sizeof(LogRecordHeader) - kLogCrcSkip);
    const size_t payload_len = seg.stage_len - sizeof(LogRecordHeader);
    c = CopyIntoRingCrc(at + sizeof(LogRecordHeader),
                        base + sizeof(LogRecordHeader), payload_len, c);
    std::memcpy(base, &c, sizeof(c));  // hdr.crc
    CopyIntoRing(at, base, sizeof(LogRecordHeader));
    return seg.stage_len;
  }

  // Envelope: patch every interior record's lsn to its real stream offset
  // (their crc fields stay zero — the envelope CRC seals the whole run),
  // then copy the run into the ring under the envelope's single checksum.
  const Lsn interior_base = at + sizeof(LogRecordHeader);
  size_t rel = 0;
  while (rel < seg.stage_len) {
    const Lsn lsn = interior_base + rel;
    std::memcpy(base + rel + offsetof(LogRecordHeader, lsn), &lsn,
                sizeof(lsn));
    uint32_t plen;
    std::memcpy(&plen, base + rel + offsetof(LogRecordHeader, payload_len),
                sizeof(plen));
    rel += sizeof(LogRecordHeader) + plen;
  }
  LogRecordHeader env{};
  env.payload_len = seg.stage_len;
  std::memcpy(&env.txn_id, base + offsetof(LogRecordHeader, txn_id),
              sizeof(env.txn_id));
  env.lsn = at;
  env.type = static_cast<uint8_t>(LogRecordType::kBatchSeal);
  env.version = kLogFormatVersion;
  uint32_t c = Crc32c(0, reinterpret_cast<const uint8_t*>(&env) + kLogCrcSkip,
                      sizeof(env) - kLogCrcSkip);
  c = CopyIntoRingCrc(interior_base, base, seg.stage_len, c);
  env.crc = c;
  CopyIntoRing(at, &env, sizeof(env));
  return sizeof(env) + seg.stage_len;
}

Lsn LogManager::PublishChunk(LogStagingBuffer* staging,
                                    const LogBatchSegment* segs, size_t n,
                                    size_t total) {
  // Identical protocol to Append, with the whole chunk riding one
  // ticket and one publish slot — the amortization this path exists for.
  const uint64_t ticket = ticket_.fetch_add(
      (uint64_t{1} << kSeqShift) + total, std::memory_order_seq_cst);
  const Lsn start = ticket & kOffsetMask;
  const uint64_t seq = ticket >> kSeqShift;
  const Lsn end = start + total;
  const size_t cap = options_.buffer_bytes;

  while (end - durable_lsn_.load(std::memory_order_acquire) > cap) {
    BackpressurePause();
  }
  PublishSlot& slot = slots_[seq & slot_mask_];
  while (slot.tag.load(std::memory_order_acquire) != (seq & kSeqMask)) {
    if (!TryAdvanceWatermark()) BackpressurePause();
  }

  Lsn cursor = start;
  uint64_t recs = 0;
  for (size_t i = 0; i < n; ++i) {
    cursor += SealSegmentIntoRing(staging, segs[i], cursor);
    recs += segs[i].count;
  }
  assert(cursor == end);
  records_.fetch_add(recs, std::memory_order_relaxed);
  PublishSlotFilled(slot, seq, end);
  return end;
}

Lsn LogManager::AppendBatch(LogStagingBuffer* staging) {
  ScopedComponent comp(Component::kLog);
  if (staging->empty()) return appended_lsn();
  PlanBatchSegments(staging);
  const std::vector<LogBatchSegment>& segs = staging->seg_scratch_;
  const size_t cap = options_.buffer_bytes;
  // A reservation can never exceed the ring (its bytes would have to
  // overwrite data that cannot become durable first — a self-deadlock), so
  // oversized batches split at segment granularity. Half the ring per
  // chunk keeps the flusher pipelined behind very large batches; in the
  // intended regime (staging watermark << ring) a batch is one chunk.
  const size_t chunk_limit = std::max<size_t>(cap / 2, 1);
  Lsn end = 0;
  size_t i = 0;
  uint64_t batch_records = 0;
  uint64_t batch_bytes = 0;
  while (i < segs.size()) {
    size_t total = segs[i].wire_bytes();
    if (total > cap) {
      std::fprintf(stderr,
                   "slidb: batched log record (%zu B) exceeds ring (%zu B)\n",
                   total, cap);
      std::abort();
    }
    size_t j = i + 1;
    while (j < segs.size() && total + segs[j].wire_bytes() <= chunk_limit) {
      total += segs[j].wire_bytes();
      ++j;
    }
    end = PublishChunk(staging, segs.data() + i, j - i, total);
    CountEvent(Counter::kLogBatchAppends);
    for (size_t k = i; k < j; ++k) batch_records += segs[k].count;
    batch_bytes += total;
    i = j;
  }
  CountEvent(Counter::kLogBatchRecords, batch_records);
  CountEvent(Counter::kLogBatchBytes, batch_bytes);
  staging->Clear();
  return end;
}

void LogManager::WaitDurable(Lsn lsn) {
  // Already durable: return before reading the clock, so read-mostly
  // commits pay nothing for the wait figure below.
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return;
  // Stack-local node: the flusher never touches it after its terminal store,
  // so returning the moment the state settles is safe.
  DeferredAck ack;
  ack.lsn = lsn;
  ack.park_ns = NowNanos();
  if (!ParkDeferred(&ack)) return;
  AwaitDeferred(ack, /*deadline_ns=*/0);
  CountEvent(Counter::kLogDurableWaits);
  CountEvent(Counter::kLogDurableWaitNs, ack.settle_ns - ack.park_ns);
}

bool LogManager::ParkDeferred(DeferredAck* ack) {
  // Inline settle when the horizon is already durable (the common case on
  // read-mostly workloads: the observed writers hardened flushes ago).
  if (durable_lsn_.load(std::memory_order_acquire) >= ack->lsn) {
    ack->settle_ns = ack->park_ns;
    ack->state.store(DeferredAck::kDurable, std::memory_order_release);
    return false;
  }
  ack->state.store(DeferredAck::kParked, std::memory_order_relaxed);
  DeferredAck* head = deferred_.load(std::memory_order_relaxed);
  do {
    ack->next = head;
  } while (!deferred_.compare_exchange_weak(head, ack,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
  // Kick the flusher: it settles the queue on every pass, so a park racing
  // a concurrent settle pass is picked up by the pass this kick triggers
  // (at once if a flush is in flight: the flusher re-flushes when it
  // finds an ack parked). A park whose LSN became durable between our
  // check and the push just settles in that pass.
  KickFlusher();
  return true;
}

bool LogManager::AwaitDeferred(const DeferredAck& ack, uint64_t deadline_ns) {
  ScopedComponent comp(Component::kLog);
  const uint64_t t0 = RdCycles();
  bool settled = true;
  if (deadline_ns == 0) {
    ack.AwaitSettled();
  } else {
    // Atomic waits have no timeout, so re-check every flush interval: a
    // settlement is observed at most one interval late.
    const uint64_t poll_ns =
        std::max<uint64_t>(options_.flush_interval_us * 1000, 1'000);
    for (;;) {
      settled =
          ack.state.load(std::memory_order_acquire) != DeferredAck::kParked;
      if (settled) break;
      const uint64_t now = NowNanos();
      if (now >= deadline_ns) break;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(poll_ns, deadline_ns - now)));
    }
  }
  if (ThreadProfile* p = ThreadProfile::Current()) {
    p->AttributeBlocked(t0, RdCycles());
  }
  return settled;
}

bool LogManager::AdvanceWatermarkLocked() {
  Lsn w = watermark_.load(std::memory_order_relaxed);
  bool advanced = false;
  for (;;) {
    PublishSlot& slot = slots_[next_seq_ & slot_mask_];
    if (slot.tag.load(std::memory_order_acquire) !=
        ((next_seq_ + 1) & kSeqMask)) {
      break;
    }
    w = slot.end;
    // Re-arming the tag readmits the writer of the next round through this
    // slot; the release pairs with that writer's acquire spin.
    slot.tag.store((next_seq_ + slot_mask_ + 1) & kSeqMask,
                   std::memory_order_release);
    ++next_seq_;
    advanced = true;
  }
  if (advanced) watermark_.store(w, std::memory_order_release);
  return advanced;
}

bool LogManager::TryAdvanceWatermark() {
  if (!publish_latch_.TryAcquire()) return false;
  const bool advanced = AdvanceWatermarkLocked();
  publish_latch_.Release();
  return advanced;
}

void LogManager::EmitToSink(Lsn from, Lsn to) {
  if (!options_.flush_sink) return;
  const size_t cap = options_.buffer_bytes;
  while (from < to) {
    const size_t pos = static_cast<size_t>(from % cap);
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(to - from, cap - pos));
    options_.flush_sink(ring_.get() + pos, len, from);
    from += len;
  }
}

void LogManager::SettleDeferredAcks(bool shutdown) {
  DeferredAck* incoming =
      deferred_.exchange(nullptr, std::memory_order_acquire);
  while (incoming != nullptr) {
    DeferredAck* next = incoming->next;
    incoming->next = deferred_pending_;
    deferred_pending_ = incoming;
    incoming = next;
  }
  if (deferred_pending_ == nullptr) return;
  const Lsn durable = durable_lsn_.load(std::memory_order_relaxed);
  const uint64_t now = NowNanos();
  bool settled = false;
  DeferredAck** pp = &deferred_pending_;
  while (*pp != nullptr) {
    DeferredAck* a = *pp;
    if (a->lsn <= durable || shutdown) {
      *pp = a->next;
      a->next = nullptr;
      a->settle_ns = now;
      // kDurable only when the horizon actually hardened: at shutdown an
      // unsatisfied ack's dependency died with the log, and reporting it
      // committed would externalize state recovery will not reproduce.
      // After this store the node belongs to its owner thread again.
      a->state.store(a->lsn <= durable ? DeferredAck::kDurable
                                       : DeferredAck::kLost,
                     std::memory_order_release);
      settled = true;
    } else {
      pp = &a->next;
    }
  }
  if (settled) DeferredAck::WakeSettled();
}

void LogManager::FlushOnce() {
  publish_latch_.Acquire();
  AdvanceWatermarkLocked();
  publish_latch_.Release();
  const Lsn target = watermark_.load(std::memory_order_acquire);
  if (target != durable_lsn_.load(std::memory_order_relaxed)) {
    // "Write" the batch: the data is already in memory (our in-memory log
    // device); hand it to the sink if one is installed and charge the
    // configured per-I/O latency. The device write is asynchronous (DMA)
    // on real hardware, so the latency is charged as flusher sleep — the
    // agent threads keep the CPU while the I/O is in flight. The sleep
    // lasts the configured latency, never less and without timer-slack
    // overshoot. Durability advances only afterwards.
    EmitToSink(durable_lsn_.load(std::memory_order_relaxed), target);
    if (options_.simulated_io_delay_us > 0) {
      SleepExact(std::chrono::microseconds(options_.simulated_io_delay_us));
    }
    durable_lsn_.store(target, std::memory_order_release);
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  SettleDeferredAcks(/*shutdown=*/false);
}

LogManager::FlusherSleep LogManager::ChooseSleep() {
  publish_latch_.Acquire();
  AdvanceWatermarkLocked();
  publish_latch_.Release();
  const Lsn durable = durable_lsn_.load(std::memory_order_relaxed);
  const bool published = watermark_.load(std::memory_order_relaxed) != durable;
  // A park this look misses kicks, and the kick ends either sleep.
  const bool acks_parked =
      deferred_pending_ != nullptr ||
      deferred_.load(std::memory_order_seq_cst) != nullptr;
  FlusherSleep sleep = kCoalescing;
  if (published && acks_parked) {
    sleep = kAwake;
  } else if (!published) {
    // Announce the idle sleep, then look at the reservations: a writer
    // whose reservation this look misses sees the announcement and kicks
    // once it publishes. Bytes reserved but still being filled leave the
    // flusher coalescing: their writer's publish does not kick.
    flusher_sleep_.store(kIdle, std::memory_order_seq_cst);
    if ((ticket_.load(std::memory_order_seq_cst) & kOffsetMask) == durable) {
      return kIdle;
    }
  }
  flusher_sleep_.store(sleep, std::memory_order_seq_cst);
  return sleep;
}

void LogManager::FlusherLoop() {
#ifdef __linux__
  // Named so its CPU time and wake-ups can be read per thread from /proc.
  prctl(PR_SET_NAME, "slidb-flusher", 0UL, 0UL, 0UL);
#endif
  const auto woken = [this] {
    return stop_ || kicked_.load(std::memory_order_seq_cst);
  };
  std::unique_lock<std::mutex> lk(flush_mu_);
  while (!stop_) {
    lk.unlock();
    // Clear before the pass: a kick from here on makes the next sleep
    // return at once; one before was for work this pass will see.
    kicked_.exchange(false, std::memory_order_seq_cst);
    FlushOnce();
    const FlusherSleep sleep = ChooseSleep();
    lk.lock();
    if (sleep == kCoalescing) {
      flush_cv_.wait_for(
          lk, std::chrono::microseconds(options_.flush_interval_us), woken);
    } else if (sleep == kIdle) {
      flush_cv_.wait(lk, woken);
    }
    flusher_sleep_.store(kAwake, std::memory_order_relaxed);
  }
  lk.unlock();
  // Drain on shutdown: harden whatever is completely published, then
  // settle every parked ack so nobody hangs and no settlement-queue pointer
  // outlives the flusher.
  FlushOnce();
  SettleDeferredAcks(/*shutdown=*/true);
}

Lsn LogManager::reserved_lsn() const {
  const Lsn reserved =
      ticket_.load(std::memory_order_acquire) & kOffsetMask;
  return std::max(reserved, watermark_.load(std::memory_order_acquire));
}

LogStats LogManager::Stats() const {
  LogStats s;
  s.appended_bytes = watermark_.load(std::memory_order_relaxed);
  s.reserved_bytes = reserved_lsn();
  s.records = records_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace slidb
