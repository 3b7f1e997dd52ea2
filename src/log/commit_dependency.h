// Commit acknowledgements: the one way a commit waits for durability.
//
// Under ELR a transaction that observes an early-released writer picks up a
// durability dependency (LockClient::NoteDep): its effects must not become
// visible to the client before that writer's commit record is parseable
// from the durable stream. Every wait for that horizon goes through a
// DeferredAck node on the LogManager's settlement queue; the group-commit
// flusher settles the node in the same pass in which it advances the
// durable LSN — the exact point where it learns which LSNs hardened. The
// waits differ only in who owns the node and how long the owner stays:
//   - LogManager::WaitDurable parks a stack-local node and waits untimed;
//   - a deadline-bounded commit parks a DeferredAckRing slot and waits
//     until its deadline, then leaves the slot parked (the ring owns it,
//     so abandoning the wait is safe);
//   - a speculative commit (TxnOptions::speculative_reads) parks a ring
//     slot and returns at once. Externalization (the client
//     acknowledgement) moves from Commit()'s return to the ack's
//     settlement, so the ELR soundness invariant is preserved with the
//     stall deleted, not relaxed.
//
// Node ownership protocol:
//   1. the owner fills {lsn, park_ns} and hands the node to
//      LogManager::ParkDeferred, which stores state = kParked and pushes it
//      latch-free (the release CAS publishes the plain fields);
//   2. the flusher owns the node from its acquire exchange until the
//      release store of a terminal state — kDurable (the horizon hardened)
//      or kLost (shutdown with the horizon still unflushed: the dependency
//      aborted, the ack must not be reported as committed). It stamps
//      settle_ns first and never touches the node after the store; once
//      the pass is done it wakes the waiters through a settlement epoch
//      shared by all acks (DeferredAck::WakeSettled);
//   3. the owner takes the node back once the terminal state is visible.
//      A ring reclaims the slot, charging the settle-latency /
//      dependency-abort counters on the agent thread so the workload driver
//      sees them.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "src/log/log_record.h"
#include "src/stats/counters.h"

namespace slidb {

/// One parked commit acknowledgement waiting for its durability horizon.
struct DeferredAck {
  enum State : uint32_t {
    kFree = 0,  ///< slot idle, owned by the agent's ring
    kParked,    ///< on the settlement queue, owned by the flusher
    kDurable,   ///< horizon hardened: the commit is externalized
    kLost,      ///< horizon never hardened (dependency abort): the commit
                ///< must not be reported — a crash could un-commit it
  };

  Lsn lsn = 0;             ///< durability horizon to settle at
  uint64_t park_ns = 0;    ///< NowNanos at park (agent thread)
  uint64_t settle_ns = 0;  ///< NowNanos at settle (flusher thread)
  std::atomic<uint32_t> state{kFree};
  DeferredAck* next = nullptr;  ///< settlement-queue linkage (flusher-owned)

  /// Block until the flusher settles this ack; returns the terminal state.
  uint32_t AwaitSettled() const {
    for (;;) {
      // Epoch before state: a settle pass that this state load misses
      // bumps the epoch after its terminal stores, so the wait returns.
      const uint32_t epoch = settle_epoch_.load(std::memory_order_acquire);
      const uint32_t s = state.load(std::memory_order_acquire);
      if (s != kParked) return s;
      settle_epoch_.wait(epoch, std::memory_order_acquire);
    }
  }

  /// Flusher side: after a pass's terminal stores, wake every waiter with
  /// one call. Waiters whose ack is still parked go back to sleep.
  static void WakeSettled() {
    settle_epoch_.fetch_add(1, std::memory_order_release);
    settle_epoch_.notify_all();
  }

 private:
  /// Waiters sleep on this one word, not on their own ack. A flush usually
  /// settles a whole group of commits, and one wake releases the group
  /// together; a wake per ack reaches the group one system call at a time,
  /// staggers its next commits across flushes, and cost tpcb about 12% of
  /// its throughput (3 clients, 100 us simulated flush, 4-CPU VM).
  static inline std::atomic<uint32_t> settle_epoch_{0};
};

/// Fixed-capacity FIFO of DeferredAck slots, owned by one agent thread.
/// Parking is allocation-free: Acquire hands out the next slot, reclaiming
/// the settled prefix lazily; a full ring blocks on the *oldest* parked ack
/// (natural backpressure — the agent can be at most kSlots commits ahead of
/// the flusher). Slots are stable memory for the ring's whole lifetime, so
/// the flusher's queue pointers stay valid while acks are outstanding:
/// drain (or destroy the LogManager, whose shutdown settles every parked
/// ack) before destroying the ring.
class DeferredAckRing {
 public:
  static constexpr size_t kSlots = 128;

  DeferredAckRing() = default;
  DeferredAckRing(const DeferredAckRing&) = delete;
  DeferredAckRing& operator=(const DeferredAckRing&) = delete;
  ~DeferredAckRing() { Drain(); }

  /// Next free slot for the caller to fill and park. May block (atomic
  /// wait) on the oldest outstanding ack when the ring is full.
  DeferredAck* Acquire() {
    ReclaimSettledPrefix();
    if (tail_ - head_ == kSlots) {
      slots_[head_ % kSlots].AwaitSettled();
      ReclaimSettledPrefix();
    }
    return &slots_[tail_++ % kSlots];
  }

  /// Wait for every outstanding ack to settle and reclaim all slots. After
  /// this the flusher holds no pointers into the ring.
  void Drain() {
    while (head_ != tail_) {
      DeferredAck& a = slots_[head_ % kSlots];
      ReclaimOne(a, a.AwaitSettled());
      ++head_;
    }
  }

  /// Hand back the slot of the latest Acquire, which must be settled (or
  /// never parked) and whose settlement the caller already observed — a
  /// synchronous commit whose ack settled before its deadline. Nothing is
  /// counted: the commit was acknowledged by Commit()'s return.
  void ReleaseLast() {
    assert(tail_ != head_);
    DeferredAck& a = slots_[--tail_ % kSlots];
    assert(a.state.load(std::memory_order_relaxed) != DeferredAck::kParked);
    a.state.store(DeferredAck::kFree, std::memory_order_relaxed);
  }

  size_t outstanding() const { return tail_ - head_; }

 private:
  /// Acks may settle out of FIFO order (horizons are not monotone across
  /// consecutive transactions), so reclamation stops at the first slot
  /// still parked; later settled slots are picked up on a later pass.
  void ReclaimSettledPrefix() {
    while (head_ != tail_) {
      DeferredAck& a = slots_[head_ % kSlots];
      const uint32_t s = a.state.load(std::memory_order_acquire);
      if (s == DeferredAck::kParked) break;
      ReclaimOne(a, s);
      ++head_;
    }
  }

  void ReclaimOne(DeferredAck& a, uint32_t state) {
    if (state == DeferredAck::kDurable) {
      CountEvent(Counter::kTxnDepSettleNs, a.settle_ns - a.park_ns);
    } else if (state == DeferredAck::kLost) {
      CountEvent(Counter::kTxnDepAbortedAcks);
    }
    a.state.store(DeferredAck::kFree, std::memory_order_relaxed);
  }

  DeferredAck slots_[kSlots];
  uint64_t head_ = 0;  ///< oldest outstanding slot (monotone counter)
  uint64_t tail_ = 0;  ///< next slot to hand out (monotone counter)
};

}  // namespace slidb
