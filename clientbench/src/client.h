// One client session: an agent of the Database facade plus the benchmark's
// own per-session bookkeeping. Every call the transaction bodies make into
// the engine goes through Call(), which records a span around it when the
// session is traced and costs one predictable branch when it is not.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "clientbench/src/measure.h"
#include "src/engine/database.h"
#include "src/util/time_util.h"

namespace clientbench {

/// Final outcome of one transaction body run.
enum class Outcome : uint8_t {
  kCommitted,   ///< Commit() returned OK: the durable acknowledgement
  kRolledBack,  ///< rollback the workload specification mandates
  kRetry,       ///< engine failure (deadlock victim, timeout): run again
  kError,       ///< an engine call failed where the specification allows
                ///< no failure; fails the run's output check
};

class Client {
 public:
  /// Span storage kept for writing out, per session (32 MiB at most).
  static constexpr size_t kKeptSpanCap = 1u << 20;

  Client(slidb::Database& db, uint32_t index, uint64_t seed)
      : db_(db), agent_(db.CreateAgent(seed)), index_(index) {
    cur_.reserve(64);
  }

  slidb::Database& db() { return db_; }
  slidb::AgentContext& agent() { return *agent_; }

  /// Run `f` (one call into the engine) inside a span named `name`.
  template <typename F>
  decltype(auto) Call(SpanName name, F&& f) {
    if (!tracing_) return f();
    const int32_t idx = Open(name);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Close(idx);
    } else {
      auto result = f();
      Close(idx);
      return result;
    }
  }

  void set_tracing(bool on) { tracing_ = on; }

  /// Open / close the root span of one transaction (all its attempts).
  void BeginTxn() {
    ++txn_seq_;
    if (tracing_) Open(SpanName::kTxn);
  }
  void EndTxn() {
    if (!tracing_) return;
    Close(0);
    Fold();
  }

  /// Per-name self-time histograms of every traced transaction.
  const LatencyHistogram& self_time(SpanName n) const {
    return self_[static_cast<size_t>(n)];
  }
  uint64_t txn_span_ns() const { return txn_span_ns_; }
  uint64_t txn_self_ns() const { return txn_self_ns_; }
  const std::vector<Span>& kept_spans() const { return kept_; }

 private:
  int32_t Open(SpanName name) {
    const int32_t idx = static_cast<int32_t>(cur_.size());
    cur_.push_back(Span{TxnId(), slidb::NowNanos(), 0, parent_, name});
    parent_ = idx;
    return idx;
  }

  void Close(int32_t idx) {
    cur_[idx].end_ns = slidb::NowNanos();
    parent_ = cur_[idx].parent;
  }

  /// Session index in the top 16 bits, per-session sequence below.
  uint64_t TxnId() const { return (uint64_t{index_} << 48) | txn_seq_; }

  void Fold() {
    SelfTimes(cur_.data(), cur_.size(), &scratch_);
    for (size_t i = 0; i < cur_.size(); ++i) {
      self_[static_cast<size_t>(cur_[i].name)].Add(scratch_[i]);
    }
    txn_span_ns_ += cur_[0].end_ns - cur_[0].start_ns;
    txn_self_ns_ += scratch_[0];
    if (kept_.size() + cur_.size() <= kKeptSpanCap) {
      if (kept_.capacity() == 0) kept_.reserve(kKeptSpanCap);
      kept_.insert(kept_.end(), cur_.begin(), cur_.end());
    }
    cur_.clear();
    parent_ = -1;
  }

  slidb::Database& db_;
  std::unique_ptr<slidb::AgentContext> agent_;
  uint32_t index_;
  uint64_t txn_seq_ = 0;
  bool tracing_ = false;
  int32_t parent_ = -1;
  std::vector<Span> cur_;
  std::vector<uint64_t> scratch_;
  std::vector<Span> kept_;
  std::array<LatencyHistogram, kNumSpanNames> self_{};
  uint64_t txn_span_ns_ = 0;
  uint64_t txn_self_ns_ = 0;
};

}  // namespace clientbench
