// Measurement primitives of the client benchmark: a log-linear latency
// histogram with bounded relative error, the choice of the slices the host
// disturbed least, the open-loop Poisson schedule, and per-transaction span
// records with self-time arithmetic. Header-only so the self-tests exercise
// exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace clientbench {

/// Log-linear (HDR-style) histogram of nanosecond values. Values below
/// 2^kSubBits are recorded exactly; above that, every power of two is split
/// into 2^kSubBits equal buckets, so a bucket spans at most 1/128 of its
/// lower bound and the reported midpoint is within 0.4% of any value in it.
/// The power-of-two histogram in the program reports only bucket midpoints
/// a factor of two apart, which is why the benchmark keeps its own.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  LatencyHistogram() { counts_.fill(0); }

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }

  /// Smallest value that maps to bucket `b`, and the bucket's width.
  static uint64_t BucketLow(size_t b) {
    if (b < kSub) return b;
    const int shift = static_cast<int>(b / kSub) - 1;
    return (kSub + b % kSub) << shift;
  }
  static uint64_t BucketWidth(size_t b) {
    return b < kSub ? 1 : uint64_t{1} << (b / kSub - 1);
  }

  void Add(uint64_t v) {
    ++counts_[BucketOf(v)];
    ++n_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return n_; }

  /// Nearest-rank percentile (q in (0, 1]): the smallest recorded value
  /// with at least ceil(q * n) values at or below it, reported as its
  /// bucket's midpoint clamped to the observed range. 0 when empty.
  double Percentile(double q) const {
    if (n_ == 0) return 0;
    const uint64_t rank = NearestRank(q, n_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        const double mid = static_cast<double>(BucketLow(b)) +
                           static_cast<double>(BucketWidth(b) - 1) / 2.0;
        return std::clamp(mid, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
    }
    return static_cast<double>(max_);
  }

  /// 1-based nearest rank of percentile q among n samples.
  static uint64_t NearestRank(double q, uint64_t n) {
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<uint64_t>(static_cast<uint64_t>(r), 1, n);
  }

 private:
  std::array<uint64_t, kBuckets> counts_;
  uint64_t n_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Indices of the `keep` slices of a window that the host disturbed least:
/// the slices with the least host steal time, earlier slices first among
/// equals. The choice reads only `steal`, never what the slices measured,
/// so a stall of the program itself is as likely to fall among the chosen
/// slices as among the others.
inline std::vector<size_t> LeastStolen(const std::vector<uint64_t>& steal,
                                       size_t keep) {
  std::vector<size_t> idx(steal.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return steal[a] < steal[b];
  });
  idx.resize(std::min(keep, idx.size()));
  return idx;
}

/// Poisson inter-arrival gap in nanoseconds at `rate` arrivals per second,
/// from a uniform draw u in [0, 1).
inline uint64_t PoissonGapNs(double u, double rate) {
  return static_cast<uint64_t>(-std::log1p(-u) / rate * 1e9);
}

/// Names of the spans the benchmark records: the transaction itself and
/// every call it makes into the Database facade.
enum class SpanName : uint8_t {
  kTxn = 0,
  kBegin,
  kCommit,
  kAbort,
  kRead,
  kUpdate,
  kInsert,
  kDelete,
  kLockRowX,
  kIndexLookup,
  kIndexScan,
  kIndexInsert,
  kIndexRemove,
  kNumNames,
};

inline constexpr size_t kNumSpanNames =
    static_cast<size_t>(SpanName::kNumNames);

/// One timed call. `parent` indexes the enclosing span of the same
/// transaction (-1 for the transaction span itself); spans of one
/// transaction are stored contiguously and share `txn`.
struct Span {
  uint64_t txn = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  SpanName name = SpanName::kTxn;
};

/// Self time of each span of one transaction: its duration minus the
/// durations of its direct children. Calls made by one client thread are
/// sequential, so direct children never overlap one another; a child is
/// clipped to its parent's interval so a clock step cannot make self time
/// negative.
inline void SelfTimes(const Span* spans, size_t n, std::vector<uint64_t>* out) {
  out->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t p = spans[i].parent;
    if (p < 0) continue;
    const uint64_t lo = std::max(spans[i].start_ns, spans[p].start_ns);
    const uint64_t hi = std::min(spans[i].end_ns, spans[p].end_ns);
    const uint64_t covered = hi > lo ? hi - lo : 0;
    (*out)[p] -= std::min((*out)[p], covered);
  }
}

}  // namespace clientbench
