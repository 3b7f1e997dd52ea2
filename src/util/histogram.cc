#include "src/util/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace slidb {

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

size_t Histogram::BucketFor(uint64_t value) {
  if (value == 0) return 0;
  const size_t b = static_cast<size_t>(std::bit_width(value));
  return std::min(b, kNumBuckets - 1);
}

void Histogram::Add(uint64_t value) {
  buckets_[BucketFor(value)]++;
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const double target = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      // Bucket i covers [2^(i-1), 2^i); return the arithmetic midpoint.
      const uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
      const uint64_t hi = i >= 63 ? max_ : (1ULL << i);
      return std::min(max_, lo + (hi - lo) / 2);
    }
  }
  return max_;
}

std::string Histogram::ToString(double scale, const char* unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f%s p50=%.1f%s p95=%.1f%s p99=%.1f%s max=%.1f%s",
                static_cast<unsigned long long>(count_), Mean() * scale, unit,
                static_cast<double>(Percentile(0.50)) * scale, unit,
                static_cast<double>(Percentile(0.95)) * scale, unit,
                static_cast<double>(Percentile(0.99)) * scale, unit,
                static_cast<double>(max_ == 0 ? 0 : max_) * scale, unit);
  return buf;
}

}  // namespace slidb
