// Self-tests of the benchmark's measurement code: percentile selection, the
// Poisson schedule's mean gap, span self-time arithmetic and the choice of
// the least-disturbed slices. Exits non-zero if any expectation fails. Run
// through `python3 clientbench/run.py --selftest`, or directly from the
// build directory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "clientbench/src/measure.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::printf("FAIL %s: got %.6g want %.6g\n", what, got, want);
    ++failures;
  }
}

using clientbench::LatencyHistogram;

/// Exact nearest-rank percentile of raw samples: the reference the
/// histogram is checked against. Sorts `v` in place.
double ExactPercentile(std::vector<uint64_t>& v, double q) {
  std::sort(v.begin(), v.end());
  return static_cast<double>(
      v[LatencyHistogram::NearestRank(q, v.size()) - 1]);
}

void TestNearestRank() {
  // Nearest rank: the ceil(q * n)-th smallest value.
  Expect(LatencyHistogram::NearestRank(0.5, 100) == 50, "rank p50 of 100",
         LatencyHistogram::NearestRank(0.5, 100), 50);
  Expect(LatencyHistogram::NearestRank(0.99, 100) == 99, "rank p99 of 100",
         LatencyHistogram::NearestRank(0.99, 100), 99);
  Expect(LatencyHistogram::NearestRank(0.99, 1000) == 990, "rank p99 of 1000",
         LatencyHistogram::NearestRank(0.99, 1000), 990);
  Expect(LatencyHistogram::NearestRank(0.5, 1) == 1, "rank of one sample",
         LatencyHistogram::NearestRank(0.5, 1), 1);
  Expect(LatencyHistogram::NearestRank(0.999, 10) == 10, "rank caps at n",
         LatencyHistogram::NearestRank(0.999, 10), 10);
}

void TestSmallValuesExact() {
  // Below 128 ns every value has its own bucket: percentiles are exact.
  LatencyHistogram h;
  std::vector<uint64_t> raw;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Add(v);
    raw.push_back(v);
  }
  Expect(h.Percentile(0.5) == 50, "exact p50", h.Percentile(0.5), 50);
  Expect(h.Percentile(0.99) == 99, "exact p99", h.Percentile(0.99), 99);
  Expect(h.Percentile(1.0) == 100, "exact max", h.Percentile(1.0), 100);
  Expect(ExactPercentile(raw, 0.5) == 50, "reference p50",
         ExactPercentile(raw, 0.5), 50);
}

void TestBucketsContiguous() {
  // Every value maps into a bucket whose bounds contain it, and bucket
  // widths never exceed 1/128 of the lower bound.
  std::mt19937_64 gen(3);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t v = gen() >> (gen() % 64);
    const size_t b = LatencyHistogram::BucketOf(v);
    const uint64_t lo = LatencyHistogram::BucketLow(b);
    const uint64_t w = LatencyHistogram::BucketWidth(b);
    if (!(b < LatencyHistogram::kBuckets && lo <= v && v - lo < w &&
          (lo < 128 || w * 128 <= lo))) {
      Expect(false, "bucket bounds", static_cast<double>(v),
             static_cast<double>(lo));
      return;
    }
  }
}

void TestPercentileError() {
  // Log-normal latencies spanning five decades: every histogram percentile
  // lies within 1% of the exact nearest-rank value of the raw samples.
  std::mt19937_64 gen(11);
  std::lognormal_distribution<double> dist(std::log(50'000.0), 1.5);
  LatencyHistogram h;
  std::vector<uint64_t> raw;
  for (int i = 0; i < 300000; ++i) {
    const uint64_t v = static_cast<uint64_t>(dist(gen)) + 1;
    h.Add(v);
    raw.push_back(v);
  }
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = ExactPercentile(raw, q);
    const double got = h.Percentile(q);
    Expect(std::fabs(got - exact) <= 0.01 * exact, "percentile within 1%",
           got, exact);
  }
  Expect(h.count() == raw.size(), "sample count", h.count(), raw.size());

  // Merging two halves gives the same answer as one histogram.
  LatencyHistogram a, b;
  for (size_t i = 0; i < raw.size(); ++i) (i % 2 ? a : b).Add(raw[i]);
  a.Merge(b);
  Expect(a.Percentile(0.99) == h.Percentile(0.99), "merge", a.Percentile(0.99),
         h.Percentile(0.99));
  Expect(LatencyHistogram().Percentile(0.5) == 0, "empty histogram", 1, 0);
}

void TestPoissonGap() {
  // Mean gap 1/rate and coefficient of variation 1 (exponential gaps).
  std::mt19937_64 gen(5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  constexpr double kRate = 3333.0;
  constexpr int kN = 1'000'000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kN; ++i) {
    const double g = static_cast<double>(clientbench::PoissonGapNs(u(gen), kRate));
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kN;
  const double want = 1e9 / kRate;
  Expect(std::fabs(mean - want) <= 0.005 * want, "Poisson mean gap", mean,
         want);
  const double cv = std::sqrt(sum_sq / kN - mean * mean) / mean;
  Expect(std::fabs(cv - 1.0) <= 0.01, "Poisson gap CV", cv, 1.0);
  Expect(clientbench::PoissonGapNs(0.0, kRate) == 0, "zero draw", 1, 0);
}

void TestSelfTimes() {
  using clientbench::Span;
  using clientbench::SpanName;
  // txn [0,100]: Begin [0,10], IndexLookup [10,20], IndexScan [20,60] with
  // a nested Read [30,40], Commit [60,95].
  const Span spans[] = {
      {7, 0, 100, -1, SpanName::kTxn},
      {7, 0, 10, 0, SpanName::kBegin},
      {7, 10, 20, 0, SpanName::kIndexLookup},
      {7, 20, 60, 0, SpanName::kIndexScan},
      {7, 30, 40, 3, SpanName::kRead},
      {7, 60, 95, 0, SpanName::kCommit},
  };
  std::vector<uint64_t> self;
  clientbench::SelfTimes(spans, 6, &self);
  const uint64_t want[] = {5, 10, 10, 30, 10, 35};
  for (int i = 0; i < 6; ++i) {
    Expect(self[i] == want[i], "self time", self[i], want[i]);
  }
  // A child reaching past its parent is clipped to the parent's interval.
  const Span skewed[] = {
      {1, 100, 200, -1, SpanName::kTxn},
      {1, 90, 210, 0, SpanName::kCommit},
  };
  clientbench::SelfTimes(skewed, 2, &self);
  Expect(self[0] == 0, "clipped parent self time", self[0], 0);
  Expect(self[1] == 120, "child self time", self[1], 120);
}

void TestLeastStolen() {
  using clientbench::LeastStolen;
  // The slices with the least steal, ties to the earlier slice, in order of
  // steal.
  const std::vector<size_t> got = LeastStolen({5, 0, 9, 1, 0, 1, 7}, 4);
  const std::vector<size_t> want = {1, 4, 3, 5};
  Expect(got == want, "least-stolen slices", got.size(), want.size());
  // All equal (no steal reported): the earliest slices.
  const std::vector<size_t> flat = LeastStolen({0, 0, 0, 0}, 2);
  Expect(flat == std::vector<size_t>{0, 1}, "flat steal", flat.size(), 2);
  Expect(LeastStolen({}, 1).empty(), "no slices", 1, 0);
  Expect(LeastStolen({3}, 2) == std::vector<size_t>{0}, "keep > n", 1, 1);
}

}  // namespace

int main() {
  TestNearestRank();
  TestSmallValuesExact();
  TestBucketsContiguous();
  TestPercentileError();
  TestPoissonGap();
  TestSelfTimes();
  TestLeastStolen();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
