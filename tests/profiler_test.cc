// Tests for the work/contention profiler that reproduces the paper's
// time-breakdown methodology (Figs 1, 5, 6, 10).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/latch.h"
#include "src/util/time_util.h"

namespace slidb {
namespace {

TEST(ProfilerTest, NoProfileByDefault) {
  EXPECT_EQ(ThreadProfile::Current(), nullptr);
}

TEST(ProfilerTest, ScopedInstallAndRestore) {
  ThreadProfile profile;
  {
    ScopedThreadProfile installed(&profile);
    EXPECT_EQ(ThreadProfile::Current(), &profile);
  }
  EXPECT_EQ(ThreadProfile::Current(), nullptr);
}

TEST(ProfilerTest, WorkAttributedToActiveComponent) {
  ThreadProfile profile;
  {
    ScopedThreadProfile installed(&profile);
    {
      ScopedComponent comp(Component::kLockManager);
      SpinForNanos(2'000'000);
    }
  }
  const ProfileSnapshot snap = profile.Snapshot();
  const auto lm = static_cast<size_t>(Component::kLockManager);
  EXPECT_GT(snap.work[lm], 0u);
  // The lock manager should dominate: we did ~2ms there and ~nothing else.
  EXPECT_GT(snap.WorkFraction(Component::kLockManager), 0.5);
}

TEST(ProfilerTest, NestedScopesShadow) {
  // The spins measure wall time, so an OS preemption inside the inner
  // scope inflates kLog past the 2:1 margin. Retry the whole body per
  // the ROADMAP test-hygiene note: preemption is transient, a genuine
  // shadowing bug fails every attempt.
  const auto lm = static_cast<size_t>(Component::kLockManager);
  const auto log = static_cast<size_t>(Component::kLog);
  for (int attempt = 0; attempt < 5; ++attempt) {
    ThreadProfile profile;
    {
      ScopedThreadProfile installed(&profile);
      ScopedComponent outer(Component::kLockManager);
      SpinForNanos(1'000'000);
      {
        ScopedComponent inner(Component::kLog);
        SpinForNanos(1'000'000);
      }
      SpinForNanos(1'000'000);
    }
    const ProfileSnapshot snap = profile.Snapshot();
    if (snap.work[lm] > snap.work[log] && snap.work[log] > 0u) return;
  }
  FAIL() << "inner scope never shadowed the outer component in 5 attempts";
}

TEST(ProfilerTest, LatchContentionAttributedAsContention) {
  SpinLatch latch;
  latch.Acquire();  // hold it so the probe thread must spin

  ThreadProfile probe_profile;
  std::atomic<bool> probe_started{false};
  std::thread probe([&] {
    ScopedThreadProfile installed(&probe_profile);
    ScopedComponent comp(Component::kLockManager);
    probe_started.store(true);
    latch.Acquire();
    latch.Release();
  });
  // Release only after the probe is provably spinning on the latch.
  while (!probe_started.load()) SpinForNanos(1000);
  SpinForNanos(5'000'000);
  latch.Release();
  probe.join();

  const ProfileSnapshot snap = probe_profile.Snapshot();
  const auto lm = static_cast<size_t>(Component::kLockManager);
  EXPECT_GT(snap.contention[lm], 0u);
  // The probe spent nearly all its time spinning, so contention must
  // dominate its lock-manager cycles.
  EXPECT_GT(snap.contention[lm], snap.work[lm]);
}

TEST(ProfilerTest, BlockedTimeExcludedFromCpu) {
  ThreadProfile profile;
  {
    ScopedThreadProfile installed(&profile);
    ScopedComponent comp(Component::kApp);
    const uint64_t start = RdCycles();
    SpinForNanos(1'000'000);
    profile.AttributeBlocked(start, RdCycles());
  }
  const ProfileSnapshot snap = profile.Snapshot();
  EXPECT_GT(snap.TotalBlocked(), 0u);
  // Blocked cycles must not be folded into work or contention.
  EXPECT_LT(snap.TotalCpu(), snap.TotalBlocked() + snap.TotalCpu());
}

// The paper's Figure 5 methodology on five threads sharing one window:
// daemons that mostly sleep show as blocked, two threads serializing on a
// latch split their CPU between work and contention, and a busy thread is
// all work. The spins measure wall time, so an OS preemption can skew one
// window; retry per the test-hygiene rule above.
TEST(ProfilerTest, Figure5RolesAttribution) {
  const auto attempt = [] {
    constexpr uint64_t kWindowNs = 300'000'000;
    SpinLatch latch;
    std::vector<ThreadProfile> profiles(5);
    std::vector<std::thread> threads;
    const uint64_t deadline = NowNanos() + kWindowNs;
    for (int i = 0; i < 2; ++i) {  // daemons
      threads.emplace_back([&, i] {
        ScopedThreadProfile scope(&profiles[i]);
        while (NowNanos() < deadline) {
          const uint64_t t0 = RdCycles();
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          profiles[i].AttributeBlocked(t0, RdCycles());
          SpinForNanos(100'000);
        }
      });
    }
    // Serializers hold the latch for 2 ms; the short pause after release
    // lets the peer's spin loop see the latch free before it is retaken.
    for (int i = 2; i < 4; ++i) {
      threads.emplace_back([&, i] {
        ScopedThreadProfile scope(&profiles[i]);
        ScopedComponent comp(Component::kLockManager);
        while (NowNanos() < deadline) {
          latch.Acquire();
          SpinForNanos(2'000'000);
          latch.Release();
          SpinForNanos(50'000);
        }
      });
    }
    threads.emplace_back([&] {  // busy
      ScopedThreadProfile scope(&profiles[4]);
      while (NowNanos() < deadline) SpinForNanos(1'000'000);
    });
    for (auto& t : threads) t.join();

    std::vector<ProfileSnapshot> s;
    for (ThreadProfile& p : profiles) s.push_back(p.Snapshot());
    for (int i = 0; i < 2; ++i) {
      if (s[i].TotalBlocked() < 4 * s[i].TotalCpu()) return false;
    }
    for (int i = 2; i < 4; ++i) {
      const double cpu = static_cast<double>(s[i].TotalCpu());
      const double cont = static_cast<double>(s[i].TotalContention());
      if (cont < 0.2 * cpu || cont > 0.8 * cpu) return false;
    }
    return s[4].TotalWork() > 0 && s[4].TotalContention() == 0 &&
           s[4].TotalBlocked() == 0;
  };
  for (int i = 0; i < 5; ++i) {
    if (attempt()) return;
  }
  FAIL() << "Figure 5 roles were misattributed in 5 attempts";
}

TEST(ProfilerTest, SnapshotArithmetic) {
  ProfileSnapshot a, b;
  a.work[0] = 100;
  a.contention[1] = 50;
  b.work[0] = 30;
  b.contention[1] = 20;
  ProfileSnapshot sum = a;
  sum += b;
  EXPECT_EQ(sum.work[0], 130u);
  EXPECT_EQ(sum.contention[1], 70u);
  const ProfileSnapshot diff = sum - b;
  EXPECT_EQ(diff.work[0], 100u);
  EXPECT_EQ(diff.contention[1], 50u);
}

TEST(ProfilerTest, AggregateAcrossThreads) {
  ThreadProfile p1, p2;
  {
    ScopedThreadProfile installed(&p1);
    ScopedComponent comp(Component::kLog);
    SpinForNanos(500'000);
  }
  std::thread t([&] {
    ScopedThreadProfile installed(&p2);
    ScopedComponent comp(Component::kLog);
    SpinForNanos(500'000);
  });
  t.join();
  const ProfileSnapshot total = AggregateProfiles({&p1, &p2});
  const auto log = static_cast<size_t>(Component::kLog);
  EXPECT_GE(total.work[log], p1.Snapshot().work[log]);
  EXPECT_GE(total.work[log], p2.Snapshot().work[log]);
}

TEST(ProfilerTest, ToStringContainsComponents) {
  ProfileSnapshot snap;
  snap.work[static_cast<size_t>(Component::kLockManager)] = 1000000;
  const std::string s = snap.ToString();
  EXPECT_NE(s.find("lockmgr"), std::string::npos);
}

TEST(CountersTest, TlsFallbackAccumulates) {
  CounterSet::Tls().Reset();
  CountEvent(Counter::kLockRequests);
  CountEvent(Counter::kLockRequests, 4);
  EXPECT_EQ(CounterSet::Tls().Get(Counter::kLockRequests), 5u);
  CounterSet::Tls().Reset();
}

TEST(CountersTest, ScopedRouting) {
  CounterSet mine;
  {
    ScopedCounterSet routed(&mine);
    CountEvent(Counter::kSliReclaimed, 3);
  }
  EXPECT_EQ(mine.Get(Counter::kSliReclaimed), 3u);
  // After the scope ends, events no longer land in `mine`.
  CountEvent(Counter::kSliReclaimed);
  EXPECT_EQ(mine.Get(Counter::kSliReclaimed), 3u);
}

TEST(CountersTest, MergeAndDelta) {
  CounterSet a, b;
  a.Add(Counter::kTxnCommits, 10);
  b.Add(Counter::kTxnCommits, 4);
  a.Merge(b);
  EXPECT_EQ(a.Get(Counter::kTxnCommits), 14u);
  const CounterSet d = a.Delta(b);
  EXPECT_EQ(d.Get(Counter::kTxnCommits), 10u);
}

TEST(CountersTest, NamesAreUnique) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    for (size_t j = i + 1; j < kNumCounters; ++j) {
      EXPECT_STRNE(CounterName(static_cast<Counter>(i)),
                   CounterName(static_cast<Counter>(j)));
    }
  }
}

}  // namespace
}  // namespace slidb
