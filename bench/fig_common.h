// Shared setup for the macro benches: database options, the paper's
// workload roster, window options, the interleaved-window runner and its
// median helper, and breakdown-row formatting.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/engine/database.h"
#include "src/workload/driver.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"
#include "src/workload/tpcc.h"

namespace slidb::bench {

inline DatabaseOptions BenchDbOptions(bool sli) {
  DatabaseOptions o;
  o.lock.sli = sli ? SliMode::kOn : SliMode::kOff;
  o.lock.deadlock_interval_us = 500;
  o.lock.lock_timeout_us = 5'000'000;
  // Simulate the queue-traversal cost of a loaded many-context machine
  // (DESIGN.md substitution; SimQueueWorkNs() reads the --sim=NS flag).
  o.lock.sim_queue_work_ns = SimQueueWorkNs();
  o.log.flush_interval_us = 10;  // responsive group commit
  o.buffer.num_frames = 1u << 15;  // 256 MB
  return o;
}

/// One transaction or mix of the paper's evaluation roster (§5.1) with a
/// factory for its (unloaded) workload, sized for this machine: scaled down
/// from the paper's Niagara-II datasets, see DESIGN.md. Databases own
/// background threads (log flusher, deadlock detector), so benches load
/// one row at a time — never the whole roster at once.
struct RosterEntry {
  std::string label;
  std::function<std::unique_ptr<Workload>()> make;
};

inline std::vector<RosterEntry> PaperRoster(bool quick) {
  using Mix = Tm1Workload::Mix;
  using TMix = TpccWorkload::Mix;
  Tm1Options tm1;
  tm1.subscribers = quick ? 2'000 : 20'000;
  TpcbOptions tpcb;
  tpcb.branches = quick ? 4 : 16;
  tpcb.tellers_per_branch = 10;
  tpcb.accounts_per_branch = quick ? 1'000 : 10'000;
  TpccOptions tpcc;
  // Enough warehouses that Payment's w_ytd row conflicts stay moderate at
  // the default 8-agent load (the paper used 300 warehouses for 64
  // contexts; true row conflicts are not what Fig 11 measures).
  tpcc.warehouses = quick ? 4 : 8;
  tpcc.districts_per_warehouse = 10;
  tpcc.customers_per_district = quick ? 300 : 1'000;
  tpcc.items = quick ? 1'000 : 10'000;
  tpcc.initial_orders_per_district = quick ? 30 : 100;

  const auto tm1_row = [tm1](const char* label, Mix mix, Tm1TxnType type) {
    return RosterEntry{label, [=] {
                         return std::make_unique<Tm1Workload>(tm1, mix, type);
                       }};
  };
  const auto tpcc_row = [tpcc](const char* label, TMix mix,
                               TpccTxnType type) {
    return RosterEntry{label, [=] {
                         return std::make_unique<TpccWorkload>(tpcc, mix,
                                                               type);
                       }};
  };
  return {
      tm1_row("getSub", Mix::kSingle, Tm1TxnType::kGetSubscriberData),
      tm1_row("getDest", Mix::kSingle, Tm1TxnType::kGetNewDestination),
      tm1_row("getAccess", Mix::kSingle, Tm1TxnType::kGetAccessData),
      tm1_row("updateSub", Mix::kSingle, Tm1TxnType::kUpdateSubscriberData),
      tm1_row("updateLoc", Mix::kSingle, Tm1TxnType::kUpdateLocation),
      tm1_row("ForwardMix", Mix::kForward, Tm1TxnType::kGetNewDestination),
      tm1_row("NDBB-Mix", Mix::kFull, Tm1TxnType::kGetSubscriberData),
      {"TPC-B", [tpcb] { return std::make_unique<TpcbWorkload>(tpcb); }},
      tpcc_row("Payment", TMix::kSingle, TpccTxnType::kPayment),
      tpcc_row("NewOrder", TMix::kSingle, TpccTxnType::kNewOrder),
      tpcc_row("OrderStatus", TMix::kSingle, TpccTxnType::kOrderStatus),
      // No Delivery row: alone it drains the preloaded new-orders during
      // warm-up, after which every Delivery is an empty transaction.
      tpcc_row("StockLevel", TMix::kSingle, TpccTxnType::kStockLevel),
      tpcc_row("SmallMix", TMix::kSmall, TpccTxnType::kPayment),
      tpcc_row("TPCC-Mix", TMix::kFull, TpccTxnType::kPayment),
  };
}

/// Closed-loop options for one measurement window of `agents` agents.
inline DriverOptions WindowOptions(const BenchArgs& args, int agents) {
  DriverOptions dopts;
  dopts.num_agents = agents;
  dopts.duration_s = args.duration_s;
  dopts.warmup_s = args.warmup_s;
  dopts.seed = args.seed;
  return dopts;
}

/// Windows per variant in an interleaved comparison.
constexpr int kReps = 3;

/// The median of repeated windows, and the spread of the key it was
/// chosen by.
template <typename T>
struct MedianSpread {
  T median;
  double min = 0;
  double max = 0;
};

/// Picks the window whose `key` is the median (the upper one for an even
/// count); `windows` must not be empty.
template <typename T, typename Key>
MedianSpread<T> MedianOf(std::vector<T> windows, Key key) {
  std::sort(windows.begin(), windows.end(),
            [&](const T& a, const T& b) { return key(a) < key(b); });
  return {windows[windows.size() / 2], key(windows.front()),
          key(windows.back())};
}

/// Measures configurations of one loaded database against each other. On
/// a small shared host the background load swings by 2-3x on a minutes
/// scale, so only back-to-back windows are comparable; sequential
/// per-variant runs would measure the neighbours, not the variants. After
/// one discarded warm-up window (cold allocators, an unwarmed buffer pool
/// and an empty lock table would depress whichever variant ran first),
/// each round applies every variant and runs one window with it: in order
/// on even rounds and reversed on odd ones, so a steady drift in host
/// speed favours no variant. Variants mutate the database between
/// windows only (e.g. Database::SetSliMode); RunWorkload joins every agent
/// before it returns. Returns windows[variant][round], kReps rounds.
inline std::vector<std::vector<DriverResult>> RunInterleaved(
    Database& db, Workload& workload, const DriverOptions& dopts,
    const std::vector<std::function<void(Database&)>>& variants) {
  DriverOptions wopts = dopts;
  wopts.duration_s = std::min(0.5, dopts.duration_s);
  wopts.warmup_s = 0.0;
  (void)RunWorkload(db, workload, wopts);

  const size_t n = variants.size();
  std::vector<std::vector<DriverResult>> windows(n);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < n; ++i) {
      const size_t v = rep % 2 == 0 ? i : n - 1 - i;
      variants[v](db);
      windows[v].push_back(RunWorkload(db, workload, dopts));
    }
  }
  return windows;
}

/// Percentage of CPU time (work + contention) by category, matching the
/// four-way split in Figures 1, 6, 10 plus the SLI component.
struct BreakdownRow {
  double lockmgr_work = 0, lockmgr_cont = 0;
  double sli_pct = 0;
  double log_pct = 0;
  double other_work = 0, other_cont = 0;
};

inline BreakdownRow ComputeBreakdown(const ProfileSnapshot& p) {
  BreakdownRow row;
  const double cpu = static_cast<double>(p.TotalCpu());
  if (cpu == 0) return row;
  const auto pct = [&](uint64_t v) { return 100.0 * static_cast<double>(v) / cpu; };
  const size_t lm = static_cast<size_t>(Component::kLockManager);
  const size_t sli = static_cast<size_t>(Component::kSli);
  const size_t log = static_cast<size_t>(Component::kLog);
  row.lockmgr_work = pct(p.work[lm]);
  row.lockmgr_cont = pct(p.contention[lm]);
  row.sli_pct = pct(p.work[sli] + p.contention[sli]);
  row.log_pct = pct(p.work[log] + p.contention[log]);
  double other_work = 0, other_cont = 0;
  for (size_t i = 0; i < kNumComponents; ++i) {
    if (i == lm || i == sli || i == log) continue;
    other_work += static_cast<double>(p.work[i]);
    other_cont += static_cast<double>(p.contention[i]);
  }
  row.other_work = 100.0 * other_work / cpu;
  row.other_cont = 100.0 * other_cont / cpu;
  return row;
}

}  // namespace slidb::bench
