// The paper's evaluation figures (§5) from one pass per roster workload.
// Each workload is loaded once into a database with SLI off and then runs:
//
//  * the ladder: one SLI-off window per ThreadLadder rung. Figure 1 reads
//    NDBB-Mix from it, Figure 7 reads NDBB-Mix, TPC-B and Payment, and
//    Figure 6 reads each workload's peak rung;
//  * the loaded point: SLI off and on interleaved at window granularity
//    (RunInterleaved) at 8 agents. Figure 8 reads the off windows, Figures
//    9 and 10 read the on windows, and Figure 11 reads the paired speedups
//    on_i / off_i of adjacent windows;
//  * on NDBB-Mix only, the SLI criteria ablation through the same
//    interleaved runner.
//
// Prints every figure on stdout and, with --json=FILE, writes the
// BENCH_paper.json record consumed by CI's bench smoke job.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <vector>

#include "fig_common.h"
#include "src/util/time_util.h"

namespace slidb::bench {
namespace {

struct Rung {
  int threads = 0;
  double tps = 0;
  double util = 0;
  BreakdownRow breakdown;
};

/// One SLI mode's windows at the loaded point. Figure columns are ratios
/// over the sum of the mode's windows.
struct ModeWindows {
  MedianSpread<double> tps;
  std::vector<double> reps;  ///< tps per window, in run order
  uint64_t commits = 0;
  uint64_t txns = 0;  ///< commits + user aborts + retryable aborts
  CounterSet counters;
  ProfileSnapshot profile;

  uint64_t Get(Counter c) const { return counters.Get(c); }
  double PerTxn(uint64_t v) const {
    return txns == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(txns);
  }
  double LocksPerTxn() const {
    return PerTxn(Get(Counter::kAcqRow) + Get(Counter::kAcqHigh));
  }
  /// Percentage of all lock acquisitions.
  double AcqPct(Counter c) const {
    const uint64_t total = Get(Counter::kAcqRow) + Get(Counter::kAcqHigh);
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(Get(c)) /
                            static_cast<double>(total);
  }
  /// Percentage of inherited locks.
  double SliPct(Counter c) const {
    const uint64_t inh = Get(Counter::kSliInherited);
    return inh == 0 ? 0.0
                    : 100.0 * static_cast<double>(Get(c)) /
                          static_cast<double>(inh);
  }
};

ModeWindows Summarize(const std::vector<DriverResult>& windows) {
  ModeWindows m;
  for (const DriverResult& r : windows) {
    m.reps.push_back(r.tps);
    m.commits += r.commits;
    m.txns += r.commits + r.user_aborts + r.deadlock_aborts;
    m.counters.Merge(r.counters);
    m.profile += r.profile;
  }
  m.tps = MedianOf(m.reps, [](double v) { return v; });
  return m;
}

struct WorkloadPass {
  std::string label;
  std::vector<Rung> ladder;
  ModeWindows off, on;
  MedianSpread<double> speedup;   ///< of the paired on_i / off_i ratios
  std::vector<double> pairs;
};

const Rung& PeakRung(const WorkloadPass& p) {
  return *std::max_element(
      p.ladder.begin(), p.ladder.end(),
      [](const Rung& a, const Rung& b) { return a.tps < b.tps; });
}

struct AblationRow {
  const char* variant;
  ModeWindows windows;
};

/// SLI criteria variants, each setting every field any variant touches so
/// the order they run in does not matter.
struct Variant {
  const char* label;
  SliMode sli;
  uint32_t hot_min_contended;
};

constexpr uint32_t kDefaultHot = LockManagerOptions{}.hot_min_contended;
constexpr Variant kVariants[] = {
    {"baseline (SLI off)", SliMode::kOff, kDefaultHot},
    {"SLI full (paper)", SliMode::kOn, kDefaultHot},
    {"no hotness filter", SliMode::kAlwaysInherit, kDefaultHot},
    {"hot threshold 1/16", SliMode::kOn, 1},
    {"hot threshold 8/16", SliMode::kOn, 8},
};

WorkloadPass RunPass(const RosterEntry& entry, const BenchArgs& args,
                     int agents, std::vector<AblationRow>* ablation) {
  WorkloadPass p;
  p.label = entry.label;
  Database db(BenchDbOptions(/*sli=*/false));
  const std::unique_ptr<Workload> workload = entry.make();
  workload->Load(db);

  for (int threads : ThreadLadder(args.max_threads)) {
    const DriverResult r =
        RunWorkload(db, *workload, WindowOptions(args, threads));
    p.ladder.push_back(
        {threads, r.tps, r.cpu_utilization, ComputeBreakdown(r.profile)});
  }

  const auto windows = RunInterleaved(
      db, *workload, WindowOptions(args, agents),
      {[](Database& d) { d.SetSliMode(SliMode::kOff); },
       [](Database& d) { d.SetSliMode(SliMode::kOn); }});
  p.off = Summarize(windows[0]);
  p.on = Summarize(windows[1]);
  for (size_t i = 0; i < p.off.reps.size(); ++i) {
    p.pairs.push_back(p.off.reps[i] > 0 ? p.on.reps[i] / p.off.reps[i] : 0);
  }
  p.speedup = MedianOf(p.pairs, [](double v) { return v; });

  if (ablation != nullptr) {
    std::vector<std::function<void(Database&)>> variants;
    for (const Variant& v : kVariants) {
      variants.push_back([v](Database& d) {
        LockManagerOptions& o = d.lock_manager().mutable_options();
        o.sli = v.sli;
        o.hot_min_contended = v.hot_min_contended;
      });
    }
    const auto ab = RunInterleaved(db, *workload,
                                   WindowOptions(args, agents), variants);
    for (size_t i = 0; i < std::size(kVariants); ++i) {
      ablation->push_back({kVariants[i].label, Summarize(ab[i])});
    }
  }
  return p;
}

void PrintFigures(const std::vector<WorkloadPass>& passes,
                  const std::vector<AblationRow>& ablation, int agents) {
  const auto pct = [](double v) { return Fmt("%.1f", v); };
  const auto find = [&](const char* label) -> const WorkloadPass* {
    for (const WorkloadPass& p : passes) {
      if (p.label == label) return &p;
    }
    return nullptr;
  };

  std::printf("\nFigure 1: lock manager overhead vs load (NDBB-Mix, SLI off)\n");
  if (const WorkloadPass* p = find("NDBB-Mix")) {
    TablePrinter t({"threads", "tps", "util", "lm_work%", "lm_cont%",
                    "other_work%", "other_cont%"});
    for (const Rung& r : p->ladder) {
      t.Row({Fmt("%d", r.threads), Fmt("%.0f", r.tps), Fmt("%.2f", r.util),
             pct(r.breakdown.lockmgr_work), pct(r.breakdown.lockmgr_cont),
             pct(r.breakdown.other_work), pct(r.breakdown.other_cont)});
    }
  }

  std::printf("\nFigure 6: work breakdown at peak throughput (SLI off)\n");
  {
    TablePrinter t({"workload", "peak_thr", "tps", "lm_work%", "lm_cont%",
                    "log%", "other_work%", "other_cont%"});
    for (const WorkloadPass& p : passes) {
      const Rung& r = PeakRung(p);
      t.Row({p.label, Fmt("%d", r.threads), Fmt("%.0f", r.tps),
             pct(r.breakdown.lockmgr_work), pct(r.breakdown.lockmgr_cont),
             pct(r.breakdown.log_pct), pct(r.breakdown.other_work),
             pct(r.breakdown.other_cont)});
    }
  }

  std::printf("\nFigure 7: throughput vs offered load (SLI off)\n");
  {
    TablePrinter t({"workload", "threads", "util", "tps"});
    for (const char* label : {"NDBB-Mix", "TPC-B", "Payment"}) {
      const WorkloadPass* p = find(label);
      if (p == nullptr) continue;
      for (const Rung& r : p->ladder) {
        t.Row({p->label, Fmt("%d", r.threads), Fmt("%.2f", r.util),
               Fmt("%.0f", r.tps)});
      }
    }
  }

  std::printf("\nFigure 8: lock acquisitions per transaction (SLI off, %d "
              "agents)\n", agents);
  {
    TablePrinter t({"workload", "locks/txn", "row%", "high%", "hot%",
                    "hot+heritable%", "hot_row%"});
    for (const WorkloadPass& p : passes) {
      const ModeWindows& m = p.off;
      t.Row({p.label, Fmt("%.1f", m.LocksPerTxn()),
             pct(m.AcqPct(Counter::kAcqRow)), pct(m.AcqPct(Counter::kAcqHigh)),
             pct(m.AcqPct(Counter::kAcqHot)),
             pct(m.AcqPct(Counter::kAcqHotHeritable)),
             pct(m.AcqPct(Counter::kAcqHotRow))});
    }
  }

  std::printf("\nFigure 9: SLI outcomes (SLI on, %d agents)\n", agents);
  {
    TablePrinter t({"workload", "inherited", "used%", "invalidated%",
                    "discarded%", "inh/txn"});
    for (const WorkloadPass& p : passes) {
      const ModeWindows& m = p.on;
      t.Row({p.label,
             Fmt("%llu", static_cast<unsigned long long>(
                             m.Get(Counter::kSliInherited))),
             pct(m.SliPct(Counter::kSliReclaimed)),
             pct(m.SliPct(Counter::kSliInvalidated)),
             pct(m.SliPct(Counter::kSliDiscarded)),
             Fmt("%.2f", m.PerTxn(m.Get(Counter::kSliInherited)))});
    }
  }

  std::printf("\nFigure 10: work breakdown on a loaded system (SLI on, %d "
              "agents)\n", agents);
  {
    TablePrinter t({"workload", "tps", "lm_work%", "lm_cont%", "sli%",
                    "other_work%", "other_cont%"});
    for (const WorkloadPass& p : passes) {
      const BreakdownRow b = ComputeBreakdown(p.on.profile);
      t.Row({p.label, Fmt("%.0f", p.on.tps.median),
             pct(b.lockmgr_work), pct(b.lockmgr_cont), pct(b.sli_pct),
             pct(b.other_work), pct(b.other_cont)});
    }
  }

  std::printf("\nFigure 11: SLI speedup (%d agents, %d interleaved window "
              "pairs)\n", agents, kReps);
  {
    TablePrinter t({"workload", "tps_off", "tps_on", "speedup%", "min%",
                    "max%"});
    for (const WorkloadPass& p : passes) {
      const auto gain = [](double ratio) {
        return Fmt("%+.1f", 100.0 * (ratio - 1.0));
      };
      t.Row({p.label, Fmt("%.0f", p.off.tps.median),
             Fmt("%.0f", p.on.tps.median), gain(p.speedup.median),
             gain(p.speedup.min), gain(p.speedup.max)});
    }
  }

  std::printf("\nAblation: SLI criteria variants (NDBB-Mix, %d agents)\n",
              agents);
  {
    TablePrinter t({"variant", "tps", "min", "max", "lm_cont%", "inherited",
                    "used%", "invalidated%"});
    for (const AblationRow& a : ablation) {
      const ModeWindows& m = a.windows;
      t.Row({a.variant, Fmt("%.0f", m.tps.median), Fmt("%.0f", m.tps.min),
             Fmt("%.0f", m.tps.max),
             pct(ComputeBreakdown(m.profile).lockmgr_cont),
             Fmt("%llu", static_cast<unsigned long long>(
                             m.Get(Counter::kSliInherited))),
             pct(m.SliPct(Counter::kSliReclaimed)),
             pct(m.SliPct(Counter::kSliInvalidated))});
    }
  }
}

void EmitSpread(JsonWriter& json, const char* key,
                const MedianSpread<double>& s) {
  json.Key(key).BeginObject();
  json.Key("median").Value(s.median);
  json.Key("min").Value(s.min);
  json.Key("max").Value(s.max);
  json.EndObject();
}

void EmitBreakdown(JsonWriter& json, const BreakdownRow& b) {
  json.Key("breakdown").BeginObject();
  json.Key("lm_work_pct").Value(b.lockmgr_work);
  json.Key("lm_cont_pct").Value(b.lockmgr_cont);
  json.Key("sli_pct").Value(b.sli_pct);
  json.Key("log_pct").Value(b.log_pct);
  json.Key("other_work_pct").Value(b.other_work);
  json.Key("other_cont_pct").Value(b.other_cont);
  json.EndObject();
}

/// Every figure column of one mode: Figure 8's lock mix, Figure 9's SLI
/// outcomes and Figures 6/10's breakdown.
void EmitMode(JsonWriter& json, const ModeWindows& m) {
  json.BeginObject();
  EmitSpread(json, "tps", m.tps);
  json.Key("reps").BeginArray();
  for (double v : m.reps) json.Value(v);
  json.EndArray();
  json.Key("commits").Value(m.commits);
  json.Key("locks_per_txn").Value(m.LocksPerTxn());
  json.Key("row_pct").Value(m.AcqPct(Counter::kAcqRow));
  json.Key("high_pct").Value(m.AcqPct(Counter::kAcqHigh));
  json.Key("hot_pct").Value(m.AcqPct(Counter::kAcqHot));
  json.Key("hot_heritable_pct").Value(m.AcqPct(Counter::kAcqHotHeritable));
  json.Key("hot_row_pct").Value(m.AcqPct(Counter::kAcqHotRow));
  json.Key("lock_waits").Value(m.Get(Counter::kLockWaits));
  json.Key("sli").BeginObject();
  json.Key("inherited").Value(m.Get(Counter::kSliInherited));
  json.Key("used_pct").Value(m.SliPct(Counter::kSliReclaimed));
  json.Key("invalidated_pct").Value(m.SliPct(Counter::kSliInvalidated));
  json.Key("discarded_pct").Value(m.SliPct(Counter::kSliDiscarded));
  json.Key("inherited_per_txn").Value(m.PerTxn(m.Get(Counter::kSliInherited)));
  json.EndObject();
  EmitBreakdown(json, ComputeBreakdown(m.profile));
  json.EndObject();
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  const int agents = args.max_threads > 0 ? args.max_threads : 8;

  std::vector<WorkloadPass> passes;
  std::vector<AblationRow> ablation;
  for (const RosterEntry& entry : PaperRoster(args.quick)) {
    const uint64_t t0 = NowNanos();
    passes.push_back(RunPass(entry, args, agents,
                             entry.label == "NDBB-Mix" ? &ablation : nullptr));
    std::printf("# %s pass: %.1f s\n", entry.label.c_str(),
                static_cast<double>(NowNanos() - t0) / 1e9);
    std::fflush(stdout);
  }
  PrintFigures(passes, ablation, agents);

  if (args.json_path.empty()) return 0;
  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("paper_figures");
  json.Key("quick").Value(args.quick);
  json.Key("agents").Value(agents);
  json.Key("reps").Value(kReps);
  json.Key("duration_s").Value(args.duration_s);
  json.Key("sim_queue_ns").Value(args.sim_queue_ns);
  json.Key("rows").BeginArray();
  for (const WorkloadPass& p : passes) {
    json.BeginObject();
    json.Key("workload").Value(p.label);
    json.Key("peak_threads").Value(PeakRung(p).threads);
    json.Key("ladder").BeginArray();
    for (const Rung& r : p.ladder) {
      json.BeginObject();
      json.Key("threads").Value(r.threads);
      json.Key("tps").Value(r.tps);
      json.Key("util").Value(r.util);
      EmitBreakdown(json, r.breakdown);
      json.EndObject();
    }
    json.EndArray();
    json.Key("sli_off");
    EmitMode(json, p.off);
    json.Key("sli_on");
    EmitMode(json, p.on);
    EmitSpread(json, "speedup", p.speedup);
    json.Key("speedup_pairs").BeginArray();
    for (double v : p.pairs) json.Value(v);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("ablation").BeginArray();
  for (const AblationRow& a : ablation) {
    json.BeginObject();
    json.Key("variant").Value(a.variant);
    json.Key("windows");
    EmitMode(json, a.windows);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteTo(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace slidb::bench

int main(int argc, char** argv) { return slidb::bench::Main(argc, argv); }
