// Contention-scenario matrix: the purpose-built skewed workloads from
// src/workload/contention.h through the SLI policy ablation the paper's
// Figures 9/10 are about — SLI off vs always-inherit vs adaptive
// (per-head heat-triggered), across a Zipf-theta sweep (zipf-mix) and the
// three hotspot scenarios (flash-sale, auction, social-feed).
//
// Each row reports throughput plus what the heat machinery saw: hot-head
// counts from the HotTracker windows, cumulative contended-head counts
// (stable after an idle tail, used by CI), and the SLI outcome counters
// (inherited / reclaimed / invalidated / discarded, and the adaptive
// policy's enable/cool-down transitions).
//
// Emits a human table on stdout and, with --json=FILE, the
// BENCH_contention.json record consumed by CI's bench smoke job.
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "fig_common.h"
#include "src/workload/contention.h"

namespace slidb::bench {
namespace {

constexpr SliMode kModes[] = {SliMode::kOff, SliMode::kAlwaysInherit,
                              SliMode::kAdaptive};
constexpr double kThetaSweep[] = {0.0, 0.6, 0.9, 0.99, 1.2};
constexpr ContentionScenario kHotspots[] = {ContentionScenario::kFlashSale,
                                            ContentionScenario::kAuction,
                                            ContentionScenario::kSocialFeed};

struct ContentionSample {
  std::string scenario;
  double theta = 0;
  const char* mode = "";
  int agents = 0;
  double tps = 0;  ///< median window
  double tps_min = 0, tps_max = 0;
  uint64_t commits = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t lock_waits = 0;
  ContentionHeatReport heat;
  uint64_t inherits = 0;
  uint64_t reclaims = 0;
  uint64_t invalidated = 0;
  uint64_t discarded = 0;
  uint64_t adaptive_enables = 0;
  uint64_t adaptive_cooldowns = 0;
};

/// One matrix cell = one database + loaded scenario, all three SLI modes
/// measured against it through RunInterleaved; each mode keeps its median
/// window.
std::vector<ContentionSample> RunCell(ContentionOptions copts, int agents,
                                      const BenchArgs& args) {
  DatabaseOptions o = BenchDbOptions(/*sli=*/false);
  // Small-host thresholds: with 2-4 driver threads a hot head sees fewer
  // contended latch acquisitions per window than the paper's 64-context
  // Niagara, so trigger earlier and cool only on a fully calm window.
  o.lock.hot_min_contended = 2;
  o.lock.hot_exit_contended = 0;

  Database db(o);
  ContentionWorkload workload(copts);
  workload.Load(db);

  std::vector<std::function<void(Database&)>> variants;
  for (SliMode mode : kModes) {
    variants.push_back([mode](Database& d) { d.SetSliMode(mode); });
  }
  const std::vector<std::vector<DriverResult>> windows =
      RunInterleaved(db, workload, WindowOptions(args, agents), variants);
  // Cumulative over the cell's whole run; identical for the three rows by
  // construction (heat is a property of the workload, not the policy).
  const ContentionHeatReport heat = ContentionWorkload::MeasureHeat(db);

  std::vector<ContentionSample> out;
  for (size_t m = 0; m < std::size(kModes); ++m) {
    const MedianSpread<DriverResult> spread = MedianOf(
        windows[m], [](const DriverResult& r) { return r.tps; });
    const DriverResult& r = spread.median;
    ContentionSample s;
    s.scenario = ContentionScenarioName(copts.scenario);
    s.theta = copts.theta;
    s.mode = SliModeName(kModes[m]);
    s.agents = agents;
    s.tps = r.tps;
    s.tps_min = spread.min;
    s.tps_max = spread.max;
    s.commits = r.commits;
    s.deadlock_aborts = r.deadlock_aborts;
    s.lock_waits = r.counters.Get(Counter::kLockWaits);
    s.heat = heat;
    s.inherits = r.counters.Get(Counter::kSliInherited);
    s.reclaims = r.counters.Get(Counter::kSliReclaimed);
    s.invalidated = r.counters.Get(Counter::kSliInvalidated);
    s.discarded = r.counters.Get(Counter::kSliDiscarded);
    s.adaptive_enables = r.counters.Get(Counter::kSliAdaptiveEnable);
    s.adaptive_cooldowns = r.counters.Get(Counter::kSliAdaptiveCooldown);
    out.push_back(std::move(s));
  }
  return out;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  int agents = args.quick ? 2 : 4;
  if (args.max_threads > 0 && agents > args.max_threads) {
    agents = args.max_threads;
  }

  ContentionOptions base;
  base.num_items = args.quick ? 5'000 : 20'000;

  std::vector<ContentionSample> samples;
  TablePrinter table({"scenario", "theta", "sli", "tps", "commits",
                      "hot_heads", "cont_frac", "inherits", "reclaims",
                      "adapt_on/off"});
  const auto add_row = [&](const ContentionSample& s) {
    samples.push_back(s);
    table.Row(
        {s.scenario, Fmt("%.2f", s.theta), s.mode, Fmt("%.0f", s.tps),
         Fmt("%llu", static_cast<unsigned long long>(s.commits)),
         Fmt("%llu", static_cast<unsigned long long>(s.heat.hot_heads)),
         Fmt("%.3f", s.heat.contended_fraction),
         Fmt("%llu", static_cast<unsigned long long>(s.inherits)),
         Fmt("%llu", static_cast<unsigned long long>(s.reclaims)),
         Fmt("%llu/%llu", static_cast<unsigned long long>(s.adaptive_enables),
             static_cast<unsigned long long>(s.adaptive_cooldowns))});
  };

  std::printf("== zipf-mix theta sweep (%d agents) ==\n", agents);
  for (double theta : kThetaSweep) {
    ContentionOptions copts = base;
    copts.scenario = ContentionScenario::kZipfMix;
    copts.theta = theta;
    for (ContentionSample& s : RunCell(copts, agents, args)) {
      add_row(s);
    }
  }

  std::printf("\n== hotspot scenarios (%d agents) ==\n", agents);
  for (ContentionScenario sc : kHotspots) {
    ContentionOptions copts = base;
    copts.scenario = sc;
    for (ContentionSample& s : RunCell(copts, agents, args)) {
      add_row(s);
    }
  }

  // Headline: adaptive vs off at the skewed end of the sweep.
  const auto find_tps = [&](const char* scenario, double theta,
                            const char* mode) {
    for (const ContentionSample& s : samples) {
      if (s.scenario == scenario && s.theta == theta &&
          std::strcmp(s.mode, mode) == 0) {
        return s.tps;
      }
    }
    return 0.0;
  };
  for (double theta : {0.99, 1.2}) {
    const double off = find_tps("zipf_mix", theta, "sli_off");
    const double adaptive = find_tps("zipf_mix", theta, "adaptive");
    if (off > 0) {
      std::printf("# zipf-mix theta=%.2f: adaptive/off = %.2fx "
                  "(%.0f vs %.0f tps)\n",
                  theta, adaptive / off, adaptive, off);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("macro_contention");
  json.Key("quick").Value(args.quick);
  json.Key("agents").Value(agents);
  json.Key("num_items").Value(base.num_items);
  json.Key("rows").BeginArray();
  for (const ContentionSample& s : samples) {
    json.BeginObject();
    json.Key("scenario").Value(s.scenario);
    json.Key("theta").Value(s.theta);
    json.Key("mode").Value(s.mode);
    json.Key("agents").Value(s.agents);
    json.Key("tps").Value(s.tps);
    json.Key("tps_min").Value(s.tps_min);
    json.Key("tps_max").Value(s.tps_max);
    json.Key("commits").Value(s.commits);
    json.Key("deadlock_aborts").Value(s.deadlock_aborts);
    json.Key("lock_waits").Value(s.lock_waits);
    json.Key("heat").BeginObject();
    json.Key("heads").Value(s.heat.heads);
    json.Key("hot_heads").Value(s.heat.hot_heads);
    json.Key("adaptive_hot_heads").Value(s.heat.adaptive_hot_heads);
    json.Key("contended_heads").Value(s.heat.contended_heads);
    json.Key("total_acquires").Value(s.heat.total_acquires);
    json.Key("total_contended").Value(s.heat.total_contended);
    json.Key("contended_fraction").Value(s.heat.contended_fraction);
    json.EndObject();
    json.Key("sli").BeginObject();
    json.Key("inherits").Value(s.inherits);
    json.Key("reclaims").Value(s.reclaims);
    json.Key("invalidated").Value(s.invalidated);
    json.Key("discarded").Value(s.discarded);
    json.Key("adaptive_enables").Value(s.adaptive_enables);
    json.Key("adaptive_cooldowns").Value(s.adaptive_cooldowns);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!args.json_path.empty()) {
    if (!json.WriteTo(args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace slidb::bench

int main(int argc, char** argv) { return slidb::bench::Main(argc, argv); }
