// Ablation: which of SLI's design choices matter? Runs the TM1 mix at a
// fixed (high) agent count under each SLI policy and both hot-threshold
// variants of criterion 2 (paper §4.2), reporting throughput and SLI
// outcome counters for each. DESIGN.md records a full run, including the
// rows of criteria variants that are no longer configurable.
#include <cstdio>

#include "fig_common.h"

using namespace slidb;
using namespace slidb::bench;

namespace {

struct Variant {
  const char* label;
  void (*configure)(LockManagerOptions&);
};

const Variant kVariants[] = {
    {"baseline (SLI off)",
     [](LockManagerOptions& o) { o.sli = SliMode::kOff; }},
    {"SLI full (paper)", [](LockManagerOptions& o) { o.sli = SliMode::kOn; }},
    {"no hotness filter",
     [](LockManagerOptions& o) { o.sli = SliMode::kAlwaysInherit; }},
    {"hot threshold 1/16",
     [](LockManagerOptions& o) {
       o.sli = SliMode::kOn;
       o.hot_min_contended = 1;
     }},
    {"hot threshold 8/16",
     [](LockManagerOptions& o) {
       o.sli = SliMode::kOn;
       o.hot_min_contended = 8;
     }},
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  std::printf("Ablation: SLI criteria variants on the TM1 mix\n\n");

  const int threads = args.max_threads > 0 ? args.max_threads : 8;
  TablePrinter table({"variant", "tps", "lm_cont%", "inherited", "used%",
                      "invalidated%"});
  for (const Variant& v : kVariants) {
    auto pw = MakeTm1("NDBB-Mix", Tm1Workload::Mix::kFull,
                      Tm1TxnType::kGetSubscriberData, args.quick, false);
    v.configure(pw->db->lock_manager().mutable_options());

    DriverOptions dopts;
    dopts.num_agents = threads;
    dopts.duration_s = args.duration_s;
    dopts.warmup_s = args.warmup_s;
    dopts.seed = args.seed;
    const DriverResult r = RunWorkload(*pw->db, *pw->workload, dopts);
    const BreakdownRow b = ComputeBreakdown(r.profile);
    const uint64_t inh = r.counters.Get(Counter::kSliInherited);
    const uint64_t used = r.counters.Get(Counter::kSliReclaimed);
    const uint64_t inval = r.counters.Get(Counter::kSliInvalidated);
    const auto pct = [&](uint64_t x) {
      return inh == 0 ? 0.0
                      : 100.0 * static_cast<double>(x) / static_cast<double>(inh);
    };
    table.Row({v.label, Fmt("%.0f", r.tps), Fmt("%.1f", b.lockmgr_cont),
               Fmt("%llu", static_cast<unsigned long long>(inh)),
               Fmt("%.1f", pct(used)), Fmt("%.1f", pct(inval))});
  }
  std::printf(
      "\nReading: the paper's criteria should be near the top; dropping the\n"
      "hotness filter inherits locks the next transaction often leaves\n"
      "unused (lower used%%).\n");
  return 0;
}
