// Macro benchmark for the decentralized commit pipeline.
//
// Section 1 — raw log-append throughput: N writer threads hammering
// LogManager::Append (one latch-free reservation per record), plus the
// batched row (LogStagingBuffer + AppendBatch, 32 sealed records per ring
// reservation — the transaction-staging publish path). The batched row
// amortizes per-record fixed costs that exist even on one core. The
// retired single-latch baseline's rows ("latched") stay in the committed
// BENCH_workloads.json.
//
// Section 2 — commit pipeline end-to-end (the headline): TPC-B and the
// TM1 full mix with a realistic log-device latency charged per flush,
// comparing the legacy ordering (locks held across the durable wait)
// against early lock release, with and without speculative acks. This is
// where removing the commit I/O from the lock critical path becomes
// visible at the workload level.
//
// Section 3 — SLI matrix: the same workloads through RunWorkload at an
// agent ladder, SLI off and on, on the new pipeline.
//
// Emits a human table on stdout and, with --json=FILE, the
// BENCH_workloads.json record consumed by CI's bench smoke job.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "fig_common.h"
#include "src/log/log_manager.h"
#include "src/util/time_util.h"

namespace slidb::bench {
namespace {

/// Simulated log-device write latency for the end-to-end sections (a fast
/// SSD fsync; the paper's methodology of charging latency per I/O).
constexpr uint64_t kLogIoDelayUs = 100;

struct LogAppendSample {
  const char* mode;
  int threads;
  uint32_t payload_bytes = 0;
  double appends_per_s = 0;        ///< median of kReps windows
  double appends_per_s_min = 0, appends_per_s_max = 0;
  double mb_per_s = 0;
  uint64_t resv_retries = 0;
  uint64_t batch_appends = 0;       ///< batch publications (batched mode)
  double records_per_batch = 0;     ///< mean records amortized per batch
};

/// Raw append throughput: per-record (`batch_records` = 0) pays one ticket
/// fetch-add + slot handoff + seal per record; batched stages
/// `batch_records` records per AppendBatch publication (the
/// transaction-staging path, minus the transaction). Records at or below
/// the 64-byte wire bound additionally publish under kBatchSeal envelopes
/// — one CRC per run instead of one per record.
LogAppendSample RunLogAppend(const char* label, int threads, double duration_s,
                             uint32_t payload_bytes,
                             uint32_t batch_records = 0) {
  LogOptions o;
  o.flush_interval_us = 10;
  LogManager log(o);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0};
  std::vector<CounterSet> counters(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ScopedCounterSet routed(&counters[t]);
      std::vector<uint8_t> payload(payload_bytes, 0x5A);
      uint64_t n = 0;
      if (batch_records == 0) {
        while (!stop.load(std::memory_order_relaxed)) {
          log.Append(t + 1, LogRecordType::kUpdate, payload.data(),
                     payload_bytes);
          ++n;
        }
      } else {
        LogStagingBuffer staging;
        while (!stop.load(std::memory_order_relaxed)) {
          for (uint32_t i = 0; i < batch_records; ++i) {
            staging.Stage(t + 1, LogRecordType::kUpdate, payload.data(),
                          payload_bytes);
          }
          log.AppendBatch(&staging);
          n += batch_records;
        }
      }
      total.fetch_add(n, std::memory_order_relaxed);
    });
  }

  const uint64_t t0 = NowNanos();
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(duration_s * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double wall_s = static_cast<double>(NowNanos() - t0) / 1e9;

  LogAppendSample s;
  s.mode = label;
  s.threads = threads;
  s.payload_bytes = payload_bytes;
  s.appends_per_s = static_cast<double>(total.load()) / wall_s;
  s.mb_per_s =
      s.appends_per_s * (payload_bytes + sizeof(LogRecordHeader)) / 1e6;
  uint64_t batched_records = 0;
  for (const CounterSet& c : counters) {
    s.resv_retries += c.Get(Counter::kLogResvRetries);
    s.batch_appends += c.Get(Counter::kLogBatchAppends);
    batched_records += c.Get(Counter::kLogBatchRecords);
  }
  if (s.batch_appends > 0) {
    s.records_per_batch = static_cast<double>(batched_records) /
                          static_cast<double>(s.batch_appends);
  }
  return s;
}

struct WorkloadSample {
  std::string workload;
  std::string config;  ///< "legacy" / "decentralized" / "speculative" /
                       ///< "sli_off" / "sli_on"
  int agents = 0;
  double tps = 0;
  uint64_t commits = 0;
  uint64_t user_aborts = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t lock_waits = 0;
  uint64_t early_release = 0;
  uint64_t resv_retries = 0;
  uint64_t gc_woken = 0;
  uint64_t spec_reads = 0;     ///< dependency-horizon captures at acquire
  uint64_t deferred_acks = 0;  ///< commits parked on the settlement queue
  double log_pct = 0;
};

/// A loaded workload paired with the database it runs against.
struct PaperWorkload {
  std::string label;
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;
};

WorkloadSample RunWorkloadPoint(PaperWorkload& pw, const char* config,
                                int agents, const BenchArgs& args) {
  const DriverResult r =
      RunWorkload(*pw.db, *pw.workload, WindowOptions(args, agents));

  WorkloadSample s;
  s.workload = pw.label;
  s.config = config;
  s.agents = agents;
  s.tps = r.tps;
  s.commits = r.commits;
  s.user_aborts = r.user_aborts;
  s.deadlock_aborts = r.deadlock_aborts;
  s.lock_waits = r.counters.Get(Counter::kLockWaits);
  s.early_release = r.counters.Get(Counter::kTxnEarlyRelease);
  s.resv_retries = r.counters.Get(Counter::kLogResvRetries);
  s.gc_woken = r.counters.Get(Counter::kLogDurableWaits);
  s.spec_reads = r.counters.Get(Counter::kTxnSpecReads);
  s.deferred_acks = r.counters.Get(Counter::kTxnDeferredAcks);
  s.log_pct = ComputeBreakdown(r.profile).log_pct;
  return s;
}

/// A fresh database + loaded workload with the commit pipeline configured
/// as "legacy" (locks held until durable), "decentralized" (the defaults:
/// ELR + synchronous horizon waits) or "speculative" (decentralized +
/// asynchronous commit dependencies — commits park deferred acks instead
/// of stalling).
std::unique_ptr<PaperWorkload> MakeConfigured(const char* which,
                                              const char* config, bool sli,
                                              bool quick) {
  DatabaseOptions o = BenchDbOptions(sli);
  o.log.simulated_io_delay_us = kLogIoDelayUs;
  if (std::strcmp(config, "legacy") == 0) {
    o.txn.early_lock_release = false;
  } else if (std::strcmp(config, "speculative") == 0) {
    o.txn.speculative_reads = true;
  }
  auto pw = std::make_unique<PaperWorkload>();
  pw->label = which;
  pw->db = std::make_unique<Database>(o);
  for (const RosterEntry& e : PaperRoster(quick)) {
    if (e.label == which) pw->workload = e.make();
  }
  pw->workload->Load(*pw->db);
  return pw;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  const char* kWorkloads[] = {"TPC-B", "NDBB-Mix"};

  std::vector<int> agent_ladder = args.quick ? std::vector<int>{1, 2, 4}
                                             : std::vector<int>{1, 2, 4, 8};
  if (args.max_threads > 0) {
    std::erase_if(agent_ladder, [&](int t) { return t > args.max_threads; });
    if (agent_ladder.empty()) agent_ladder = {args.max_threads};
  }

  // ---- Section 1: raw log append, per-record vs batched ---------------------
  // 96-byte payloads (the historical rows) and 16-byte "tiny" payloads,
  // where the 32-byte header + per-record seal dominate and the batched
  // path's kBatchSeal envelopes amortize the checksum across whole runs.
  const double append_window = args.quick ? 0.2 : 1.0;
  constexpr uint32_t kBatchedRecords = 32;
  std::printf("== raw log append throughput (records/s) ==\n");
  TablePrinter log_table({"mode", "threads", "payload", "appends/s", "MB/s",
                          "resv_retries", "rec/batch"});
  std::vector<LogAppendSample> log_samples;
  // Each row is the median of kReps windows: single short windows of this
  // loop swing 2-4x between back-to-back runs.
  const auto add_log_row = [&](const char* label, int threads,
                               uint32_t payload_bytes,
                               uint32_t batch_records) {
    std::vector<LogAppendSample> windows;
    for (int rep = 0; rep < kReps; ++rep) {
      windows.push_back(RunLogAppend(label, threads, append_window,
                                     payload_bytes, batch_records));
    }
    const MedianSpread<LogAppendSample> spread =
        MedianOf(std::move(windows),
                 [](const LogAppendSample& w) { return w.appends_per_s; });
    LogAppendSample s = spread.median;
    s.appends_per_s_min = spread.min;
    s.appends_per_s_max = spread.max;
    log_samples.push_back(s);
    log_table.Row({s.mode, Fmt("%d", s.threads), Fmt("%u", s.payload_bytes),
                   Fmt("%.0f", s.appends_per_s), Fmt("%.1f", s.mb_per_s),
                   Fmt("%llu",
                       static_cast<unsigned long long>(s.resv_retries)),
                   Fmt("%.1f", s.records_per_batch)});
  };
  for (int threads : agent_ladder) {
    add_log_row("reserve", threads, 96, 0);
  }
  for (int threads : agent_ladder) {
    add_log_row("batched", threads, 96, kBatchedRecords);
  }
  for (int threads : agent_ladder) {
    add_log_row("reserve_tiny", threads, 16, 0);
  }
  for (int threads : agent_ladder) {
    add_log_row("batched_tiny", threads, 16, kBatchedRecords);
  }
  const auto best_of = [&](const char* mode) {
    double best = 0;
    for (const LogAppendSample& s : log_samples) {
      if (std::strcmp(s.mode, mode) == 0) {
        best = std::max(best, s.appends_per_s);
      }
    }
    return best;
  };
  std::printf("# raw append peak (96 B): batched/per-record = %.2fx "
              "(%.0f vs %.0f appends/s)\n",
              best_of("batched") / best_of("reserve"), best_of("batched"),
              best_of("reserve"));
  std::printf("# raw append peak (16 B tiny): batched/per-record = %.2fx "
              "(%.0f vs %.0f appends/s)\n",
              best_of("batched_tiny") / best_of("reserve_tiny"),
              best_of("batched_tiny"), best_of("reserve_tiny"));

  // ---- Section 2: commit pipeline, legacy vs decentralized vs speculative --
  std::printf("\n== commit pipeline (%llu us log device, SLI on) ==\n",
              static_cast<unsigned long long>(kLogIoDelayUs));
  TablePrinter pipe_table({"workload", "pipeline", "agents", "tps",
                           "lock_waits", "gc_woken", "deferred_acks"});
  std::vector<WorkloadSample> pipe_samples;
  for (const char* wl : kWorkloads) {
    for (const char* config : {"legacy", "decentralized", "speculative"}) {
      std::unique_ptr<PaperWorkload> pw =
          MakeConfigured(wl, config, /*sli=*/true, args.quick);
      for (int agents : agent_ladder) {
        const WorkloadSample s = RunWorkloadPoint(*pw, config, agents, args);
        pipe_samples.push_back(s);
        pipe_table.Row(
            {s.workload, s.config, Fmt("%d", s.agents), Fmt("%.0f", s.tps),
             Fmt("%llu", static_cast<unsigned long long>(s.lock_waits)),
             Fmt("%llu", static_cast<unsigned long long>(s.gc_woken)),
             Fmt("%llu", static_cast<unsigned long long>(s.deferred_acks))});
      }
    }
  }

  // ---- Section 3: SLI off/on on the new pipeline ---------------------------
  std::printf("\n== SLI matrix (decentralized pipeline) ==\n");
  TablePrinter sli_table({"workload", "sli", "agents", "tps", "commits",
                          "early_rel"});
  std::vector<WorkloadSample> sli_samples;
  for (const char* wl : kWorkloads) {
    for (const bool sli : {false, true}) {
      const char* config = sli ? "sli_on" : "sli_off";
      std::unique_ptr<PaperWorkload> pw =
          MakeConfigured(wl, "decentralized", sli, args.quick);
      for (int agents : agent_ladder) {
        const WorkloadSample s = RunWorkloadPoint(*pw, config, agents, args);
        sli_samples.push_back(s);
        sli_table.Row(
            {s.workload, sli ? "on" : "off", Fmt("%d", s.agents),
             Fmt("%.0f", s.tps),
             Fmt("%llu", static_cast<unsigned long long>(s.commits)),
             Fmt("%llu", static_cast<unsigned long long>(s.early_release))});
      }
    }
  }

  // Headlines: best multi-agent throughput, decentralized over legacy and
  // speculative over plain ELR (the read-mostly gap the commit-dependency
  // machinery exists to close).
  for (const char* wl : kWorkloads) {
    double best_legacy = 0, best_elr = 0, best_spec = 0;
    for (const WorkloadSample& s : pipe_samples) {
      if (s.workload != wl || s.agents < 2) continue;
      if (s.config == "legacy") best_legacy = std::max(best_legacy, s.tps);
      if (s.config == "decentralized") best_elr = std::max(best_elr, s.tps);
      if (s.config == "speculative") best_spec = std::max(best_spec, s.tps);
    }
    if (best_legacy > 0) {
      std::printf("# %s multi-agent peak: decentralized/legacy = %.2fx "
                  "(%.0f vs %.0f tps)\n",
                  wl, best_elr / best_legacy, best_elr, best_legacy);
    }
    if (best_elr > 0 && best_spec > 0) {
      std::printf("# %s multi-agent peak: speculative/ELR = %.2fx "
                  "(%.0f vs %.0f tps)\n",
                  wl, best_spec / best_elr, best_spec, best_elr);
    }
  }

  const auto emit_workload_samples = [](JsonWriter& json,
                                        const std::vector<WorkloadSample>& v) {
    for (const WorkloadSample& s : v) {
      json.BeginObject();
      json.Key("workload").Value(s.workload);
      json.Key("config").Value(s.config);
      json.Key("sli").Value(s.config != "sli_off");
      json.Key("agents").Value(s.agents);
      json.Key("tps").Value(s.tps);
      json.Key("commits").Value(s.commits);
      json.Key("user_aborts").Value(s.user_aborts);
      json.Key("deadlock_aborts").Value(s.deadlock_aborts);
      json.Key("lock_waits").Value(s.lock_waits);
      json.Key("early_release_commits").Value(s.early_release);
      json.Key("log_resv_retries").Value(s.resv_retries);
      json.Key("gc_waiters_woken").Value(s.gc_woken);
      json.Key("spec_reads").Value(s.spec_reads);
      json.Key("deferred_acks").Value(s.deferred_acks);
      json.Key("log_pct").Value(s.log_pct);
      json.EndObject();
    }
  };

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("macro_workloads");
  json.Key("quick").Value(args.quick);
  json.Key("log_io_delay_us").Value(kLogIoDelayUs);
  json.Key("log_append").BeginArray();
  for (const LogAppendSample& s : log_samples) {
    json.BeginObject();
    json.Key("mode").Value(s.mode);
    json.Key("threads").Value(s.threads);
    json.Key("payload_bytes").Value(static_cast<uint64_t>(s.payload_bytes));
    json.Key("appends_per_s").Value(s.appends_per_s);
    json.Key("appends_per_s_min").Value(s.appends_per_s_min);
    json.Key("appends_per_s_max").Value(s.appends_per_s_max);
    json.Key("mb_per_s").Value(s.mb_per_s);
    json.Key("resv_retries").Value(s.resv_retries);
    json.Key("batch_appends").Value(s.batch_appends);
    json.Key("records_per_batch").Value(s.records_per_batch);
    json.EndObject();
  }
  json.EndArray();
  json.Key("commit_pipeline").BeginArray();
  emit_workload_samples(json, pipe_samples);
  json.EndArray();
  json.Key("workloads").BeginArray();
  emit_workload_samples(json, sli_samples);
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
