// Client benchmark of the slidb Database facade.
//
//   clientbench --workload <tm1_read|tpcb|ndbb_open> --seed N --seconds S
//               --trace <0|1> [--spans-out FILE]
//
// Sets the database up three times (set-up time is their median). Each
// instance gets a 0.5 s warm-up and a third of the S-second measured window,
// run with no tracing and no profiler installed; the end-to-end figures come
// from every transaction of the three windows, except the p99, which comes
// from the quarter of the windows' slices the host disturbed least (see
// Main). With --trace 1 the last instance then runs a traced window of S
// seconds, in which every Database call is timed as a span and the
// program's own stats surfaces are read. After each instance's clients stop, the output checks run.
// Prints one line per metric, then one JSON object as the last line of
// stdout.
//
// Exit status: 0 when every check passed, 1 when a check failed (the JSON
// line then says "correct": false), 2 on bad arguments or set-up failure.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "clientbench/src/bodies.h"
#include "clientbench/src/client.h"
#include "clientbench/src/measure.h"
#include "src/engine/database.h"
#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/time_util.h"
#include "src/workload/tm1.h"
#include "src/workload/tpcb.h"

namespace clientbench {
namespace {

// ---- fixed inputs ----------------------------------------------------------
// Every size, rate and count below is a constant of the benchmark; only the
// seed varies between runs.

/// Client sessions, one thread each. The host has 4 CPUs: the fourth is
/// left to the engine's log flusher and deadlock detector threads.
constexpr int kAgents = 3;
constexpr uint64_t kTm1Subscribers = 20'000;
constexpr slidb::TpcbOptions kTpcb{16, 10, 10'000};
/// Buffer pool that holds every page of tm1_read and tpcb (64 MiB).
constexpr size_t kFramesFit = 8192;
/// Buffer pool of ndbb_open (1 MiB), several times smaller than its data.
constexpr size_t kFramesSmall = 128;
/// Offered load of ndbb_open, about a third of the TM1 mix's closed-loop
/// capacity with this engine configuration on a 4-CPU host.
constexpr double kNdbbOfferedTps = 10'000;
constexpr int kSetupReps = 3;
constexpr double kWarmupS = 0.5;
/// Attempts per transaction before an engine failure is final.
constexpr int kMaxAttempts = 16;
constexpr size_t kTm1Types = 7;

enum class Kind : uint8_t { kTm1Read, kTpcb, kNdbbOpen };

struct WorkloadDef {
  const char* name;
  Kind kind;
  size_t frames;
  double offered_tps;  ///< 0 = closed loop
};

// Why each workload exists (see also README.md):
//  tm1_read  - the paper's headline regime: short read-only transactions
//              whose cost is mostly the lock manager and SLI; the log does
//              nothing (read-only commits append no record).
//  tpcb      - the commit and log path: every transaction updates three rows,
//              inserts one and waits for its commit record to be durable.
//  ndbb_open - the users' view: the full TM1 mix arriving on a fixed Poisson
//              schedule, latency from scheduled arrival, with data several
//              times larger than the buffer pool. Run by hand only: its p99
//              follows the host's CPU steal too closely to gate a change
//              (README.md), so BENCHMARK.json does not list it.
constexpr WorkloadDef kWorkloads[] = {
    {"tm1_read", Kind::kTm1Read, kFramesFit, 0},
    {"tpcb", Kind::kTpcb, kFramesFit, 0},
    {"ndbb_open", Kind::kNdbbOpen, kFramesSmall, kNdbbOfferedTps},
};

/// The one engine configuration every workload runs.
slidb::DatabaseOptions EngineOptions(size_t frames) {
  slidb::DatabaseOptions o;
  slidb::ApplySliMode(o.lock, slidb::SliMode::kOn);
  o.lock.sim_queue_work_ns = 0;
  o.lock.enable_deadlock_detector = true;
  o.txn.early_lock_release = true;
  o.txn.speculative_reads = false;  // Commit()'s return is the durable ack
  o.txn.txn_deadline_us = 0;
  o.log.flush_interval_us = 10;
  o.log.simulated_io_delay_us = 100;
  o.buffer.num_frames = frames;
  return o;  // governor off: GovernorOptions default
}

enum Phase : int { kWarmup = 0, kMeasure, kTraced, kStop, kNumPhases };

struct PhaseStats {
  LatencyHistogram latency;   ///< start to final outcome
  LatencyHistogram queue;     ///< scheduled arrival to dispatch
  LatencyHistogram lateness;  ///< how late the generator dispatched
  uint64_t done = 0;          ///< transactions with a final outcome
  uint64_t attempts = 0;
  uint64_t failures = 0;      ///< engine failures (retried attempts)
};

/// One half-second slice of a measured window (see Main for how the
/// slices give the p99).
struct Slice {
  LatencyHistogram latency;
  uint64_t done = 0;
};

struct Session {
  std::unique_ptr<Client> client;
  std::array<PhaseStats, kNumPhases> phase;
  std::vector<Slice> slices;  ///< of the measured window, by completion
  // Tallies of every phase, for the output checks.
  std::array<uint64_t, kTm1Types> tm1_done{};
  std::array<uint64_t, kTm1Types> tm1_rolled_back{};
  int64_t tpcb_delta = 0;
  uint64_t tpcb_commits = 0;
  uint64_t errors = 0;
  uint64_t exhausted = 0;
  // Traced-window snapshots of the agent's own stats surfaces.
  slidb::ProfileSnapshot profile_begin, profile_end;
  slidb::CounterSet counters_begin, counters_end;
};

struct Args {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) a->def = &w;
      }
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && a->seconds > 0 &&
                     a->seconds <= 600;
    } else if (key == "--trace") {
      a->trace = std::strcmp(val, "1") == 0;
      have_trace = a->trace || std::strcmp(val, "0") == 0;
    } else if (key == "--spans-out") {
      a->spans_out = val;
    } else {
      return false;
    }
  }
  return a->def != nullptr && have_seed && have_seconds && have_trace;
}

std::unique_ptr<slidb::Database> SetUp(const WorkloadDef& def) {
  auto db = std::make_unique<slidb::Database>(EngineOptions(def.frames));
  if (def.kind == Kind::kTpcb) {
    slidb::TpcbWorkload(kTpcb).Load(*db);
  } else {
    slidb::Tm1Workload(slidb::Tm1Options{kTm1Subscribers}).Load(*db);
  }
  return db;
}

uint64_t DataPages(slidb::Database& db) {
  uint64_t pages = 0;
  for (size_t t = 0; t < db.catalog().num_tables(); ++t) {
    pages += db.catalog().table(static_cast<slidb::TableId>(t))
                 .heap->page_count();
  }
  return pages;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// State the client threads of one database instance share.
struct RunContext {
  const WorkloadDef* def;
  uint64_t seed;
  Tm1Schema tm1{};
  TpcbSchema tpcb{};
  std::atomic<int> phase{kWarmup};
  uint64_t measure_start_ns = 0;  ///< written before phase turns kMeasure
  uint64_t slice_ns = 0;
  // Open loop: arrival times (ns after start_ns) of one Poisson stream at
  // the offered rate, drawn from the seed before the run. A free agent
  // takes the next arrival once it is due, so the sessions form one FIFO
  // queue with three servers, and a stalled session delays only its own
  // transaction.
  uint64_t start_ns = 0;
  std::vector<uint64_t> schedule;
  std::atomic<size_t> next_arrival{0};
};

std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate,
                                      double seconds) {
  slidb::Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  uint64_t t = 0;
  while (static_cast<double>(t) < seconds * 1e9) {
    t += PoissonGapNs(rng.NextDouble(), rate);
    out.push_back(t);
  }
  return out;
}

/// One client thread: closed loop, or open loop on the shared schedule.
void ClientLoop(RunContext& rc, Session& s, uint32_t index) {
  Client& client = *s.client;
  slidb::AgentContext& agent = client.agent();
  slidb::ScopedCounterSet counter_scope(&agent.counters());
  std::optional<slidb::ScopedThreadProfile> profile_scope;

  slidb::Rng session_rng(rc.seed * 0x9e3779b97f4a7c15ULL + index);
  const bool open_loop = rc.def->offered_tps > 0;
  const Tm1Mix mix =
      rc.def->kind == Kind::kTm1Read ? Tm1Mix::kReadOnly : Tm1Mix::kFull;

  uint64_t free_ns = 0;  // open loop: when this session became free
  int local = kWarmup;
  for (;;) {
    const int p = rc.phase.load(std::memory_order_acquire);
    if (p != local) {
      if (local == kTraced) {
        agent.profile().Flush();
        s.profile_end = agent.profile().Snapshot();
        s.counters_end = agent.counters();
        client.set_tracing(false);
        profile_scope.reset();
      }
      if (p == kTraced) {
        profile_scope.emplace(&agent.profile());
        s.profile_begin = agent.profile().Snapshot();
        s.counters_begin = agent.counters();
        client.set_tracing(true);
      }
      if (p == kStop) break;
      local = p;
    }

    uint64_t start = slidb::NowNanos();
    uint64_t scheduled = start;
    slidb::Rng* input_rng = &session_rng;
    slidb::Rng arrival_rng;
    if (open_loop) {
      if (free_ns == 0) free_ns = start;
      // A free session takes the next arrival only once it is due, so a
      // session that is descheduled while it waits holds no arrival back
      // from the others. It spins rather than sleeps: waking a sleeping
      // thread on a virtual CPU can take tens of microseconds or more, and
      // that delay would count as latency.
      size_t next = rc.next_arrival.load(std::memory_order_relaxed);
      if (next >= rc.schedule.size()) {
        ++s.errors;  // the schedule is sized to outlast the run
        break;
      }
      scheduled = rc.start_ns + rc.schedule[next];
      if (start < scheduled ||
          !rc.next_arrival.compare_exchange_strong(
              next, next + 1, std::memory_order_relaxed)) {
        CpuRelax();
        continue;  // re-check the phase and the clock
      }
      // Inputs belong to the arrival, not to the session that serves it.
      arrival_rng.Seed(rc.seed * 0x9e3779b97f4a7c15ULL ^
                       (next * 0xbf58476d1ce4e5b9ULL));
      input_rng = &arrival_rng;
    }

    PhaseStats& ps = s.phase[local];
    client.BeginTxn();
    Outcome out = Outcome::kError;
    slidb::Tm1TxnType type{};
    TpcbInput tpcb_in;
    if (rc.def->kind == Kind::kTpcb) {
      tpcb_in = DrawTpcb(*input_rng, kTpcb);
    }
    Tm1Input tm1_in;
    if (rc.def->kind != Kind::kTpcb) {
      tm1_in = DrawTm1(*input_rng, mix, kTm1Subscribers);
      type = tm1_in.type;
    }
    int attempt = 0;
    for (;;) {
      ++attempt;
      ++ps.attempts;
      out = rc.def->kind == Kind::kTpcb ? RunTpcb(client, rc.tpcb, tpcb_in)
                                        : RunTm1(client, rc.tm1, tm1_in);
      if (out != Outcome::kRetry) break;
      ++ps.failures;
      if (attempt >= kMaxAttempts) break;
    }
    const uint64_t done = slidb::NowNanos();
    client.EndTxn();

    switch (out) {
      case Outcome::kCommitted:
      case Outcome::kRolledBack:
        ++ps.done;
        ps.latency.Add(done - scheduled);
        if (local == kMeasure) {
          Slice& slice = s.slices[std::min<size_t>(
              (done - rc.measure_start_ns) / rc.slice_ns,
              s.slices.size() - 1)];
          ++slice.done;
          slice.latency.Add(done - scheduled);
        }
        if (open_loop) {
          ps.queue.Add(start - scheduled);
          ps.lateness.Add(start - std::max(scheduled, free_ns));
        }
        break;
      case Outcome::kRetry:
        ++s.exhausted;
        break;
      case Outcome::kError:
        ++s.errors;
        break;
    }
    free_ns = 0;
    if (rc.def->kind == Kind::kTpcb) {
      if (out == Outcome::kCommitted) {
        s.tpcb_delta += tpcb_in.delta;
        ++s.tpcb_commits;
      }
    } else if (out == Outcome::kCommitted || out == Outcome::kRolledBack) {
      const size_t t = static_cast<size_t>(type);
      ++s.tm1_done[t];
      if (out == Outcome::kRolledBack) ++s.tm1_rolled_back[t];
    }
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  int64_t samples;  ///< sample count behind a percentile, -1 otherwise
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Quantile q of `v`, interpolating linearly between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(s * 1e6)));
}

/// Time the hypervisor gave this machine's CPUs to something else while
/// they had work: the "steal" column of /proc/stat, in clock ticks summed
/// over CPUs. 0 where the kernel does not report it.
uint64_t HostStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

bool WriteSpans(const std::string& path, const std::vector<Session>& sessions) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // Format: magic, span count, then per span: txn u64, start_ns u64,
  // end_ns u64, parent i32 (index within the transaction's spans, -1 for
  // the transaction), name u8 (SpanName order, see measure.h); little
  // endian, packed.
  uint64_t count = 0;
  for (const Session& s : sessions) count += s.client->kept_spans().size();
  bool ok = std::fwrite("CBSPANS1", 1, 8, f) == 8 &&
            std::fwrite(&count, sizeof(count), 1, f) == 1;
  for (const Session& s : sessions) {
    const std::vector<Span>& spans = s.client->kept_spans();
    for (size_t i = 0; ok && i < spans.size(); ++i) {
      uint8_t rec[29];
      std::memcpy(rec, &spans[i].txn, 8);
      std::memcpy(rec + 8, &spans[i].start_ns, 8);
      std::memcpy(rec + 16, &spans[i].end_ns, 8);
      std::memcpy(rec + 24, &spans[i].parent, 4);
      rec[28] = static_cast<uint8_t>(spans[i].name);
      ok = std::fwrite(rec, sizeof(rec), 1, f) == 1;
    }
  }
  return std::fclose(f) == 0 && ok;
}

/// Everything a run reports, accumulated over its database instances.
struct Report {
  std::vector<std::string> failed_checks;
  std::vector<double> setup_s;
  std::vector<double> slice_tps, slice_p99;
  std::vector<uint64_t> slice_n, slice_steal;
  double slice_s = 0;
  PhaseStats measured;  ///< every instance's untraced window
  double measure_s = 0;
  std::array<uint64_t, kTm1Types> tm1_done{};
  std::array<uint64_t, kTm1Types> tm1_rolled_back{};
  uint64_t data_pages = 0;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  void Add(const std::string& name, double value, const char* unit,
           int64_t samples = -1) {
    metrics.push_back(
        Metric{name, std::isfinite(value) ? value : 0.0, unit, samples});
  }
};

/// After a TPC-B run: every balance column and the history deltas sum to
/// the total the clients committed, with one history row per commit.
void CheckTpcb(slidb::Database& db, const TpcbSchema& schema,
               const std::vector<Session>& sessions, Report* rep) {
  int64_t client_total = 0;
  uint64_t client_commits = 0;
  for (const Session& s : sessions) {
    client_total += s.tpcb_delta;
    client_commits += s.tpcb_commits;
  }
  const auto sum = [&](slidb::TableId t, auto rec_type) {
    using Rec = decltype(rec_type);
    int64_t total = 0;
    uint64_t rows = 0;
    db.catalog().table(t).heap->Scan(
        [&](slidb::Rid, std::span<const uint8_t> bytes) {
          Rec r;
          std::memcpy(&r, bytes.data(), std::min(bytes.size(), sizeof(r)));
          if constexpr (std::is_same_v<Rec, slidb::tpcb::History>) {
            total += r.delta;
          } else {
            total += r.balance;
          }
          ++rows;
        });
    return std::make_pair(total, rows);
  };
  const auto branch = sum(schema.branch, slidb::tpcb::Branch{});
  const auto teller = sum(schema.teller, slidb::tpcb::Teller{});
  const auto account = sum(schema.account, slidb::tpcb::Account{});
  const auto history = sum(schema.history, slidb::tpcb::History{});
  rep->Check(branch.first == client_total && teller.first == client_total &&
                 account.first == client_total &&
                 history.first == client_total,
             "TPC-B deltas disagree (client " + std::to_string(client_total) +
                 ", branch " + std::to_string(branch.first) + ", teller " +
                 std::to_string(teller.first) + ", account " +
                 std::to_string(account.first) + ", history " +
                 std::to_string(history.first) + ")");
  rep->Check(history.second == client_commits,
             "history rows " + std::to_string(history.second) +
                 " != committed transactions " +
                 std::to_string(client_commits));
}

/// Rollback rates of the read-only TM1 types over the whole run. They
/// follow from the inputs and the loaded data alone, so concurrency cannot
/// move them:
///  - GetAccessData: access-info type t exists for 10 of 16 (count, t)
///    pairs, so 37.5% roll back, as the TM1 specification says.
///  - GetNewDestination: success needs the facility (10/16), active (0.85),
///    and a scanned forwarding slot (occupied with p = 1/2 by the loader)
///    ending after end_time (0.2977 averaged over the inputs), so 84.2% roll
///    back. The specification's nominal figure is about 76%; the loader's
///    forwarding density, not the transaction, makes the difference.
void CheckTm1Rates(Report* rep) {
  struct Expect {
    slidb::Tm1TxnType type;
    const char* name;
    double rate;
    double nominal;
  };
  constexpr Expect kExpect[] = {
      {slidb::Tm1TxnType::kGetSubscriberData, "GetSubscriberData", 0.0, 0.0},
      {slidb::Tm1TxnType::kGetNewDestination, "GetNewDestination", 0.842,
       0.76},
      {slidb::Tm1TxnType::kGetAccessData, "GetAccessData", 0.375, 0.375},
  };
  constexpr double kTolerance = 0.03;
  for (const Expect& e : kExpect) {
    const size_t t = static_cast<size_t>(e.type);
    const uint64_t n = rep->tm1_done[t];
    const double rate =
        Ratio(static_cast<double>(rep->tm1_rolled_back[t]),
              static_cast<double>(n));
    std::printf("check %s rollback rate %.4f (expected %.3f, TM1 nominal "
                "%.3f, n=%llu)\n",
                e.name, rate, e.rate, e.nominal,
                static_cast<unsigned long long>(n));
    rep->Check(n >= 1000 && std::fabs(rate - e.rate) <= kTolerance,
               std::string(e.name) + " rollback rate " +
                   std::to_string(rate) + " outside " +
                   std::to_string(e.rate) + " +- " +
                   std::to_string(kTolerance));
  }
}

/// Engine-wide stats read at the edges of the traced window.
struct EngineStats {
  uint64_t ns = 0;
  slidb::LogStats log;
  slidb::BufferPoolStats buffer;

  static EngineStats Read(slidb::Database& db) {
    return {slidb::NowNanos(), db.log_manager().Stats(),
            db.buffer_pool().Stats()};
  }
};

/// Per-layer metrics of the traced window.
/// `untraced` holds the same instance's untraced window of `untraced_s`.
void AddLayerMetrics(const WorkloadDef& def,
                     const std::vector<Session>& sessions,
                     const EngineStats& begin, const EngineStats& end,
                     const PhaseStats& untraced, double untraced_s,
                     Report* rep) {
  PhaseStats traced;
  slidb::ProfileSnapshot prof;
  slidb::CounterSet ctr;
  std::array<LatencyHistogram, kNumSpanNames> self;
  uint64_t txn_span_ns = 0, txn_self_ns = 0;
  for (const Session& s : sessions) {
    const PhaseStats& p = s.phase[kTraced];
    traced.done += p.done;
    traced.latency.Merge(p.latency);
    traced.queue.Merge(p.queue);
    traced.lateness.Merge(p.lateness);
    prof += s.profile_end - s.profile_begin;
    ctr.Merge(s.counters_end.Delta(s.counters_begin));
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      self[i].Merge(s.client->self_time(static_cast<SpanName>(i)));
    }
    txn_span_ns += s.client->txn_span_ns();
    txn_self_ns += s.client->txn_self_ns();
  }
  const double traced_s = static_cast<double>(end.ns - begin.ns) / 1e9;
  const double txns = static_cast<double>(traced.done);
  const auto get = [&](slidb::Counter c) {
    return static_cast<double>(ctr.Get(c));
  };
  const auto cpu_ns = [&](slidb::Component c) {
    const size_t i = static_cast<size_t>(c);
    return slidb::CyclesToNanos(prof.work[i] + prof.contention[i]);
  };
  const auto add_pct = [&](const std::string& name,
                           std::initializer_list<SpanName> names, double q) {
    LatencyHistogram h;
    for (SpanName n : names) h.Merge(self[static_cast<size_t>(n)]);
    rep->Add(name, h.Percentile(q) / 1e3, "us",
             static_cast<int64_t>(h.count()));
  };

  add_pct("engine.row_read_us.p50", {SpanName::kRead}, 0.50);
  add_pct("engine.row_read_us.p99", {SpanName::kRead}, 0.99);
  add_pct("engine.row_write_us.p50",
          {SpanName::kUpdate, SpanName::kInsert, SpanName::kDelete}, 0.50);
  add_pct("txn.begin_us.p50", {SpanName::kBegin}, 0.50);
  add_pct("txn.commit_us.p50", {SpanName::kCommit}, 0.50);
  add_pct("txn.commit_us.p99", {SpanName::kCommit}, 0.99);
  rep->Add("txn.self_frac",
           Ratio(static_cast<double>(txn_self_ns),
                 static_cast<double>(txn_span_ns)),
           "fraction");

  // Engine CPU: every component but the client's own code, so open-loop
  // idle time does not dilute the shares.
  double engine_cpu = 0;
  for (size_t i = 0; i < slidb::kNumComponents; ++i) {
    if (i == static_cast<size_t>(slidb::Component::kApp)) continue;
    engine_cpu += cpu_ns(static_cast<slidb::Component>(i));
  }
  const size_t lm = static_cast<size_t>(slidb::Component::kLockManager);
  const size_t lg = static_cast<size_t>(slidb::Component::kLog);
  const double inherited = get(slidb::Counter::kSliInherited);
  const double cangrant = get(slidb::Counter::kCanGrantFast) +
                          get(slidb::Counter::kCanGrantSlow);
  add_pct("lock.row_x_us.p50", {SpanName::kLockRowX}, 0.50);
  rep->Add("lock.requests_per_txn",
           Ratio(get(slidb::Counter::kLockRequests), txns), "count");
  rep->Add("lock.cache_hit_ratio",
           Ratio(get(slidb::Counter::kLockCacheHits),
                 get(slidb::Counter::kLockCacheHits) +
                     get(slidb::Counter::kLockRequests)),
           "fraction");
  rep->Add("lock.waits_per_ktxn",
           Ratio(1e3 * get(slidb::Counter::kLockWaits), txns), "count");
  rep->Add("lock.cangrant_slow_ratio",
           Ratio(get(slidb::Counter::kCanGrantSlow), cangrant), "fraction");
  rep->Add("lock.cpu_ns_per_txn",
           Ratio(cpu_ns(slidb::Component::kLockManager), txns), "ns");
  rep->Add("lock.contention_frac",
           Ratio(slidb::CyclesToNanos(prof.contention[lm]), engine_cpu),
           "fraction");
  rep->Add("lock.blocked_ns_per_txn",
           Ratio(slidb::CyclesToNanos(prof.blocked[lm]), txns), "ns");
  rep->Add("lock.sli_inherited_per_txn", Ratio(inherited, txns), "count");
  rep->Add("lock.sli_reclaim_ratio",
           Ratio(get(slidb::Counter::kSliReclaimed), inherited), "fraction");
  rep->Add("lock.sli_invalidated_ratio",
           Ratio(get(slidb::Counter::kSliInvalidated), inherited),
           "fraction");
  rep->Add("lock.sli_cpu_ns_per_txn",
           Ratio(cpu_ns(slidb::Component::kSli), txns), "ns");

  // Commits that appended a commit record (early lock release counts
  // exactly those under this configuration).
  const double log_commits = get(slidb::Counter::kTxnEarlyRelease);
  const double flushes =
      static_cast<double>(end.log.flushes - begin.log.flushes);
  rep->Add("log.bytes_per_commit",
           Ratio(static_cast<double>(end.log.appended_bytes -
                                     begin.log.appended_bytes),
                 log_commits),
           "B");
  rep->Add("log.commits_per_flush", Ratio(log_commits, flushes), "count");
  rep->Add("log.flushes_per_s", Ratio(flushes, traced_s), "1/s");
  rep->Add("log.blocked_ns_per_txn",
           Ratio(slidb::CyclesToNanos(prof.blocked[lg]), txns), "ns");
  rep->Add("log.cpu_ns_per_txn", Ratio(cpu_ns(slidb::Component::kLog), txns),
           "ns");
  rep->Add("log.resv_retries_per_ktxn",
           Ratio(1e3 * get(slidb::Counter::kLogResvRetries), txns), "count");

  add_pct("storage.index_us.p50",
          {SpanName::kIndexLookup, SpanName::kIndexScan,
           SpanName::kIndexInsert, SpanName::kIndexRemove},
          0.50);
  rep->Add("storage.cpu_ns_per_txn",
           Ratio(cpu_ns(slidb::Component::kStorage), txns), "ns");
  rep->Add("storage.btree_restarts_per_ktxn",
           Ratio(1e3 * get(slidb::Counter::kBtreeRestarts), txns), "count");

  const double fixes =
      static_cast<double>(end.buffer.fixes - begin.buffer.fixes);
  rep->Add("buffer.fixes_per_txn", Ratio(fixes, txns), "count");
  rep->Add("buffer.miss_ratio",
           Ratio(static_cast<double>(end.buffer.misses - begin.buffer.misses),
                 fixes),
           "fraction");
  rep->Add("buffer.evictions_per_ktxn",
           Ratio(1e3 * static_cast<double>(end.buffer.evictions -
                                           begin.buffer.evictions),
                 txns),
           "count");
  rep->Add("buffer.cpu_ns_per_txn",
           Ratio(cpu_ns(slidb::Component::kBuffer), txns), "ns");

  rep->Add("client.queue_us.p99", traced.queue.Percentile(0.99) / 1e3, "us",
           static_cast<int64_t>(traced.queue.count()));
  rep->Add("client.lateness_us.p99", traced.lateness.Percentile(0.99) / 1e3,
           "us", static_cast<int64_t>(traced.lateness.count()));
  // Closed loop, tracing costs throughput. Open loop, the schedule pins
  // throughput to the offered rate, so tracing shows as latency instead.
  const double traced_tps = Ratio(txns, traced_s);
  const double untraced_tps =
      Ratio(static_cast<double>(untraced.done), untraced_s);
  const double traced_p50 = traced.latency.Percentile(0.5);
  const double untraced_p50 = untraced.latency.Percentile(0.5);
  rep->Add("trace.overhead_frac",
           def.offered_tps > 0 ? 1.0 - Ratio(untraced_p50, traced_p50)
                               : 1.0 - Ratio(traced_tps, untraced_tps),
           "fraction");
  std::printf("traced window: %.0f tps, p50 %.2f us traced vs %.0f tps, "
              "p50 %.2f us untraced\n",
              traced_tps, traced_p50 / 1e3, untraced_tps, untraced_p50 / 1e3);
}

/// Measure one freshly loaded database: a warm-up, a measured window of
/// `measure_s` split into `num_slices` slices, and, when `traced_s` > 0, a
/// traced window of `traced_s`; then stop, drain and check. Returns false
/// when the schema cannot be resolved.
bool RunInstance(slidb::Database& db, const Args& args, uint64_t seed,
                 double measure_s, size_t num_slices, double traced_s,
                 Report* rep) {
  const WorkloadDef& def = *args.def;
  RunContext rc;
  rc.def = &def;
  rc.seed = seed;
  const bool resolved = def.kind == Kind::kTpcb ? ResolveTpcb(db, &rc.tpcb)
                                                : ResolveTm1(db, &rc.tm1);
  if (!resolved) return false;
  rep->data_pages = DataPages(db);

  rc.slice_ns = static_cast<uint64_t>(measure_s * 1e9 / num_slices);
  std::vector<Session> sessions(kAgents);
  for (uint32_t i = 0; i < kAgents; ++i) {
    sessions[i].slices.resize(num_slices);
    sessions[i].client =
        std::make_unique<Client>(db, i, seed * 7919 + i + 1);
  }
  if (def.offered_tps > 0) {
    rc.schedule = PoissonSchedule(seed, def.offered_tps,
                                  kWarmupS + measure_s + traced_s + 30);
  }

  // ---- run: warm-up, measured window, optional traced window ----
  rc.start_ns = slidb::NowNanos();
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kAgents; ++i) {
    threads.emplace_back(ClientLoop, std::ref(rc), std::ref(sessions[i]), i);
  }
  SleepSeconds(kWarmupS);
  // The host's steal is read at each slice boundary.
  std::vector<uint64_t> steal(num_slices);
  uint64_t steal_seen = HostStealTicks();
  rc.measure_start_ns = slidb::NowNanos();
  rc.phase.store(kMeasure, std::memory_order_release);
  for (size_t w = 0; w < num_slices; ++w) {
    const uint64_t until = rc.measure_start_ns + (w + 1) * rc.slice_ns;
    const uint64_t now = slidb::NowNanos();
    if (until > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    }
    const uint64_t ticks = HostStealTicks();
    steal[w] = ticks - std::min(ticks, steal_seen);
    steal_seen = ticks;
  }
  const EngineStats traced_begin = EngineStats::Read(db);
  EngineStats traced_end = traced_begin;
  if (traced_s > 0) {
    rc.phase.store(kTraced, std::memory_order_release);
    SleepSeconds(traced_s);
    traced_end = EngineStats::Read(db);
  }
  rc.phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // ---- drain and check ----
  uint64_t deferred = 0, errors = 0, exhausted = 0;
  for (Session& s : sessions) {
    s.client->agent().DrainDeferredAcks();
    const slidb::CounterSet& c = s.client->agent().counters();
    deferred += c.Get(slidb::Counter::kTxnDeferredAcks) +
                c.Get(slidb::Counter::kTxnDeadlineDeferredAcks);
    errors += s.errors;
    exhausted += s.exhausted;
  }
  slidb::LogManager& log = db.log_manager();
  for (int i = 0; i < 2000 && log.durable_lsn() != log.appended_lsn(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rep->Check(deferred == 0, "commits parked a deferred ack (" +
                                std::to_string(deferred) + ")");
  rep->Check(log.durable_lsn() == log.appended_lsn(),
             "durable_lsn " + std::to_string(log.durable_lsn()) +
                 " != appended_lsn " + std::to_string(log.appended_lsn()));
  rep->Check(errors == 0, "engine calls failed outside the specification (" +
                              std::to_string(errors) + ")");
  rep->Check(exhausted == 0, "transactions exhausted their retries (" +
                                 std::to_string(exhausted) + ")");
  if (def.kind == Kind::kTpcb) CheckTpcb(db, rc.tpcb, sessions, rep);

  // ---- accumulate ----
  PhaseStats measured;
  for (const Session& s : sessions) {
    const PhaseStats& p = s.phase[kMeasure];
    measured.latency.Merge(p.latency);
    measured.done += p.done;
    measured.attempts += p.attempts;
    measured.failures += p.failures;
    for (size_t t = 0; t < s.tm1_done.size(); ++t) {
      rep->tm1_done[t] += s.tm1_done[t];
      rep->tm1_rolled_back[t] += s.tm1_rolled_back[t];
    }
  }
  rep->measured.latency.Merge(measured.latency);
  rep->measured.done += measured.done;
  rep->measured.attempts += measured.attempts;
  rep->measured.failures += measured.failures;
  const double tps = Ratio(static_cast<double>(measured.done), measure_s);
  rep->measure_s += measure_s;
  rep->slice_s = static_cast<double>(rc.slice_ns) / 1e9;
  for (size_t w = 0; w < num_slices; ++w) {
    Slice slice;
    for (const Session& s : sessions) {
      slice.done += s.slices[w].done;
      slice.latency.Merge(s.slices[w].latency);
    }
    rep->slice_tps.push_back(static_cast<double>(slice.done) / rep->slice_s);
    rep->slice_p99.push_back(slice.latency.Percentile(0.99) / 1e3);
    rep->slice_n.push_back(slice.latency.count());
    rep->slice_steal.push_back(steal[w]);
  }
  if (def.offered_tps > 0) {
    rep->Check(std::fabs(tps - def.offered_tps) <= 0.05 * def.offered_tps,
               "open-loop throughput " + std::to_string(tps) +
                   " does not match the offered rate " +
                   std::to_string(def.offered_tps));
  }
  if (traced_s > 0) {
    AddLayerMetrics(def, sessions, traced_begin, traced_end, measured,
                    measure_s, rep);
    if (!args.spans_out.empty()) {
      rep->Check(WriteSpans(args.spans_out, sessions),
                 "cannot write spans to " + args.spans_out);
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: clientbench --workload <tm1_read|tpcb|ndbb_open> "
                 "--seed N --seconds S --trace <0|1> [--spans-out FILE]\n");
    return 2;
  }
  const WorkloadDef& def = *args.def;

  // Each set-up (Database construction plus load) gets its own share of the
  // measured window, cut into half-second slices. Throughput and p50 count
  // every transaction of the three windows. The p99 is the median of the
  // slices' p99s over the quarter of the slices with the least host steal: a
  // disturbance of the shared host (the hypervisor running a neighbour on
  // this machine's CPUs) lasts seconds to minutes and multiplies the p99
  // of every slice it touches, from about 380 us to 1-3 ms on tpcb, and it
  // can cover most of a run. The slices are chosen by the host's steal
  // alone, not by what they measured, so a stall of the program moves the
  // figure as it moves the median of all slices.
  const double measure_s = args.seconds / kSetupReps;
  const size_t num_slices =
      std::max<size_t>(1, static_cast<size_t>(measure_s * 2));
  Report rep;
  for (int inst = 0; inst < kSetupReps; ++inst) {
    const uint64_t t0 = slidb::NowNanos();
    std::unique_ptr<slidb::Database> db = SetUp(def);
    rep.setup_s.push_back(static_cast<double>(slidb::NowNanos() - t0) / 1e9);
    // The traced window, when asked for, runs on the last instance.
    const double traced_s =
        args.trace && inst == kSetupReps - 1 ? args.seconds : 0;
    const uint64_t seed = args.seed ^ (uint64_t(inst) * 0x9e3779b97f4a7c15ULL);
    if (!RunInstance(*db, args, seed, measure_s, num_slices, traced_s,
                     &rep)) {
      std::fprintf(stderr, "clientbench: schema names not found\n");
      return 2;
    }
  }
  if (def.kind != Kind::kTpcb) CheckTm1Rates(&rep);
  rep.Check(rep.measured.done > 0, "no transaction completed in the window");

  const std::string loop =
      def.offered_tps > 0
          ? "open loop at " + std::to_string(def.offered_tps) + " tps"
          : std::string("closed loop");
  std::printf("workload %s: %d agents, %s, buffer pool %zu frames (%.1f MiB), "
              "data %llu pages (%.1f MiB), seed %llu\n",
              def.name, kAgents, loop.c_str(), def.frames,
              def.frames * 8192.0 / (1 << 20),
              static_cast<unsigned long long>(rep.data_pages),
              rep.data_pages * 8192.0 / (1 << 20),
              static_cast<unsigned long long>(args.seed));
  std::printf("%zu slices of %.3f s: tps", rep.slice_tps.size(), rep.slice_s);
  for (double v : rep.slice_tps) std::printf(" %.0f", v);
  std::printf("; p99 us");
  for (double v : rep.slice_p99) std::printf(" %.1f", v);
  std::printf("; host steal ticks");
  for (uint64_t v : rep.slice_steal) {
    std::printf(" %llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
  std::vector<double> quiet_p99;
  uint64_t quiet_min_n = UINT64_MAX;
  for (size_t w : LeastStolen(rep.slice_steal,
                              (rep.slice_steal.size() + 3) / 4)) {
    quiet_p99.push_back(rep.slice_p99[w]);
    quiet_min_n = std::min(quiet_min_n, rep.slice_n[w]);
  }
  const LatencyHistogram& lat = rep.measured.latency;
  std::printf("measured windows: %llu transactions in %.3f s; latency us "
              "p50 %.2f p90 %.2f p99 %.2f p99.9 %.2f max %.2f\n",
              static_cast<unsigned long long>(rep.measured.done),
              rep.measure_s, lat.Percentile(0.5) / 1e3,
              lat.Percentile(0.9) / 1e3, lat.Percentile(0.99) / 1e3,
              lat.Percentile(0.999) / 1e3, lat.Percentile(1.0) / 1e3);

  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.Add("throughput_tps",
            Ratio(static_cast<double>(rep.measured.done), rep.measure_s),
            "1/s");
    rep.Add("latency_p50_us", lat.Percentile(0.50) / 1e3, "us",
            static_cast<int64_t>(lat.count()));
    rep.Add("latency_p99_us", Quantile(quiet_p99, 0.5), "us",
            static_cast<int64_t>(quiet_min_n));
    rep.Add("ok_frac",
            1.0 - Ratio(static_cast<double>(rep.measured.failures),
                        static_cast<double>(rep.measured.attempts)),
            "fraction");
    rep.Add("setup_s", Quantile(rep.setup_s, 0.5), "s");
    rep.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  }

  for (const std::string& f : rep.failed_checks) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : rep.metrics) {
    if (m.samples >= 0) {
      std::printf("metric %s = %.6g %s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit, static_cast<long long>(m.samples));
    } else {
      std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  const bool correct = rep.failed_checks.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.measured.attempts),
              static_cast<unsigned long long>(rep.measured.failures));
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rep.metrics[i].name.c_str(),
                rep.metrics[i].value, rep.metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace clientbench

int main(int argc, char** argv) { return clientbench::Main(argc, argv); }
