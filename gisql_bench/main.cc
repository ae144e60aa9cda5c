/// \file main.cc
/// \brief gisql-bench: one workload, one seed, one run.
///
///   gisql_bench --workload analytics|lookups|txn_mix --seed N
///               --seconds S --trace 0|1 [--spans-out PATH]
///
/// The run generates its data and ops from the seed, builds the
/// federation several times (setup_s is the median), replays the ops in
/// a closed loop from one caller thread for S seconds (and at least one
/// whole pass over them), and checks every answer. The simulated
/// metrics cover the first pass only, so they repeat exactly for a
/// seed. With --trace 0 it reports the end-to-end metrics; with
/// --trace 1 it runs S/2 seconds untraced and S/2 traced, and reports
/// the per-layer metrics and the tracing overhead. The last stdout line
/// is one JSON object; the exit code is nonzero on any failed check.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common.h"

extern char** environ;

namespace gbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gisql_bench: %s\nusage: gisql_bench --workload "
               "analytics|lookups|txn_mix --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               why);
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;

    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

/// The program under test reads 59 GISQL_* knobs from the environment;
/// any of them would silently change what is measured.
void RefuseGisqlEnv() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GISQL_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      std::fprintf(stderr, "gisql_bench: refusing to run with %.*s set\n",
                   static_cast<int>(eq ? eq - *e : std::strlen(*e)), *e);
      found = true;
    }
  }
  if (found) std::exit(3);
}

int CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string ConfigJson(const gisql::PlannerOptions& o,
                       const gisql::StorageConfig& s) {
  std::string j = "{\"planner\":{";
  char buf[128];
  bool first = true;
  auto add = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",", k, v);
    j += buf;
    first = false;
  };
  add("enable_filter_pushdown", o.enable_filter_pushdown);
  add("enable_projection_pushdown", o.enable_projection_pushdown);
  add("enable_aggregate_pushdown", o.enable_aggregate_pushdown);
  add("enable_limit_pushdown", o.enable_limit_pushdown);
  add("enable_semijoin", o.enable_semijoin);
  add("force_semijoin", o.force_semijoin);
  add("enable_constant_folding", o.enable_constant_folding);
  add("join_ordering", static_cast<int>(o.join_ordering));
  add("enable_index_range_scan", o.enable_index_range_scan);
  add("enable_index_join", o.enable_index_join);
  add("semijoin_max_keys", static_cast<double>(o.semijoin_max_keys));
  add("mediator_cpu_us_per_row", o.mediator_cpu_us_per_row);
  add("parallel_execution", o.parallel_execution);
  add("worker_threads", o.worker_threads);
  add("columnar_wire", o.columnar_wire);
  add("vectorized_execution", o.vectorized_execution);
  add("admission_control", o.admission_control);
  add("max_concurrent_queries", o.max_concurrent_queries);
  add("admission_queue_limit", o.admission_queue_limit);
  add("admission_max_wait_ms", o.admission_max_wait_ms);
  add("query_mem_bytes", static_cast<double>(o.query_mem_bytes));
  add("mediator_mem_bytes", static_cast<double>(o.mediator_mem_bytes));
  add("circuit_breaker", o.circuit_breaker);
  add("breaker_open_failures", o.breaker_open_failures);
  add("breaker_cooldown_skips", o.breaker_cooldown_skips);
  add("breaker_probe_ratio", o.breaker_probe_ratio);
  add("breaker_seed", static_cast<double>(o.breaker_seed));
  add("health_aware_routing", o.health_aware_routing);
  add("cursor_chunk_rows", static_cast<double>(o.cursor_chunk_rows));
  add("cursor_lease_ms", o.cursor_lease_ms);
  add("cursor_max_open", o.cursor_max_open);
  add("txn_max_active", o.txn_max_active);
  add("txn_max_prepare_retries", o.txn_max_prepare_retries);
  add("txn_gc", o.txn_gc);
  add("slo_enabled", o.slo_enabled);
  add("slo_fast_window_ms", o.slo_fast_window_ms);
  add("slo_slow_window_ms", o.slo_slow_window_ms);
  add("slo_burn_alert", o.slo_burn_alert);
  add("flight_recorder", o.flight_recorder);
  add("flight_ring", o.flight_ring);
  add("flight_max_incidents", o.flight_max_incidents);
  add("flight_cooldown_ms", o.flight_cooldown_ms);
  add("flight_shed_spike", o.flight_shed_spike);
  add("flight_shed_window_ms", o.flight_shed_window_ms);
  add("tenant_max_tracked", o.tenant_max_tracked);
  add("advisor_enabled", o.advisor_enabled);
  j += "},\"storage\":{";
  first = true;
  add("page_size", static_cast<double>(s.page_size));
  add("pool_frames", static_cast<double>(s.pool_frames));
  add("lruk_k", static_cast<double>(s.lruk_k));
  add("disk_read_us", s.disk_read_us);
  add("disk_write_us", s.disk_write_us);
  return j + "}}";
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cumulative counters of every layer gisql exposes, read between ops.
struct Counters {
  int64_t cache_hits = 0, cache_misses = 0;
  int64_t page_hits = 0, page_misses = 0, evictions = 0;
  int64_t disk_reads = 0, disk_writes = 0, pages_live = 0;
  int64_t bytes_sent = 0, bytes_received = 0, retries = 0;
  int64_t lock_waits = 0, deadlocks = 0;

  static Counters Read(gisql::GlobalSystem& gis,
                       const std::vector<std::string>& sources) {
    Counters c;
    c.cache_hits = gis.metrics().Get("cache.hits");
    c.cache_misses = gis.metrics().Get("cache.misses");
    for (const auto& name : sources) {
      auto src = gis.GetSource(name);
      if (!src.ok()) continue;
      const auto p = (*src)->engine().pool().Snapshot();
      c.page_hits += p.hits;
      c.page_misses += p.misses;
      c.evictions += p.evictions;
      c.disk_reads += p.disk_reads;
      c.disk_writes += p.disk_writes;
      c.pages_live += p.pages_live;
    }
    const auto& net = gis.network().metrics();
    c.bytes_sent = net.Get("net.bytes_sent");
    c.bytes_received = net.Get("net.bytes_received");
    c.retries = net.Get("net.retries");
    c.lock_waits = gis.transactions().counters().lock_waits;
    c.deadlocks = gis.transactions().counters().deadlocks;
    return c;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Replays items from `*cursor` (item, pass) until `seconds` have passed
/// and, when `finish_pass` is set, the first pass is complete.
void RunPhase(Workload& wl, Harness& h, double seconds, bool finish_pass,
              std::vector<OpSample>* samples, size_t* first_pass_ops,
              std::pair<size_t, int>* cursor) {
  const int64_t start = NowNs();
  while (true) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= seconds && (!finish_pass || cursor->second >= 1)) break;
    const size_t before = samples->size();
    wl.RunItem(h, cursor->first, cursor->second, samples);
    for (size_t i = before; i < samples->size(); ++i) {
      (*samples)[i].item = cursor->first;
    }
    if (cursor->second == 0) *first_pass_ops += samples->size() - before;
    if (++cursor->first == wl.num_items()) {
      cursor->first = 0;
      ++cursor->second;
    }
  }
}

double OpsPerSecond(const std::vector<OpSample>& ops, size_t from, size_t to) {
  int64_t wall = 0;
  for (size_t i = from; i < to; ++i) wall += ops[i].wall_ns;
  if (wall <= 0) return 0.0;
  return static_cast<double>(to - from) / (static_cast<double>(wall) / 1e9);
}

/// Tracing overhead in percent: the traced phase's mean op wall over
/// the untraced phase's, on the items both phases ran (each item's ops
/// averaged over its passes), so the two sides replay the same ops.
double TracingOverhead(const std::vector<OpSample>& ops, size_t untraced) {
  std::map<size_t, std::pair<double, int64_t>> plain, traced;  // sum ns, n
  for (size_t i = 0; i < ops.size(); ++i) {
    auto& side = i < untraced ? plain[ops[i].item] : traced[ops[i].item];
    side.first += static_cast<double>(ops[i].wall_ns);
    side.second += 1;
  }
  double a = 0, b = 0;
  for (const auto& [item, t] : traced) {
    auto it = plain.find(item);
    if (it == plain.end()) continue;
    a += it->second.first / static_cast<double>(it->second.second);
    b += t.first / static_cast<double>(t.second);
  }
  return a > 0 ? (b / a - 1.0) * 100.0 : 0.0;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the deterministic per-op outcomes of the first pass.
uint64_t Digest(const std::vector<OpSample>& ops, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  char buf[160];
  for (size_t i = 0; i < n; ++i) {
    const OpSample& o = ops[i];
    std::snprintf(buf, sizeof(buf), "%.17g|%lld|%lld|%lld|%d|%d;", o.sim_ms,
                  static_cast<long long>(o.wire_bytes),
                  static_cast<long long>(o.messages),
                  static_cast<long long>(o.result_rows), o.refused ? 1 : 0,
                  o.shed ? 1 : 0);
    mix(buf);
  }
  return h;
}

std::vector<Metric> EndToEnd(const Workload& wl,
                             const std::vector<OpSample>& ops,
                             size_t first_pass, double setup_s) {
  std::vector<double> wall;
  for (const auto& o : ops) {
    wall.push_back(static_cast<double>(o.wall_ns) / 1e6);
  }
  std::vector<double> sim;
  double wire = 0, msgs = 0, bad = 0;
  for (size_t i = 0; i < first_pass; ++i) {
    const OpSample& o = ops[i];
    if (!o.refused && !o.error) sim.push_back(o.sim_ms);
    wire += static_cast<double>(o.wire_bytes);
    msgs += static_cast<double>(o.messages);
    if (o.refused || o.error) bad += 1;
  }
  const double n1 = static_cast<double>(first_pass);
  const double q = wl.tail_quantile();
  return {
      {"ops_per_s", OpsPerSecond(ops, 0, ops.size()), "1/s"},
      {"wall_ms_p50", Quantile(wall, 0.5), "ms"},
      {"wall_ms_tail", Quantile(wall, q), "ms"},
      {"sim_ms_p50", Quantile(sim, 0.5), "sim_ms"},
      {"sim_ms_tail", Quantile(sim, q), "sim_ms"},
      {"wire_bytes_per_op", wire / n1, "B/op"},
      {"messages_per_op", msgs / n1, "msg/op"},
      {"completed_share", 1.0 - bad / n1, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<OpSample>& ops, size_t from,
                             const std::vector<Span>& spans,
                             const Counters& c0, const Counters& c1,
                             double overhead_pct, bool* accounted) {
  const double n = static_cast<double>(ops.size() - from);
  int64_t wall = 0, rows = 0;
  double wait = 0;
  int64_t shed = 0, txns = 0, aborted = 0, cursor_ops = 0;
  for (size_t i = from; i < ops.size(); ++i) {
    const OpSample& o = ops[i];
    wall += o.wall_ns;
    rows += o.result_rows;
    wait += o.queue_wait_ms;
    if (o.shed) ++shed;
    if (o.is_txn) {
      ++txns;
      if (o.refused) ++aborted;
    }
    if (o.is_cursor) ++cursor_ops;
  }

  // Calls of the traced ops, their source spans, and per-name totals.
  const uint64_t first_op = from < ops.size() ? ops[from].op_id : ~0ULL;
  std::map<uint64_t, std::pair<int64_t, int64_t>> calls;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> served;
  std::map<std::string, std::pair<int64_t, int64_t>> by_name;  // ns, count
  int64_t reply_bytes = 0;
  for (const Span& s : spans) {
    if (s.op < first_op) continue;
    auto& agg = by_name[s.name];
    agg.first += s.end_ns - s.start_ns;
    agg.second += 1;
    if (s.parent == 0) calls[s.id] = {s.start_ns, s.end_ns};
    if (std::strcmp(s.name, "source.handle") == 0) {
      served[s.parent].push_back({s.start_ns, s.end_ns});
      reply_bytes += s.bytes;
    }
  }
  int64_t call_ns = 0, covered = 0;
  for (const auto& [id, iv] : calls) {
    call_ns += iv.second - iv.first;
    auto it = served.find(id);
    if (it != served.end()) {
      covered += UnionLength(it->second, iv.first, iv.second);
    }
  }
  // Op wall is the sum of its calls, so self + covered == wall exactly.
  *accounted = call_ns == wall;
  auto total_us = [&](const char* name) {
    auto it = by_name.find(name);
    if (it == by_name.end()) return 0.0;
    return static_cast<double>(it->second.first) / 1e3;
  };
  auto count = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.second);
  };
  auto mean_us = [&](const char* name) {
    const double k = count(name);
    return k > 0 ? total_us(name) / k : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const double self_us = static_cast<double>(wall - covered) / 1e3 / n;
  const double plan_us = (total_us("sql.parse") + total_us("planner.bind") +
                          total_us("planner.optimize") +
                          total_us("planner.decompose")) / n;
  const double busy = total_us("source.handle");
  const double calls_n = count("source.handle");
  // Counter deltas over the traced phase.
  auto delta = [&](int64_t Counters::*field) {
    return static_cast<double>(c1.*field - c0.*field);
  };
  const double cache_lookups =
      delta(&Counters::cache_hits) + delta(&Counters::cache_misses);
  const double page_refs =
      delta(&Counters::page_hits) + delta(&Counters::page_misses);
  const double d_recv = delta(&Counters::bytes_received);
  const double n_txns = static_cast<double>(txns);
  return {
      {"sql.parse_us", total_us("sql.parse") / n, "us"},
      {"planner.bind_us", total_us("planner.bind") / n, "us"},
      {"planner.optimize_us", total_us("planner.optimize") / n, "us"},
      {"planner.decompose_us", total_us("planner.decompose") / n, "us"},
      {"source.busy_us", busy / n, "us"},
      {"source.calls", calls_n / n, "count/op"},
      {"source.busy_us_per_call", ratio(busy, calls_n), "us"},
      {"source.reply_bytes", static_cast<double>(reply_bytes) / n, "B/op"},
      {"source.covered_us", static_cast<double>(covered) / 1e3 / n, "us"},
      {"core.mediator_self_us", self_us, "us"},
      {"core.post_plan_us", self_us - plan_us, "us"},
      {"core.cache_hit_ratio",
       ratio(delta(&Counters::cache_hits), cache_lookups),
       "ratio"},
      {"storage.page_hit_ratio",
       ratio(delta(&Counters::page_hits), page_refs), "ratio"},
      {"storage.page_misses", delta(&Counters::page_misses) / n, "count/op"},
      {"storage.evictions", delta(&Counters::evictions) / n, "count/op"},
      {"storage.disk_reads", delta(&Counters::disk_reads) / n, "count/op"},
      {"storage.disk_writes", delta(&Counters::disk_writes) / n, "count/op"},
      {"storage.pages_live", static_cast<double>(c1.pages_live), "count"},
      {"net.bytes_sent", delta(&Counters::bytes_sent) / n, "B/op"},
      {"net.bytes_received", d_recv / n, "B/op"},
      {"net.retries", delta(&Counters::retries) / n, "count/op"},
      {"wire.bytes_per_result_row", ratio(d_recv, static_cast<double>(rows)),
       "B/row"},
      {"sched.queue_wait_ms", wait / n, "sim_ms"},
      {"sched.shed_share", static_cast<double>(shed) / n, "ratio"},
      {"cursor.open_us", mean_us("cursor.open"), "us"},
      {"cursor.fetch_us_per_chunk", mean_us("cursor.fetch"), "us"},
      {"cursor.chunks",
       ratio(count("cursor.fetch"), static_cast<double>(cursor_ops)),
       "count/cursor"},
      {"txn.begin_us", mean_us("txn.begin"), "us"},
      {"txn.read_us", mean_us("txn.read"), "us"},
      {"txn.write_us", mean_us("txn.write"), "us"},
      {"txn.commit_us", mean_us("txn.commit"), "us"},
      {"txn.abort_share", ratio(static_cast<double>(aborted), n_txns),
       "ratio"},
      {"txn.lock_waits", ratio(delta(&Counters::lock_waits), n_txns),
       "count/txn"},
      {"txn.deadlock_victims", ratio(delta(&Counters::deadlocks), n_txns),
       "count/txn"},
      {"tracing_overhead", overhead_pct, "%"},
  };
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintMetrics(const char* group, const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%s %-28s %.6g %s\n", group, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RefuseGisqlEnv();

  std::unique_ptr<Workload> wl;
  if (args.workload == "analytics") wl = MakeAnalytics();
  else if (args.workload == "lookups") wl = MakeLookups();
  else if (args.workload == "txn_mix") wl = MakeTxnMix();
  else Usage("unknown workload");

  // Thread budget: the caller plus the executor workers fit in nproc.
  const int nproc = CpuCount();
  gisql::PlannerOptions options;
  options.parallel_execution = nproc >= 2;
  options.worker_threads = nproc >= 2 ? nproc - 1 : 0;
  std::printf("workload %s seed %llu seconds %g trace %d\n", wl->name(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("threads nproc %d caller 1 pool %d\n", nproc,
              options.parallel_execution ? options.worker_threads : 0);

  int64_t t0 = NowNs();
  wl->Generate(args.seed);
  const double gen_s = static_cast<double>(NowNs() - t0) / 1e9;
  std::printf("generate_s %.6f items %zu\n", gen_s, wl->num_items());

  // Set up several times (at least 5, more while they take under a
  // second in all, so a millisecond set-up gets a steady median);
  // setup_s is the median. Only the last federation is kept.
  std::vector<double> setups;
  std::unique_ptr<gisql::GlobalSystem> gis;
  double setup_total = 0.0;
  while (setups.size() < 5 || (setup_total < 1.0 && setups.size() < 200)) {
    gis.reset();
    t0 = NowNs();
    gis = wl->Setup(options);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setups.back();
  }
  const double setup_s = Quantile(setups, 0.5);
  std::printf("setup_runs %zu min_s %.6f max_s %.6f\n", setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  // The effective configuration, read back from the federation.
  auto first_source = gis->GetSource(wl->sources().front());
  Check(first_source.status(), "first source");
  std::printf("config %s\n",
              ConfigJson(gis->options(),
                         (*first_source)->engine().pool().config())
                  .c_str());
  wl->Prepare(*gis);

  std::vector<OpSample> ops;
  size_t first_pass = 0;
  std::pair<size_t, int> cursor{0, 0};
  Harness plain(gis.get(), nullptr);
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  RunPhase(*wl, plain, phase_s, true, &ops, &first_pass, &cursor);
  const size_t untraced = ops.size();

  std::vector<Metric> metrics;
  bool accounted = true;
  if (!args.trace) {
    metrics = EndToEnd(*wl, ops, first_pass, setup_s);
    PrintMetrics("end_to_end", metrics);
  } else {
    // Re-register every source behind a probe, then run traced.
    Tracer tracer;
    std::vector<std::unique_ptr<SourceProbe>> probes;
    for (const auto& name : wl->sources()) {
      auto src = gis->GetSource(name);
      Check(src.status(), name.c_str());
      probes.push_back(std::make_unique<SourceProbe>(*src, &tracer));
      Check(gis->network().UnregisterHost(name), "unregister");
      Check(gis->network().RegisterHost(name, probes.back().get()), "register");
    }
    Harness traced(gis.get(), &tracer);
    const Counters c0 = Counters::Read(*gis, wl->sources());
    RunPhase(*wl, traced, phase_s, false, &ops, &first_pass, &cursor);
    const Counters c1 = Counters::Read(*gis, wl->sources());
    const double plain_ops = OpsPerSecond(ops, 0, untraced);
    const double traced_ops = OpsPerSecond(ops, untraced, ops.size());
    const double overhead = TracingOverhead(ops, untraced);
    metrics = PerLayer(ops, untraced, tracer.spans(), c0, c1, overhead,
                       &accounted);
    std::printf(
        "traced ops %zu untraced ops %zu ops_per_s untraced %.3f traced "
        "%.3f\n",
                ops.size() - untraced, untraced, plain_ops, traced_ops);
    PrintMetrics("per_layer", metrics);
    if (!args.spans_out.empty() && !tracer.WriteChromeJson(args.spans_out)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_out.c_str());
    }
    // Restore the sources before the probes go away.
    for (const auto& name : wl->sources()) {
      auto src = gis->GetSource(name);
      Check(gis->network().UnregisterHost(name), "unregister");
      Check(gis->network().RegisterHost(name, *src), "register");
    }
  }

  Harness checker(gis.get(), nullptr);
  std::string why;
  const bool final_ok = wl->FinalCheck(checker, &why);
  if (!final_ok) std::fprintf(stderr, "final check failed: %s\n", why.c_str());
  int64_t failed = 0, refused_first = 0, failed_first = 0;
  size_t sim_samples = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].error) ++failed;
    if (i < first_pass) {
      refused_first += ops[i].refused ? 1 : 0;
      failed_first += ops[i].error ? 1 : 0;
      sim_samples += ops[i].refused || ops[i].error ? 0 : 1;
    }
  }
  const double q = wl->tail_quantile();
  // Nearest rank: the samples above the tail's rank lie beyond it.
  auto beyond = [q](size_t n) {
    return n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  };
  std::printf("samples ops %zu (%zu beyond wall tail p%g) first_pass %zu "
              "(%zu beyond sim tail)\n",
              ops.size(), beyond(ops.size()), q * 100, first_pass,
              beyond(sim_samples));
  std::printf("failed_share %.6f (first pass: %lld refused, %lld failed)\n",
              static_cast<double>(refused_first + failed_first) /
                  static_cast<double>(first_pass),
              static_cast<long long>(refused_first),
              static_cast<long long>(failed_first));
  std::printf("digest %s\n", Hex(Digest(ops, first_pass)).c_str());
  if (args.trace) {
    std::printf("accounting wall = mediator_self + source_covered: %s\n",
                accounted ? "ok" : "MISMATCH");
  }

  const bool correct = failed == 0 && final_ok && accounted;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.size());
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gbench

int main(int argc, char** argv) { return gbench::Main(argc, argv); }
