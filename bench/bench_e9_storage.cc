/// \file bench_e9_storage.cc
/// \brief E9 (Table 4): component-system storage engine microbenchmarks
/// — insert, scan, index lookup, range scan, statistics collection —
/// plus the out-of-core ladder over the paged buffer pool.
///
/// The microbenchmarks are real wall-clock google-benchmark numbers
/// (the only experiment where wall time is the metric: they
/// characterize the local engine substrate, not the distributed
/// simulation). The ladder epilogue is pure simulation: it sweeps the
/// working set from 0.1x to 10x of the buffer pool and reports
/// simulated rows/s and the hit ratio from gis.storage at each rung,
/// then checks that an index range scan beats a full scan on a
/// selective predicate and that a same-seed rerun reproduces every
/// metric byte-identically.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace gisql {
namespace {

SchemaPtr BenchSchema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"id", TypeId::kInt64, false},
      {"v", TypeId::kDouble},
      {"tag", TypeId::kString}});
}

TablePtr MakeTable(int64_t rows) {
  auto table = std::make_shared<Table>("bench", BenchSchema());
  Rng rng(7);
  std::vector<Row> data;
  data.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({Value::Int(i), Value::Double(rng.NextDouble() * 1000),
                    Value::String("tag" + std::to_string(i % 1000))});
  }
  if (Status st = table->InsertUnchecked(std::move(data)); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::abort();
  }
  return table;
}

void BM_Insert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto table = std::make_shared<Table>("t", BenchSchema());
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(table->Insert(
          {Value::Int(i), Value::Double(i * 0.5), Value::String("x")}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert)->Arg(1000)->Arg(10000);

/// Every present row, all columns decoded, in row-id order.
std::vector<Row> ScanRows(Table& table) {
  std::vector<Row> rows;
  (void)table.Scan(AllColumns(table.schema()->num_fields()),
                   [&](size_t, Row& row) {
                     rows.push_back(std::move(row));
                     return Status::OK();
                   });
  return rows;
}

void BM_FullScanPredicate(benchmark::State& state) {
  auto table = MakeTable(state.range(0));
  // id % 100 == 0 over a scan that decodes only `id` (the hot scan loop
  // each component source runs for non-indexable predicates).
  const ColumnSet read = ColumnsOf(3, {0});
  for (auto _ : state) {
    int64_t hits = 0;
    (void)table->Scan(read, [&](size_t, Row& row) {
      if (row[0].AsInt() % 100 == 0) ++hits;
      return Status::OK();
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullScanPredicate)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_HashIndexLookup(benchmark::State& state) {
  auto table = MakeTable(state.range(0));
  (void)table->CreateHashIndex(0);
  HashIndex* index = table->GetHashIndex(0);
  Rng rng(11);
  for (auto _ : state) {
    const auto& hits =
        index->Lookup(Value::Int(rng.Uniform(0, state.range(0) - 1)));
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexLookup)->Arg(100000)->Arg(1000000);

void BM_OrderedIndexRange(benchmark::State& state) {
  auto table = MakeTable(state.range(0));
  (void)table->CreateOrderedIndex(0);
  OrderedIndex* index = table->GetOrderedIndex(0);
  Rng rng(13);
  for (auto _ : state) {
    const int64_t lo = rng.Uniform(0, state.range(0) - 1000);
    auto rids =
        index->Range(Value::Int(lo), true, Value::Int(lo + 999), true);
    benchmark::DoNotOptimize(rids.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_OrderedIndexRange)->Arg(100000)->Arg(1000000);

void BM_IndexBuild(benchmark::State& state) {
  auto table = MakeTable(state.range(0));
  for (auto _ : state) {
    // The table's own build: one scan of (row id, key) pairs.
    HashIndex index(0);
    (void)table->Scan(ColumnsOf(3, {0}), [&](size_t rid, Row& row) {
      index.Insert(row[0], rid);
      return Status::OK();
    });
    benchmark::DoNotOptimize(index.Lookup(Value::Int(0)).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(100000)->Arg(1000000);

void BM_CollectStats(benchmark::State& state) {
  auto table = MakeTable(state.range(0));
  for (auto _ : state) {
    TableStats stats = CollectStats(*table->schema(), ScanRows(*table));
    benchmark::DoNotOptimize(stats.row_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollectStats)->Arg(10000)->Arg(100000);

/// One rung of the out-of-core ladder, formatted for the report and the
/// determinism check (every field comes off the simulated clock or a
/// deterministic counter, so the line must replay byte-identically).
std::string RungLine(GlobalSystem& gis, double target_ratio, int64_t rows) {
  const std::string scan_sql = "SELECT sum(v), count(*) FROM data";
  // Two passes: the first faults the table in from a cold pool, the
  // second shows the steady-state hit ratio for this working set.
  bench::Run(gis, scan_sql);
  const QueryMetrics warm = bench::Run(gis, scan_sql);

  auto storage = gis.Query(
      "SELECT pages, pool_frames, hits, misses, evictions, disk_ms, "
      "hit_ratio FROM gis.storage WHERE source = 'store'");
  if (!storage.ok() || storage->batch.num_rows() != 1) {
    std::fprintf(stderr, "gis.storage snapshot failed\n");
    std::abort();
  }
  const Row& s = storage->batch.rows()[0];
  const double actual_ratio =
      static_cast<double>(s[0].AsInt()) / static_cast<double>(s[1].AsInt());
  const double rows_per_sec =
      warm.elapsed_ms > 0.0 ? rows / (warm.elapsed_ms / 1e3) : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%8.1fx %8.2fx %9lld %10.3f %12.0f | %8lld %8lld %8lld "
                "%10.3f %9.3f",
                target_ratio, actual_ratio,
                static_cast<long long>(rows), warm.elapsed_ms, rows_per_sec,
                static_cast<long long>(s[2].AsInt()),
                static_cast<long long>(s[3].AsInt()),
                static_cast<long long>(s[4].AsInt()), s[5].AsDouble(),
                s[6].AsDouble());
  return buf;
}

/// Builds a one-source federation with a `data` table grown batch by
/// batch until its heap spans at least `target_pages` pages under the
/// (env-configured) pool geometry. Returns the rows inserted, so each
/// rung's working-set ratio is exact by construction rather than
/// resting on a rows-per-page estimate.
int64_t BuildStore(GlobalSystem& gis, int64_t target_pages) {
  auto source_or = gis.CreateSource("store", SourceDialect::kRelational);
  if (!source_or.ok()) std::abort();
  ComponentSource* store = *source_or;
  if (!store
           ->ExecuteLocalSql(
               "CREATE TABLE data (id bigint, v double, tag varchar)")
           .ok()) {
    std::abort();
  }
  auto table_or = store->engine().GetTable("data");
  if (!table_or.ok()) std::abort();
  Rng rng(17);
  int64_t rows = 0;
  while (store->engine().pool().Snapshot().pages_live < target_pages) {
    std::vector<Row> data;
    data.reserve(256);
    for (int i = 0; i < 256; ++i, ++rows) {
      data.push_back({Value::Int(rows),
                      Value::Double(rng.NextDouble() * 1000),
                      Value::String("tag" + std::to_string(rows % 100))});
    }
    if (!(*table_or)->InsertUnchecked(std::move(data)).ok()) std::abort();
  }
  if (!gis.ImportTable("store", "data", "data").ok()) std::abort();
  return rows;
}

/// Runs the full ladder and returns every reported metric as one
/// string, so a second run can be compared byte-for-byte.
std::string RunLadder(bool print) {
  // Small fixed geometry so even the 10x rung loads fast. Each rung's
  // table is grown until it actually spans target_ratio * pool_frames
  // heap pages, so the ladder genuinely reaches 10x out-of-core.
  const int64_t pool_frames = 32;
  setenv("GISQL_PAGE_SIZE", "4096", 1);
  setenv("GISQL_BUFFER_POOL_FRAMES", "32", 1);

  if (print) {
    std::printf(
        "\n# E9 ladder: working set vs buffer pool (simulated clock)\n");
    std::printf("%8s %8s %9s %10s %12s | %8s %8s %8s %10s %9s\n", "target",
                "actual", "rows", "scan_ms", "rows/s", "hits", "misses",
                "evict", "disk_ms", "hit_ratio");
  }
  std::string report;
  const double full_ratios[] = {0.1, 0.5, 1.0, 2.0, 4.0, 10.0};
  const double smoke_ratios[] = {0.5, 2.0};
  const double* ratios = bench::SmokeMode() ? smoke_ratios : full_ratios;
  const size_t n_ratios = bench::SmokeMode() ? 2 : 6;
  for (size_t i = 0; i < n_ratios; ++i) {
    const int64_t target_pages = std::max<int64_t>(
        1, static_cast<int64_t>(ratios[i] * pool_frames));
    GlobalSystem gis;
    const int64_t rows = BuildStore(gis, target_pages);
    const std::string line = RungLine(gis, ratios[i], rows);
    if (print) std::printf("%s\n", line.c_str());
    report += line + "\n";
  }

  // Index range scan vs full scan on a selective predicate, on the
  // biggest rung's data (out of core, so the access-path choice also
  // changes which pages fault in).
  {
    const int64_t target_pages = std::max<int64_t>(
        1, static_cast<int64_t>(ratios[n_ratios - 1] * pool_frames));
    const std::string q = "SELECT id, v FROM data WHERE id >= 100 AND id < 200";

    GlobalSystem indexed;
    BuildStore(indexed, target_pages);
    const QueryMetrics with_index = bench::Run(indexed, q);

    GlobalSystem scanned;
    PlannerOptions no_index;
    no_index.enable_index_range_scan = false;
    scanned.set_options(no_index);
    BuildStore(scanned, target_pages);
    const QueryMetrics full_scan = bench::Run(scanned, q);

    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "index range scan %.3f ms vs full scan %.3f ms (%.1fx)",
                  with_index.elapsed_ms, full_scan.elapsed_ms,
                  full_scan.elapsed_ms /
                      std::max(with_index.elapsed_ms, 1e-9));
    if (print) std::printf("\n%s\n", buf);
    report += std::string(buf) + "\n";
    if (with_index.elapsed_ms >= full_scan.elapsed_ms) {
      std::fprintf(stderr,
                   "FAIL: index range scan did not beat the full scan\n");
      std::abort();
    }
  }

  unsetenv("GISQL_PAGE_SIZE");
  unsetenv("GISQL_BUFFER_POOL_FRAMES");
  return report;
}

void RunOutOfCoreLadder() {
  const std::string first = RunLadder(/*print=*/true);
  const std::string second = RunLadder(/*print=*/false);
  const bool identical = first == second;
  std::printf("same-seed rerun byte-identical: %s\n",
              identical ? "yes" : "NO");
  if (!identical) std::abort();
}

}  // namespace
}  // namespace gisql

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gisql::RunOutOfCoreLadder();
  return 0;
}
