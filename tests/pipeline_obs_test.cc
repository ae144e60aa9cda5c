/// Statement-pipeline accounting: every way a statement can enter or
/// leave the mediator — Query, Submit, QueryInTxn, EXPLAIN [ANALYZE],
/// cache hits, admission/memory/cursor-limit sheds, cursors drained,
/// closed or expired, and failures — logs exactly the expected number
/// of gis.queries rows and charges exactly the network traffic it
/// caused to its tenant, so gis.tenants column sums track the net.*
/// registry.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/global_system.h"

namespace gisql {
namespace {

/// hq holds orders (300 rows), branch holds clients (8 rows).
void Build(GlobalSystem* gis) {
  auto hq = *gis->CreateSource("hq", SourceDialect::kRelational);
  ASSERT_TRUE(hq->ExecuteLocalSql(
                    "CREATE TABLE orders (oid bigint, cid bigint, "
                    "total double)")
                  .ok());
  std::string insert = "INSERT INTO orders VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i % 8) + ", " +
              std::to_string(i * 2.5) + ")";
  }
  ASSERT_TRUE(hq->ExecuteLocalSql(insert).ok());
  auto branch = *gis->CreateSource("branch", SourceDialect::kDocument);
  ASSERT_TRUE(branch->ExecuteLocalSql(
                    "CREATE TABLE clients (cid bigint, name varchar)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(branch->ExecuteLocalSql(
                      "INSERT INTO clients VALUES (" + std::to_string(i) +
                      ", 'c" + std::to_string(i) + "')")
                    .ok());
  }
  ASSERT_TRUE(gis->ImportSource("hq").ok());
  ASSERT_TRUE(gis->ImportSource("branch").ok());
}

constexpr const char* kJoin =
    "SELECT o.oid, c.name FROM orders o JOIN clients c ON o.cid = c.cid "
    "WHERE o.oid < 40";
constexpr const char* kScan = "SELECT oid, total FROM orders WHERE oid < 50";

/// The four traffic columns gis.tenants shares with the net.* registry.
struct Traffic {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages = 0;
  int64_t retries = 0;
};

Traffic NetTraffic(GlobalSystem& gis) {
  const MetricsRegistry& m = gis.network().metrics();
  return {m.Get("net.bytes_sent"), m.Get("net.bytes_received"),
          m.Get("net.messages"), m.Get("net.retries")};
}

Traffic LedgerTraffic(const GlobalSystem& gis) {
  Traffic sum;
  for (const TenantUsage& t : gis.tenants().SnapshotTenants()) {
    sum.bytes_sent += t.bytes_sent;
    sum.bytes_received += t.bytes_received;
    sum.messages += t.messages;
    sum.retries += t.retries;
  }
  return sum;
}

/// Drains a cursor to its last chunk.
void Drain(GlobalSystem& gis, uint64_t id) {
  for (;;) {
    auto chunk = gis.FetchChunk(id);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->done) return;
  }
}

/// Fills the single admission slot and the normal-class queue (limit 4,
/// watermark 3) at t=0, so the next arrival at t=0 is refused.
void SaturateAdmission(GlobalSystem& gis) {
  GlobalSystem::SubmitOptions at_zero;
  at_zero.arrival_ms = 0.0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(gis.Submit(kScan, at_zero).ok());
  }
}

struct OutcomeCase {
  const char* name;
  std::function<void(PlannerOptions&)> configure;
  std::function<void(GlobalSystem&)> setup;  ///< not measured
  std::function<void(GlobalSystem&)> act;    ///< measured
  int64_t rows_logged;                       ///< gis.queries delta
  const char* shed_reason = "";              ///< of the logged row
  const char* error = "";                    ///< of the logged row
  bool cache_hit = false;                    ///< of the logged row
};

void NoOptions(PlannerOptions&) {}
void NoSetup(GlobalSystem&) {}

void Governed(PlannerOptions& o) {
  o.admission_control = true;
  o.max_concurrent_queries = 1;
  o.admission_queue_limit = 4;
  o.admission_max_wait_ms = 1e9;
}

std::vector<OutcomeCase> Cases() {
  return {
      {"Query", NoOptions, NoSetup,
       [](GlobalSystem& gis) { ASSERT_TRUE(gis.Query(kJoin).ok()); }, 1},
      {"Submit", Governed, NoSetup,
       [](GlobalSystem& gis) {
         GlobalSystem::SubmitOptions s;
         s.tenant = "acme";
         s.priority = 2;
         ASSERT_TRUE(gis.Submit(kJoin, s).ok());
       },
       1},
      {"QueryInTxn", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         auto txn = gis.BeginTransaction();
         ASSERT_TRUE(txn.ok()) << txn.status().ToString();
         ASSERT_TRUE(gis.QueryInTxn(*txn, kScan).ok());
       },
       1},
      {"Explain", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         ASSERT_TRUE(gis.Query(std::string("EXPLAIN ") + kJoin).ok());
         ASSERT_TRUE(gis.Explain(kJoin).ok());
       },
       0},
      {"ExplainAnalyze", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         ASSERT_TRUE(gis.Query(std::string("EXPLAIN ANALYZE ") + kJoin).ok());
       },
       1},
      {"CacheHit", NoOptions,
       [](GlobalSystem& gis) {
         gis.EnableResultCache();
         ASSERT_TRUE(gis.Query(kJoin).ok());
       },
       [](GlobalSystem& gis) {
         auto r = gis.Query(kJoin);
         ASSERT_TRUE(r.ok()) << r.status().ToString();
         EXPECT_TRUE(r->metrics.cache_hit);
       },
       1, "", "", /*cache_hit=*/true},
      {"QueueFullShed", Governed, SaturateAdmission,
       [](GlobalSystem& gis) {
         GlobalSystem::SubmitOptions at_zero;
         at_zero.arrival_ms = 0.0;
         EXPECT_TRUE(gis.Submit(kScan, at_zero).status().IsOverloaded());
       },
       1, "queue_full"},
      {"DeadlineShed",
       [](PlannerOptions& o) {
         Governed(o);
         o.admission_queue_limit = 32;
       },
       [](GlobalSystem& gis) {
         GlobalSystem::SubmitOptions at_zero;
         at_zero.arrival_ms = 0.0;
         ASSERT_TRUE(gis.Submit(kJoin, at_zero).ok());
       },
       [](GlobalSystem& gis) {
         GlobalSystem::SubmitOptions impatient;
         impatient.arrival_ms = 0.0;
         impatient.max_wait_ms = 1e-6;
         EXPECT_TRUE(gis.Submit(kScan, impatient).status().IsOverloaded());
       },
       1, "deadline"},
      {"MemoryShed", [](PlannerOptions& o) { o.query_mem_bytes = 1000; },
       NoSetup,
       [](GlobalSystem& gis) {
         EXPECT_TRUE(gis.Query("SELECT oid, cid, total FROM orders")
                         .status()
                         .IsOverloaded());
       },
       1, "memory_budget"},
      {"CursorLimitShed", [](PlannerOptions& o) { o.cursor_max_open = 1; },
       [](GlobalSystem& gis) { ASSERT_TRUE(gis.OpenCursor(kScan).ok()); },
       [](GlobalSystem& gis) {
         EXPECT_TRUE(gis.OpenCursor(kScan).status().IsOverloaded());
       },
       1, "cursor_limit"},
      {"CursorDrained", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         GlobalSystem::CursorOptions c;
         c.chunk_rows = 16;
         auto id = gis.OpenCursor(kScan, c);
         ASSERT_TRUE(id.ok()) << id.status().ToString();
         Drain(gis, *id);
       },
       1},
      {"CursorClosed", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         GlobalSystem::CursorOptions c;
         c.chunk_rows = 16;
         auto id = gis.OpenCursor(kScan, c);
         ASSERT_TRUE(id.ok()) << id.status().ToString();
         ASSERT_TRUE(gis.FetchChunk(*id).ok());
         ASSERT_TRUE(gis.CloseCursor(*id).ok());
       },
       1},
      {"CursorLeaseExpired", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         GlobalSystem::CursorOptions c;
         c.chunk_rows = 16;
         c.lease_ms = 10.0;
         auto id = gis.OpenCursor(kScan, c);
         ASSERT_TRUE(id.ok()) << id.status().ToString();
         ASSERT_TRUE(gis.FetchChunk(*id).ok());
         gis.governor().AdvanceTo(1e6);
         ASSERT_TRUE(gis.CloseCursor(*id).ok());  // sweeps it first
         EXPECT_EQ(gis.metrics().Get("cursor.expired"), 1);
       },
       1},
      {"ParseFailure", NoOptions, NoSetup,
       [](GlobalSystem& gis) {
         EXPECT_FALSE(gis.Query("SELEKT nothing").ok());
       },
       1, "", "ParseError"},
      {"FailedExecution", NoOptions,
       [](GlobalSystem& gis) { gis.network().SetHostDown("branch", true); },
       [](GlobalSystem& gis) {
         EXPECT_TRUE(gis.Query(kJoin).status().IsNetworkError());
       },
       1, "", "NetworkError"},
      {"FailedCursorOpen", NoOptions,
       [](GlobalSystem& gis) { gis.network().SetHostDown("hq", true); },
       [](GlobalSystem& gis) {
         // A blocking plan runs to its spool at open.
         EXPECT_TRUE(gis.OpenCursor("SELECT cid, SUM(total) AS t FROM "
                                    "orders GROUP BY cid")
                         .status()
                         .IsNetworkError());
       },
       1, "", "NetworkError"},
  };
}

TEST(StatementOutcomeTest, OneStatementOneOutcome) {
  for (const OutcomeCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    PlannerOptions options;
    c.configure(options);
    GlobalSystem gis(options);
    Build(&gis);
    c.setup(gis);
    const int64_t logged_before = gis.query_log().total_appended();
    const Traffic net_before = NetTraffic(gis);
    const Traffic ledger_before = LedgerTraffic(gis);

    c.act(gis);

    const int64_t logged = gis.query_log().total_appended() - logged_before;
    EXPECT_EQ(logged, c.rows_logged);
    if (logged == 1 && c.rows_logged == 1) {
      const QueryLogEntry last = gis.query_log().Snapshot().back();
      EXPECT_EQ(last.shed_reason, c.shed_reason);
      EXPECT_EQ(last.error, c.error);
      EXPECT_EQ(last.cache_hit, c.cache_hit);
    }
    const Traffic net = NetTraffic(gis);
    const Traffic ledger = LedgerTraffic(gis);
    EXPECT_EQ(ledger.bytes_sent - ledger_before.bytes_sent,
              net.bytes_sent - net_before.bytes_sent);
    EXPECT_EQ(ledger.bytes_received - ledger_before.bytes_received,
              net.bytes_received - net_before.bytes_received);
    EXPECT_EQ(ledger.messages - ledger_before.messages,
              net.messages - net_before.messages);
    EXPECT_EQ(ledger.retries - ledger_before.retries,
              net.retries - net_before.retries);
  }
}

// Regression: a statement that failed after admission used to vanish —
// its traffic moved net.* but reached neither gis.queries nor the
// tenant ledger, breaking "gis.tenants sums equal the global totals".
TEST(StatementOutcomeTest, FailedStatementIsLoggedAndCharged) {
  GlobalSystem gis;
  Build(&gis);
  gis.network().SetHostDown("branch", true);  // no replica to fail over to
  const Traffic net_before = NetTraffic(gis);
  const Traffic ledger_before = LedgerTraffic(gis);
  int64_t slo_total_before = 0, slo_good_before = 0;
  for (const SloStatus& s : gis.slo().Snapshot()) {
    slo_total_before += s.slow_total;
    slo_good_before += s.slow_good;
  }

  auto failed = gis.Query(kJoin);
  ASSERT_TRUE(failed.status().IsNetworkError()) << failed.status().ToString();

  const Traffic net = NetTraffic(gis);
  const Traffic ledger = LedgerTraffic(gis);
  EXPECT_GT(net.messages - net_before.messages, 0);
  EXPECT_EQ(ledger.messages - ledger_before.messages,
            net.messages - net_before.messages);
  EXPECT_EQ(ledger.bytes_sent - ledger_before.bytes_sent,
            net.bytes_sent - net_before.bytes_sent);
  EXPECT_EQ(ledger.bytes_received - ledger_before.bytes_received,
            net.bytes_received - net_before.bytes_received);

  // The SLO engine saw one more event, and not a good one.
  int64_t slo_total = 0, slo_good = 0;
  for (const SloStatus& s : gis.slo().Snapshot()) {
    slo_total += s.slow_total;
    slo_good += s.slow_good;
  }
  EXPECT_EQ(slo_total - slo_total_before, 1);
  EXPECT_EQ(slo_good, slo_good_before);

  auto errors = gis.Query(
      "SELECT sql, error, shed_reason FROM gis.queries WHERE error <> ''");
  ASSERT_TRUE(errors.ok()) << errors.status().ToString();
  ASSERT_EQ(errors->batch.num_rows(), 1u);
  EXPECT_EQ(errors->batch.rows()[0][0].AsString(), kJoin);
  EXPECT_EQ(errors->batch.rows()[0][1].AsString(), "NetworkError");
  EXPECT_EQ(errors->batch.rows()[0][2].AsString(), "");
}

}  // namespace
}  // namespace gisql
