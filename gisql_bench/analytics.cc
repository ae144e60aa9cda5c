/// \file analytics.cc
/// \brief `analytics`: a closed loop of global-schema reports over four
/// sales sites, one per capability dialect, plus hq.customers and
/// catalog.products. Each site holds at least ten times its buffer pool,
/// so source scans, page decode, wire encode/decode and the mediator's
/// joins and aggregates do nearly all the work; parse and plan almost
/// none. Every answer is compared with one computed here from the
/// generated rows.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"

namespace gbench {
namespace {

using gisql::GlobalSystem;
using gisql::Row;
using gisql::SourceDialect;
using gisql::Value;

constexpr int kCustomers = 4000;
constexpr int kProducts = 1000;
constexpr int kRegions = 8;
constexpr int kSegments = 5;
constexpr int kCategories = 12;
constexpr int kDays = 365;
constexpr int kDay0 = 19000;
constexpr int64_t kSalesPerSite = 38000;
constexpr size_t kItems = 100;
// Free-text order notes make sales rows wide (about 140 bytes), so each
// site's table spans over ten times its buffer pool.
const std::string kLorem =
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua ut enim ad minim";

struct Site {
  const char* host;
  SourceDialect dialect;
};
constexpr Site kSites[] = {
    {"site_rel", SourceDialect::kRelational},
    {"site_doc", SourceDialect::kDocument},
    {"site_kv", SourceDialect::kKeyValue},
    {"site_legacy", SourceDialect::kLegacy},
};

struct Sale {
  int64_t sid, cid, pid, qty, amount, day;
  std::string note;
};

enum class Kind {
  kRegionRevenue,   // join customers + GROUP BY
  kCategoryUnits,   // join products + GROUP BY
  kSegmentDrill,    // selective join, semijoin-eligible
  kTopN,            // ORDER BY ... LIMIT
  kExport,          // wide filter export
  kCursorExport,    // the export drained through a cursor
  kCursorRollup,    // a blocking join+agg drained through a cursor
  kReportTxn,       // two reports in one snapshot, logged in hq
};

struct Item {
  Kind kind;
  std::string sql;
  std::string sql2;  // second report of kReportTxn
  std::vector<CanonRow> want;
  std::vector<CanonRow> want2;
  bool ordered = false;
  int64_t total = 0;  // kReportTxn: the report's grand total
};

std::string Str(int64_t v) { return std::to_string(v); }

class Analytics : public Workload {
 public:
  const char* name() const override { return "analytics"; }
  double tail_quantile() const override { return 0.90; }
  size_t num_items() const override { return items_.size(); }

  std::vector<std::string> sources() const override {
    std::vector<std::string> out = {"hq", "catalog"};
    for (const Site& s : kSites) out.push_back(s.host);
    return out;
  }

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    customers_.clear();
    for (int c = 0; c < kCustomers; ++c) {
      const int64_t region = rng.Range(0, kRegions - 1);
      const int64_t segment = rng.Range(0, kSegments - 1);
      customers_.push_back({Value::Int(c), Value::String("cust" + Str(c)),
                            Value::String("r" + Str(region)),
                            Value::String("s" + Str(segment))});
    }
    products_.clear();
    for (int p = 0; p < kProducts; ++p) {
      const int64_t price = rng.Range(100, 99999);
      const int64_t category = rng.Range(0, kCategories - 1);
      products_.push_back({Value::Int(p), Value::String("prod" + Str(p)),
                           Value::Int(price),
                           Value::String("c" + Str(category))});
    }
    const ZipfSampler product_pop(kProducts, 0.8);
    sales_.assign(std::size(kSites), {});
    int64_t sid = 0;
    for (auto& site : sales_) {
      site.reserve(kSalesPerSite);
      for (int64_t i = 0; i < kSalesPerSite; ++i) {
        Sale s;
        s.sid = sid++;
        s.cid = rng.Range(0, kCustomers - 1);
        s.pid = static_cast<int64_t>(product_pop.Sample(rng));
        s.qty = rng.Range(1, 10);
        s.amount = s.qty * rng.Range(50, 20000);
        s.day = kDay0 + rng.Range(0, kDays - 1);
        s.note = "order " + Str(rng.Range(0, 1 << 30)) + " " +
                 kLorem.substr(0, static_cast<size_t>(rng.Range(80, 120)));
        site.push_back(std::move(s));
      }
    }

    // The mix is a fixed period of kinds, each site-level kind cycling
    // through the four sites, so every prefix of whole periods has the
    // same composition whatever the seed; the seed picks the parameters.
    // Report transactions, the slowest kind, are 12% of the mix, so the
    // p90 tail falls inside their cluster rather than on its edge.
    using K = Kind;
    const Kind period[] = {
        K::kRegionRevenue, K::kCategoryUnits, K::kSegmentDrill,
        K::kTopN,          K::kExport,        K::kCursorRollup,
        K::kSegmentDrill,  K::kTopN,          K::kCategoryUnits,
        K::kReportTxn,     K::kExport,        K::kCursorExport,
        K::kRegionRevenue, K::kSegmentDrill,  K::kTopN,
        K::kCategoryUnits, K::kExport,        K::kCursorRollup,
        K::kSegmentDrill,  K::kTopN,          K::kCategoryUnits,
        K::kReportTxn,     K::kExport,        K::kCursorExport,
        K::kReportTxn};
    std::map<Kind, int> next_site;
    items_.clear();
    for (size_t i = 0; i < kItems; ++i) {
      const Kind kind = period[i % std::size(period)];
      const int site = next_site[kind]++ % static_cast<int>(std::size(kSites));
      items_.push_back(MakeItem(kind, site, rng));
    }
  }

  std::unique_ptr<GlobalSystem> Setup(
      const gisql::PlannerOptions& options) override {
    auto gis = std::make_unique<GlobalSystem>(options);
    auto load = [&](const char* host, SourceDialect dialect,
                    const char* ddl, const char* table,
                    std::vector<Row> rows) {
      auto src = gis->CreateSource(host, dialect);
      Check(src.status(), host);
      Check((*src)->ExecuteLocalSql(ddl), ddl);
      auto t = (*src)->engine().GetTable(table);
      Check(t.status(), table);
      Check((*t)->InsertUnchecked(std::move(rows)), table);
    };
    load("hq", SourceDialect::kRelational,
         "CREATE TABLE customers (cid bigint, name varchar, region varchar, "
         "segment varchar)",
         "customers", customers_);
    auto hq = gis->GetSource("hq");
    Check(hq.status(), "hq");
    Check((*hq)->ExecuteLocalSql("CREATE TABLE report_log (rid bigint, "
                                 "kind varchar, total bigint)"),
          "report_log");
    Check(gis->ImportSource("hq"), "import hq");
    load("catalog", SourceDialect::kRelational,
         "CREATE TABLE products (pid bigint, pname varchar, price bigint, "
         "category varchar)",
         "products", products_);
    Check(gis->ImportSource("catalog"), "import catalog");

    std::vector<std::string> members;
    for (size_t s = 0; s < std::size(kSites); ++s) {
      std::vector<Row> rows;
      rows.reserve(sales_[s].size());
      for (const Sale& x : sales_[s]) {
        rows.push_back({Value::Int(x.sid), Value::Int(x.cid), Value::Int(x.pid),
                        Value::Int(x.qty), Value::Int(x.amount),
                        Value::Int(x.day), Value::String(x.note)});
      }
      load(kSites[s].host, kSites[s].dialect,
           "CREATE TABLE sales (sid bigint, cid bigint, pid bigint, "
           "qty bigint, amount bigint, day bigint, note varchar)",
           "sales", std::move(rows));
      const std::string global = std::string("sales_") + kSites[s].host;
      Check(gis->ImportTable(kSites[s].host, "sales", global), "import sales");
      members.push_back(global);
    }
    Check(gis->CreateUnionView("sales", members), "sales view");
    return gis;
  }

  void Prepare(GlobalSystem& gis) override {
    // The workload's premise: every site's sales outgrow its pool 10x.
    for (const Site& s : kSites) {
      auto src = gis.GetSource(s.host);
      Check(src.status(), s.host);
      const auto stats = (*src)->engine().pool().Snapshot();
      if (stats.pages_live < 10 * stats.pool_frames) {
        std::fprintf(stderr,
                     "%s holds %lld pages, under 10x its %lld-frame pool\n",
                     s.host, static_cast<long long>(stats.pages_live),
                     static_cast<long long>(stats.pool_frames));
        std::exit(2);
      }
    }
  }

  void RunItem(Harness& h, size_t index, int pass,
               std::vector<OpSample>* out) override {
    const Item& item = items_[index];
    OpSample op = h.NewOp();
    std::string why;
    switch (item.kind) {
      case Kind::kCursorExport:
      case Kind::kCursorRollup:
        RunCursor(h, item, &op);
        break;
      case Kind::kReportTxn:
        RunReport(h, item, index, pass, &op);
        break;
      default: {
        auto r = h.Call(&op, "api.query",
                        [&] { return h.gis().Query(item.sql); });
        if (!r.ok()) {
          h.Mismatch(&op, r.status().ToString() + " in " + item.sql);
          break;
        }
        h.ShadowPlan(op, item.sql);
        op.sim_ms = r->metrics.elapsed_ms;
        op.result_rows = static_cast<int64_t>(r->batch.num_rows());
        if (!SameRows(CanonRows(r->batch), item.want, item.ordered, &why)) {
          h.Mismatch(&op, why + " in " + item.sql);
        }
      }
    }
    out->push_back(op);
  }

  bool FinalCheck(Harness& h, std::string* why) override {
    // Report transactions only append to report_log; the sales data
    // must be untouched.
    auto r = h.gis().Query("SELECT COUNT(*) FROM sales");
    if (!r.ok() || r->batch.num_rows() != 1 ||
        Canon(r->batch.rows()[0][0]) !=
            Str(kSalesPerSite * static_cast<int64_t>(std::size(kSites)))) {
      *why = "sales row count changed";
      return false;
    }
    return true;
  }

 private:
  void RunCursor(Harness& h, const Item& item, OpSample* op) {
    gisql::GlobalSystem::CursorOptions copts;
    copts.chunk_rows = 1024;
    auto id = h.Call(op, "cursor.open",
                     [&] { return h.gis().OpenCursor(item.sql, copts); });
    if (!id.ok()) {
      h.Mismatch(op, id.status().ToString() + " opening " + item.sql);
      return;
    }
    h.ShadowPlan(*op, item.sql);
    op->is_cursor = true;
    std::vector<CanonRow> rows;
    while (true) {
      auto chunk =
          h.Call(op, "cursor.fetch", [&] { return h.gis().FetchChunk(*id); });
      if (!chunk.ok()) {
        h.Mismatch(op, chunk.status().ToString() + " fetching " + item.sql);
        (void)h.gis().CloseCursor(*id);
        return;
      }
      for (auto& r : CanonRows(chunk->batch)) rows.push_back(std::move(r));
      if (chunk->done) break;
    }
    // The cursor's log entry carries its simulated latency.
    const auto log = h.gis().query_log().Snapshot();
    if (!log.empty()) op->sim_ms = log.back().elapsed_ms;
    op->result_rows = static_cast<int64_t>(rows.size());
    std::string why;
    if (!SameRows(std::move(rows), item.want, item.ordered, &why)) {
      h.Mismatch(op, why + " in cursor " + item.sql);
    }
  }

  void RunReport(Harness& h, const Item& item, size_t index, int pass,
                 OpSample* op) {
    op->is_txn = true;
    auto id =
        h.Call(op, "txn.begin", [&] { return h.gis().BeginTransaction(); });
    if (!id.ok()) {
      h.Mismatch(op, id.status().ToString() + " at begin");
      return;
    }
    std::string why;
    for (int q = 0; q < 2; ++q) {
      const std::string& sql = q == 0 ? item.sql : item.sql2;
      auto r = h.Call(op, "txn.read",
                      [&] { return h.gis().QueryInTxn(*id, sql); });
      if (!r.ok()) {
        h.Mismatch(op, r.status().ToString() + " in " + sql);
        (void)h.gis().AbortTransaction(*id);
        return;
      }
      h.ShadowPlan(*op, sql);
      op->sim_ms += r->metrics.elapsed_ms;
      op->result_rows += static_cast<int64_t>(r->batch.num_rows());
      if (!SameRows(CanonRows(r->batch), q == 0 ? item.want : item.want2,
                    false, &why)) {
        h.Mismatch(op, why + " in report " + sql);
      }
    }
    const int64_t rid = static_cast<int64_t>(pass) * 1000000 +
                        static_cast<int64_t>(index);
    const std::string insert = "INSERT INTO report_log VALUES (" + Str(rid) +
                               ", 'segments', " + Str(item.total) + ")";
    const int64_t net_us = op->net_sim_us;
    gisql::Status st = h.Call(
        op, "txn.write", [&] { return h.gis().TxnWrite(*id, "hq", insert); });
    if (st.ok()) {
      st = h.Call(op, "txn.commit",
                  [&] { return h.gis().CommitTransaction(*id); });
    }
    // Writes and commit return no metrics: their simulated time is the
    // RPC time they spent.
    op->sim_ms += static_cast<double>(op->net_sim_us - net_us) / 1e3;
    if (!st.ok()) {
      // The log table is private to the reports: nothing can conflict.
      h.Mismatch(op, st.ToString() + " logging a report");
      (void)h.gis().AbortTransaction(*id);
    }
  }

  /// Visits the sales of one site, or of every site when `site` < 0.
  template <typename Pred>
  void ForSales(int site, Pred&& pred) const {
    for (size_t i = 0; i < sales_.size(); ++i) {
      if (site >= 0 && static_cast<size_t>(site) != i) continue;
      for (const Sale& s : sales_[i]) pred(s);
    }
  }

  const Row& Customer(int64_t cid) const { return customers_[cid]; }

  /// One item of `kind`; site-level kinds read `site_slot`'s table.
  Item MakeItem(Kind kind, int site_slot, Rng& rng) const {
    Item it;
    it.kind = kind;
    const int64_t d1 = kDay0 + rng.Range(0, kDays - 90);
    const int64_t d2 = d1 + rng.Range(30, 89);
    const std::string window =
        "day BETWEEN " + Str(d1) + " AND " + Str(d2);
    auto in_window = [&](const Sale& s) { return s.day >= d1 && s.day <= d2; };
    // Global reports read the union view over all four sites; the other
    // kinds are a site's own analysts reading its table through the
    // mediator, so every dialect's pushdown limits are exercised alone.
    const bool global = kind == Kind::kRegionRevenue ||
                        kind == Kind::kCursorRollup || kind == Kind::kReportTxn;
    const int site = global ? -1 : site_slot;
    const std::string sales =
        global ? "sales" : std::string("sales_") + kSites[site].host;
    switch (kind) {
      case Kind::kRegionRevenue:
      case Kind::kCursorRollup: {
        it.sql = "SELECT c.region, COUNT(*), SUM(s.amount) FROM " + sales +
                 " s JOIN customers c ON s.cid = c.cid WHERE s." + window +
                 " GROUP BY c.region";
        std::map<std::string, std::pair<int64_t, int64_t>> agg;
        ForSales(site, [&](const Sale& s) {
          if (!in_window(s)) return;
          auto& a = agg[Customer(s.cid)[2].AsString()];
          a.first += 1;
          a.second += s.amount;
        });
        for (const auto& [k, v] : agg) {
          it.want.push_back({k, Str(v.first), Str(v.second)});
        }
        break;
      }
      case Kind::kCategoryUnits: {
        const int64_t q = rng.Range(3, 8);
        it.sql = "SELECT p.category, SUM(s.qty) FROM " + sales +
                 " s JOIN products p ON s.pid = p.pid WHERE s.qty >= " +
                 Str(q) +
                 " GROUP BY p.category";
        std::map<std::string, int64_t> agg;
        ForSales(site, [&](const Sale& s) {
          if (s.qty >= q) agg[products_[s.pid][3].AsString()] += s.qty;
        });
        for (const auto& [k, v] : agg) it.want.push_back({k, Str(v)});
        break;
      }
      case Kind::kSegmentDrill: {
        const std::string region = "r" + Str(rng.Range(0, kRegions - 1));
        const std::string segment = "s" + Str(rng.Range(0, kSegments - 1));
        it.sql = "SELECT s.sid, s.amount, c.name FROM " + sales +
                 " s JOIN customers c ON s.cid = c.cid WHERE c.region = '" +
                 region +
                 "' AND c.segment = '" + segment + "'";
        ForSales(site, [&](const Sale& s) {
          const Row& c = Customer(s.cid);
          if (c[2].AsString() == region && c[3].AsString() == segment) {
            it.want.push_back({Str(s.sid), Str(s.amount), c[1].AsString()});
          }
        });
        break;
      }
      case Kind::kTopN: {
        it.sql = "SELECT sid, cid, amount FROM " + sales + " WHERE " + window +
                 " ORDER BY amount DESC, sid LIMIT 20";
        std::vector<const Sale*> hits;
        ForSales(site, [&](const Sale& s) {
          if (in_window(s)) hits.push_back(&s);
        });
        std::sort(hits.begin(), hits.end(), [](const Sale* a, const Sale* b) {
          if (a->amount != b->amount) return a->amount > b->amount;
          return a->sid < b->sid;
        });
        hits.resize(std::min<size_t>(hits.size(), 20));
        for (const Sale* s : hits) {
          it.want.push_back({Str(s->sid), Str(s->cid), Str(s->amount)});
        }
        it.ordered = true;
        break;
      }
      case Kind::kExport:
      case Kind::kCursorExport: {
        const int64_t q = rng.Range(9, 10);
        const int64_t d = kDay0 + rng.Range(100, kDays - 1);
        it.sql = "SELECT sid, cid, pid, qty, amount, day, note FROM " + sales +
                 " WHERE qty >= " + Str(q) + " AND day < " + Str(d);
        ForSales(site, [&](const Sale& s) {
          if (s.qty >= q && s.day < d) {
            it.want.push_back({Str(s.sid), Str(s.cid), Str(s.pid), Str(s.qty),
                               Str(s.amount), Str(s.day), s.note});
          }
        });
        break;
      }
      case Kind::kReportTxn: {
        it.sql =
            "SELECT COUNT(*), SUM(amount) FROM " + sales + " WHERE " + window;
        it.sql2 = "SELECT c.segment, SUM(s.amount) FROM " + sales +
                  " s JOIN customers c ON s.cid = c.cid WHERE s." + window +
                  " GROUP BY c.segment";
        int64_t n = 0;
        std::map<std::string, int64_t> agg;
        ForSales(site, [&](const Sale& s) {
          if (!in_window(s)) return;
          ++n;
          it.total += s.amount;
          agg[Customer(s.cid)[3].AsString()] += s.amount;
        });
        it.want.push_back({Str(n), Str(it.total)});
        for (const auto& [k, v] : agg) it.want2.push_back({k, Str(v)});
        break;
      }
    }
    return it;
  }

  std::vector<Row> customers_;
  std::vector<Row> products_;
  std::vector<std::vector<Sale>> sales_;
  std::vector<Item> items_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytics() {
  return std::make_unique<Analytics>();
}

}  // namespace gbench
