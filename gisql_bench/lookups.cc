/// \file lookups.cc
/// \brief `lookups`: open-loop traffic on the simulated clock. Every op
/// carries a pre-generated arrival time, a Zipf-skewed tenant and key,
/// and a priority, and goes through Submit (or OpenCursor) so admission
/// control decides its queueing; one flash crowd pushes the offered
/// rate past admission capacity, so queueing and shedding happen. The
/// result cache is on, queries are indexed point lookups and tiny
/// rollups, and the working set fits in the buffer pools: the
/// per-statement mediator cost (parse, plan, admission, bookkeeping,
/// cache lookup) is a large share of each op.
///
/// The caller is still one thread issuing ops back to back, so the wall
/// clock sees a closed loop; the simulated clock sees the open loop.

#include <algorithm>

#include "common.h"

namespace gbench {
namespace {

using gisql::GlobalSystem;
using gisql::Row;
using gisql::SourceDialect;
using gisql::Value;

constexpr int kUsers = 3000;
constexpr int kOrders = 6000;
constexpr int kTenants = 500;
constexpr size_t kItems = 20000;
constexpr double kBaseRatePerS = 400.0;   // offered load, simulated
constexpr double kFlashStartMs = 20000.0;
constexpr double kFlashLengthMs = 1500.0;
constexpr double kFlashFactor = 6.0;
constexpr int kRollupWidth = 20;
constexpr int kCursorWidth = 64;
constexpr double kPassGapMs = 1000.0;  // idle simulated time between passes

enum class Kind { kUser, kRollup, kJoin, kCursor, kSession };

struct Item {
  Kind kind;
  double arrival_ms;
  int priority;
  std::string tenant;
  std::string sql;
  std::vector<CanonRow> want;
  int64_t key = 0;
};

std::string Str(int64_t v) { return std::to_string(v); }

class Lookups : public Workload {
 public:
  const char* name() const override { return "lookups"; }
  double tail_quantile() const override { return 0.99; }
  size_t num_items() const override { return items_.size(); }
  std::vector<std::string> sources() const override {
    return {"udb", "odb", "sdb"};
  }

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    users_.clear();
    for (int u = 0; u < kUsers; ++u) {
      users_.push_back({Value::Int(u), Value::String("user" + Str(u)),
                        Value::String("tier" + Str(rng.Range(0, 3))),
                        Value::String("city" + Str(rng.Range(0, 99)))});
    }
    orders_.clear();
    for (int o = 0; o < kOrders; ++o) {
      orders_.push_back({Value::Int(o), Value::Int(rng.Range(0, kUsers - 1)),
                         Value::Int(rng.Range(100, 100000)),
                         Value::Int(19000 + rng.Range(0, 364))});
    }

    // Zipf-skewed keys and tenants, one sampler per distribution.
    const ZipfSampler user_key(kUsers, 0.99);
    const ZipfSampler order_key(kOrders - kCursorWidth, 0.99);
    const ZipfSampler tenant(kTenants, 1.0);
    items_.clear();
    items_.reserve(kItems);
    double t = 0.0;
    for (size_t i = 0; i < kItems; ++i) {
      const bool flash =
          t >= kFlashStartMs && t < kFlashStartMs + kFlashLengthMs;
      t += rng.Exp(1000.0 / (kBaseRatePerS * (flash ? kFlashFactor : 1.0)));
      Item it;
      it.arrival_ms = t;
      it.tenant = "t";
      it.tenant += Str(static_cast<int64_t>(tenant.Sample(rng)));
      const double p = rng.Unit();
      it.priority = p < 0.25 ? 2 : (p < 0.8 ? 1 : 0);
      const int64_t pick = rng.Range(0, 99);
      if (pick < 45) {
        it.kind = Kind::kUser;
        it.key = static_cast<int64_t>(user_key.Sample(rng));
        it.sql = "SELECT uid, name, tier, city FROM users WHERE uid = " +
                 Str(it.key);
        it.want.push_back(CanonOf(users_[it.key]));
      } else if (pick < 70) {
        it.kind = Kind::kRollup;
        it.key = static_cast<int64_t>(order_key.Sample(rng));
        const int64_t hi = it.key + kRollupWidth - 1;
        it.sql = "SELECT COUNT(*), SUM(amount) FROM orders WHERE oid BETWEEN " +
                 Str(it.key) + " AND " + Str(hi);
        int64_t sum = 0;
        for (int64_t o = it.key; o <= hi; ++o) sum += orders_[o][2].AsInt();
        it.want.push_back({Str(kRollupWidth), Str(sum)});
      } else if (pick < 90) {
        it.kind = Kind::kJoin;
        it.key = static_cast<int64_t>(order_key.Sample(rng));
        it.sql = "SELECT o.oid, o.amount, u.name FROM orders o JOIN users u "
                 "ON o.uid = u.uid WHERE o.oid = " + Str(it.key);
        const Row& o = orders_[it.key];
        it.want.push_back({Str(it.key), Str(o[2].AsInt()),
                           users_[o[1].AsInt()][1].AsString()});
      } else if (pick < 96) {
        // Background exports of a small order range, streamed.
        it.kind = Kind::kCursor;
        it.priority = 0;
        it.key = static_cast<int64_t>(order_key.Sample(rng));
        const int64_t hi = it.key + kCursorWidth - 1;
        it.sql = "SELECT oid, uid, amount FROM orders WHERE oid BETWEEN " +
                 Str(it.key) + " AND " + Str(hi);
        for (int64_t o = it.key; o <= hi; ++o) {
          it.want.push_back({Str(o), Str(orders_[o][1].AsInt()),
                             Str(orders_[o][2].AsInt())});
        }
      } else {
        // A signed-in user's session: read the profile and record the
        // session in one transaction.
        it.kind = Kind::kSession;
        it.key = static_cast<int64_t>(user_key.Sample(rng));
        it.sql = "SELECT name FROM users WHERE uid = " + Str(it.key);
        it.want.push_back({users_[it.key][1].AsString()});
      }
      items_.push_back(std::move(it));
    }
    span_ms_ = t + kPassGapMs;
  }

  std::unique_ptr<GlobalSystem> Setup(
      const gisql::PlannerOptions& options) override {
    auto gis = std::make_unique<GlobalSystem>(options);
    auto load = [&](const char* host, const char* ddl, const char* table,
                    std::vector<Row> rows) {
      auto src = gis->CreateSource(host, SourceDialect::kRelational);
      Check(src.status(), host);
      Check((*src)->ExecuteLocalSql(ddl), ddl);
      auto t = (*src)->engine().GetTable(table);
      Check(t.status(), table);
      Check((*t)->InsertUnchecked(std::move(rows)), table);
      Check(gis->ImportSource(host), host);
    };
    load("udb",
         "CREATE TABLE users (uid bigint, name varchar, tier varchar, "
         "city varchar)",
         "users", users_);
    load("odb",
         "CREATE TABLE orders (oid bigint, uid bigint, amount bigint, "
         "day bigint)",
         "orders", orders_);
    load("sdb", "CREATE TABLE sessions (sid bigint, uid bigint, at_ms bigint)",
         "sessions", {});
    gis->EnableResultCache(128);
    pass_ = 0;
    pass_offset_ms_ = 0.0;
    return gis;
  }

  void RunItem(Harness& h, size_t index, int pass,
               std::vector<OpSample>* out) override {
    const Item& item = items_[index];
    OpSample op = h.NewOp();
    GlobalSystem::SubmitOptions submit;
    if (pass != pass_) {
      // Fetches and in-transaction reads move the simulated clock past
      // the arrival schedule; a later pass starts after the clock, so
      // every pass sees the schedule the first one did.
      pass_ = pass;
      pass_offset_ms_ = std::max(pass_offset_ms_ + span_ms_,
                                 h.gis().governor().now_ms() + kPassGapMs);
    }
    submit.arrival_ms = item.arrival_ms + pass_offset_ms_;
    submit.priority = item.priority;
    submit.tenant = item.tenant;
    std::string why;
    switch (item.kind) {
      case Kind::kCursor:
        RunCursor(h, item, submit, &op);
        break;
      case Kind::kSession:
        RunSession(h, item, index, pass, &op);
        break;
      default: {
        auto r = h.Call(&op, "api.submit",
                        [&] { return h.gis().Submit(item.sql, submit); });
        if (!r.ok()) {
          if (r.status().IsOverloaded()) {
            op.refused = op.shed = true;
          } else {
            h.Mismatch(&op, r.status().ToString() + " in " + item.sql);
          }
          break;
        }
        h.ShadowPlan(op, item.sql);
        op.queue_wait_ms = r->metrics.admission_wait_ms;
        op.sim_ms = r->metrics.admission_wait_ms + r->metrics.elapsed_ms;
        op.result_rows = static_cast<int64_t>(r->batch.num_rows());
        if (!SameRows(CanonRows(r->batch), item.want, false, &why)) {
          h.Mismatch(&op, why + " in " + item.sql);
        }
      }
    }
    out->push_back(op);
  }

  bool FinalCheck(Harness& h, std::string* why) override {
    auto r = h.gis().Query("SELECT COUNT(*), SUM(amount) FROM orders");
    int64_t sum = 0;
    for (const Row& o : orders_) sum += o[2].AsInt();
    if (!r.ok() ||
        !SameRows(CanonRows(r->batch), {{Str(kOrders), Str(sum)}}, true, why)) {
      if (!r.ok()) *why = r.status().ToString();
      return false;
    }
    // Every committed session left exactly one row.
    r = h.gis().Query("SELECT COUNT(*) FROM sessions");
    if (!r.ok() || !SameRows(CanonRows(r->batch), {{Str(sessions_committed_)}},
                             true, why)) {
      if (!r.ok()) *why = r.status().ToString();
      return false;
    }
    return true;
  }

 private:
  static CanonRow CanonOf(const Row& row) {
    CanonRow r;
    for (const auto& v : row) r.push_back(Canon(v));
    return r;
  }

  void RunCursor(Harness& h, const Item& item,
                 const GlobalSystem::SubmitOptions& submit, OpSample* op) {
    GlobalSystem::CursorOptions copts;
    copts.submit = submit;
    // Two chunks per export. FetchChunk starts each fetch at the
    // governor's clock, which runs ahead of the arrival schedule by the
    // fetch time; more fetches per op than this lets the clock outrun
    // the arrivals and expire leases of cursors not yet fetched.
    copts.chunk_rows = kCursorWidth / 2;
    auto id = h.Call(op, "cursor.open",
                     [&] { return h.gis().OpenCursor(item.sql, copts); });
    if (!id.ok()) {
      if (id.status().IsOverloaded()) {
        op->refused = op->shed = true;
      } else {
        h.Mismatch(op, id.status().ToString() + " opening " + item.sql);
      }
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
    const auto log = h.gis().query_log().Snapshot();
    if (!log.empty()) {
      op->queue_wait_ms = log.back().admission_wait_ms;
      op->sim_ms = log.back().admission_wait_ms + log.back().elapsed_ms;
    }
    op->result_rows = static_cast<int64_t>(rows.size());
    std::string why;
    if (!SameRows(std::move(rows), item.want, false, &why)) {
      h.Mismatch(op, why + " in cursor " + item.sql);
    }
  }

  void RunSession(Harness& h, const Item& item, size_t index, int pass,
                  OpSample* op) {
    op->is_txn = true;
    auto id =
        h.Call(op, "txn.begin", [&] { return h.gis().BeginTransaction(); });
    if (!id.ok()) {
      h.Mismatch(op, id.status().ToString() + " at begin");
      return;
    }
    auto r = h.Call(op, "txn.read",
                    [&] { return h.gis().QueryInTxn(*id, item.sql); });
    if (!r.ok()) {
      h.Mismatch(op, r.status().ToString() + " in " + item.sql);
      (void)h.gis().AbortTransaction(*id);
      return;
    }
    h.ShadowPlan(*op, item.sql);
    op->sim_ms = r->metrics.elapsed_ms;
    op->result_rows = static_cast<int64_t>(r->batch.num_rows());
    std::string why;
    if (!SameRows(CanonRows(r->batch), item.want, false, &why)) {
      h.Mismatch(op, why + " in " + item.sql);
    }
    const int64_t sid =
        static_cast<int64_t>(pass) * static_cast<int64_t>(kItems) +
        static_cast<int64_t>(index);
    const std::string insert = "INSERT INTO sessions VALUES (" + Str(sid) +
                               ", " + Str(item.key) + ", " +
                               Str(static_cast<int64_t>(item.arrival_ms)) + ")";
    const int64_t net_us = op->net_sim_us;
    gisql::Status st = h.Call(
        op, "txn.write", [&] { return h.gis().TxnWrite(*id, "sdb", insert); });
    if (st.ok()) {
      st = h.Call(op, "txn.commit",
                  [&] { return h.gis().CommitTransaction(*id); });
    }
    // Writes and commit return no metrics: their simulated time is the
    // RPC time they spent.
    op->sim_ms += static_cast<double>(op->net_sim_us - net_us) / 1e3;
    if (!st.ok()) {
      // Every session inserts its own row: nothing can conflict.
      h.Mismatch(op, st.ToString() + " recording a session");
      (void)h.gis().AbortTransaction(*id);
    } else {
      ++sessions_committed_;
    }
  }

  std::vector<Row> users_;
  std::vector<Row> orders_;
  std::vector<Item> items_;
  double span_ms_ = 0.0;
  int pass_ = 0;
  double pass_offset_ms_ = 0.0;  // added to the arrivals of pass `pass_`
  int64_t sessions_committed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLookups() { return std::make_unique<Lookups>(); }

}  // namespace gbench
