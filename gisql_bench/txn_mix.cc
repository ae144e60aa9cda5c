/// \file txn_mix.cc
/// \brief `txn_mix`: writes beside reads. Each round opens with a
/// balance inquiry per bank, then interleaves several interactive
/// transactions on Zipf-hot keys of two banks, statement by statement:
/// a snapshot read, DELETE+INSERT of the row at one bank and, for a
/// share of them, a transfer leg at the other bank, so that lock
/// conflicts, write-write conflicts and deadlocks occur. A snapshot
/// reader and cached aggregate readers run beside them, and every few
/// rounds an auditor streams a wide key range of one bank through a
/// cursor. This drives page writes, version chains, GC and cache
/// invalidation, and the txn, 2PC and lock-manager layers the other
/// workloads barely touch. Each bank holds about twice its buffer pool,
/// so writes reach the disk and the index rebuilt after every write
/// costs page reads.
///
/// The benchmark keeps a model of every balance, updated only on
/// commit. Every read, snapshot sum, cached sum and audited row must
/// equal the model; a commit whose read went stale (a lost update) is a
/// failure; at the end the banks must hold exactly the model, so the
/// total equals the initial total plus the committed deltas and aborted
/// transactions left no trace.

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace gbench {
namespace {

using gisql::GlobalSystem;
using gisql::Row;
using gisql::SourceDialect;
using gisql::Value;

constexpr int kKeys = 10000;
constexpr int64_t kInitialBalance = 10000;
constexpr int kWriters = 4;       // interleaved transactions per round
constexpr size_t kItems = 96;     // rounds
constexpr int kAuditEvery = 3;    // rounds between cursor audits
constexpr const char* kBanks[2] = {"bank_a", "bank_b"};
constexpr const char* kAccounts[2] = {"acct_a", "acct_b"};

// A free-text memo per account makes rows wide (about 100 bytes).
const std::string kMemo =
    "standing order to the clearing house for the settlement of monthly "
    "invoices net thirty days";

struct Writer {
  int key;
  int bank;          // primary bank
  bool transfer;     // also moves `delta` out of the other bank
  int64_t delta;     // added at the primary bank
};

struct Round {
  std::vector<Writer> writers;
  bool audit;
  int audit_bank;
  int audit_lo;  // audited key range [audit_lo, audit_hi]
  int audit_hi;
  int inquiry[2];  // the key each bank's balance inquiry reads
};

std::string Str(int64_t v) { return std::to_string(v); }

class TxnMix : public Workload {
 public:
  const char* name() const override { return "txn_mix"; }
  // About 700 ops a pass: p98 leaves over ten samples beyond the tail.
  double tail_quantile() const override { return 0.98; }
  size_t num_items() const override { return rounds_.size(); }
  std::vector<std::string> sources() const override {
    return {kBanks[0], kBanks[1]};
  }

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    memos_.clear();
    for (int k = 0; k < kKeys; ++k) {
      memos_.push_back("acct " + Str(rng.Range(0, 1 << 30)) + " " +
                       kMemo.substr(0, static_cast<size_t>(rng.Range(50, 90))));
    }
    // Hot ranks map to keys scattered over the table's pages.
    std::vector<int> by_rank(kKeys);
    for (int k = 0; k < kKeys; ++k) by_rank[k] = k;
    for (int k = kKeys - 1; k > 0; --k) {
      std::swap(by_rank[k], by_rank[rng.Range(0, k)]);
    }
    const ZipfSampler hot(kKeys, 1.3);
    rounds_.clear();
    for (size_t r = 0; r < kItems; ++r) {
      Round round;
      for (int w = 0; w < kWriters; ++w) {
        Writer wr;
        wr.key = by_rank[hot.Sample(rng)];
        wr.bank = static_cast<int>(rng.Range(0, 1));
        wr.transfer = rng.Chance(0.5);
        wr.delta = wr.transfer ? rng.Range(1, 100) : rng.Range(-50, 100);
        round.writers.push_back(wr);
      }
      for (int& key : round.inquiry) key = by_rank[hot.Sample(rng)];
      round.audit = r % kAuditEvery == kAuditEvery - 1;
      round.audit_bank = static_cast<int>(rng.Range(0, 1));
      round.audit_lo = static_cast<int>(rng.Range(0, kKeys / 4));
      round.audit_hi = round.audit_lo + static_cast<int>(rng.Range(
                                            kKeys / 2, kKeys * 3 / 4));
      rounds_.push_back(std::move(round));
    }
  }

  std::unique_ptr<GlobalSystem> Setup(
      const gisql::PlannerOptions& options) override {
    auto gis = std::make_unique<GlobalSystem>(options);
    for (int b = 0; b < 2; ++b) {
      auto src = gis->CreateSource(kBanks[b], SourceDialect::kRelational);
      Check(src.status(), kBanks[b]);
      Check((*src)->ExecuteLocalSql(
                "CREATE TABLE accounts (id bigint, bal bigint, memo varchar)"),
            "accounts");
      auto t = (*src)->engine().GetTable("accounts");
      Check(t.status(), "accounts");
      std::vector<Row> rows;
      for (int k = 0; k < kKeys; ++k) {
        rows.push_back({Value::Int(k), Value::Int(kInitialBalance),
                        Value::String(memos_[k])});
      }
      Check((*t)->InsertUnchecked(std::move(rows)), "accounts");
      Check(gis->ImportTable(kBanks[b], "accounts", kAccounts[b]), "import");
    }
    gis->EnableResultCache(128);
    // The model restarts with every fresh federation.
    for (auto& bank : model_) bank.fill(kInitialBalance);
    deposits_ = 0;
    return gis;
  }

  void RunItem(Harness& h, size_t index, int pass,
               std::vector<OpSample>* out) override {
    (void)pass;
    const Round& round = rounds_[index];
    GlobalSystem& gis = h.gis();

    // A balance inquiry per bank opens the round. It is the first read
    // since the last round's commits, so it pays for rebuilding the
    // bank's index and the writers' reads do not.
    for (int b = 0; b < 2; ++b) out->push_back(Inquiry(h, b, round.inquiry[b]));

    // Open every writer, then run their statements in turns, one
    // statement per writer per turn, so their locks genuinely overlap.
    std::vector<Live> live;
    for (const Writer& w : round.writers) {
      Live l;
      l.w = w;
      l.op = h.NewOp();
      l.op.is_txn = true;
      auto id = h.Call(&l.op, "txn.begin",
                       [&] { return gis.BeginTransaction(); });
      if (!id.ok()) {
        h.Mismatch(&l.op, id.status().ToString() + " at begin");
        l.pc = kDone;
      } else {
        l.id = *id;
      }
      live.push_back(std::move(l));
    }
    for (bool busy = true; busy;) {
      busy = false;
      for (Live& l : live) {
        if (l.pc == kDone) continue;
        Turn(h, &l);
        busy = true;
      }
    }
    for (Live& l : live) out->push_back(l.op);

    out->push_back(SnapshotReader(h));
    for (int b = 0; b < 2; ++b) out->push_back(CachedReader(h, b));
    if (round.audit) out->push_back(Audit(h, round));
  }

  bool FinalCheck(Harness& h, std::string* why) override {
    for (int b = 0; b < 2; ++b) {
      auto r =
          h.gis().Query(std::string("SELECT id, bal FROM ") + kAccounts[b]);
      if (!r.ok()) {
        *why = r.status().ToString();
        return false;
      }
      if (!SameRows(CanonRows(r->batch), ModelRows(b, 0, kKeys - 1), false,
                    why)) {
        *why = std::string(kBanks[b]) +
               " differs from the committed model: " + *why;
        return false;
      }
    }
    const int64_t total = ModelSum(0) + ModelSum(1);
    if (total != 2 * kKeys * kInitialBalance + deposits_) {
      *why = "total " + Str(total) + " is not the initial total plus deposits";
      return false;
    }
    return true;
  }

 private:
  /// A writer's statements, one per turn: its reads; DELETE+INSERT at
  /// its bank; a pause; DELETE+INSERT at the other bank (transfers
  /// only, else no-ops); commit. Transfers lock the two banks in
  /// opposite orders, so waits-for cycles occur.
  enum Stmt {
    kRead,
    kDelPrimary,
    kInsPrimary,
    kPause,
    kDelOther,
    kInsOther,
    kCommit,
    kDone
  };

  /// Turns a writer may spend blocked on one statement before it gives
  /// up; long enough for the holder to commit and the waiter to meet
  /// the write-write conflict.
  static constexpr int kMaxWaits = 8;

  struct Live {
    Writer w;
    OpSample op;
    uint64_t id = 0;
    int pc = kRead;
    int waits = 0;
    int64_t read_p = 0;
    int64_t read_o = 0;
  };

  /// Runs the writer's next statement. A lock conflict without a cycle
  /// (Overloaded) leaves it blocked, to retry next turn; a deadlock, a
  /// write-write conflict or too long a wait aborts it.
  void Turn(Harness& h, Live* l) {
    GlobalSystem& gis = h.gis();
    const Writer& w = l->w;
    OpSample* op = &l->op;
    const int other = 1 - w.bank;
    const std::string key = Str(w.key);
    auto read = [&](int bank, int64_t* into) {
      const std::string sql = std::string("SELECT bal FROM ") +
                              kAccounts[bank] + " WHERE id = " + key;
      auto r = h.Call(op, "txn.read",
                      [&] { return gis.QueryInTxn(l->id, sql); });
      if (!r.ok()) return r.status();
      h.ShadowPlan(*op, sql);
      op->sim_ms += r->metrics.elapsed_ms;
      op->result_rows += static_cast<int64_t>(r->batch.num_rows());
      // Every round's reads come before its first commit, so the
      // snapshot is the model as it stands.
      const std::string want = Str(model_[bank][w.key]);
      if (r->batch.num_rows() != 1 || Canon(r->batch.rows()[0][0]) != want) {
        h.Mismatch(op, "snapshot read of " + sql + " is not " + want);
      } else {
        *into = r->batch.rows()[0][0].AsInt();
      }
      return gisql::Status::OK();
    };
    // Writes and commit return no metrics: their simulated time is the
    // RPC time they spent.
    auto timed = [&](const char* layer, auto&& fn) {
      const int64_t s0 = op->net_sim_us;
      gisql::Status s = h.Call(op, layer, fn);
      op->sim_ms += static_cast<double>(op->net_sim_us - s0) / 1e3;
      return s;
    };
    auto del = [&](int bank) {
      return timed("txn.write", [&] {
        return gis.TxnWrite(l->id, kBanks[bank],
                            "DELETE FROM accounts WHERE id = " + key);
      });
    };
    auto ins = [&](int bank, int64_t bal) {
      return timed("txn.write", [&] {
        return gis.TxnWrite(l->id, kBanks[bank],
                            "INSERT INTO accounts VALUES (" + key + ", " +
                                Str(bal) + ", '" + memos_[w.key] + "')");
      });
    };
    gisql::Status st = gisql::Status::OK();
    switch (l->pc) {
      case kRead:
        st = read(w.bank, &l->read_p);
        if (st.ok() && w.transfer) st = read(other, &l->read_o);
        break;
      case kDelPrimary:
        st = del(w.bank);
        break;
      case kInsPrimary:
        st = ins(w.bank, l->read_p + w.delta);
        break;
      case kDelOther:
        if (w.transfer) st = del(other);
        break;
      case kInsOther:
        if (w.transfer) st = ins(other, l->read_o - w.delta);
        break;
      case kCommit:
        st = timed("txn.commit", [&] { return gis.CommitTransaction(l->id); });
        if (st.ok()) {
          // First committer wins: a commit over a stale read would be a
          // lost update.
          if (model_[w.bank][w.key] != l->read_p ||
              (w.transfer && model_[other][w.key] != l->read_o)) {
            h.Mismatch(op, "lost update on key " + key);
          }
          model_[w.bank][w.key] = l->read_p + w.delta;
          if (w.transfer) {
            model_[other][w.key] = l->read_o - w.delta;
          } else {
            deposits_ += w.delta;
          }
        }
        break;
      default:
        break;
    }
    if (st.ok()) {
      ++l->pc;
      l->waits = 0;
      return;
    }
    if (st.IsOverloaded() && ++l->waits <= kMaxWaits) return;
    const std::string msg = st.message();
    const bool expected =
        st.IsOverloaded() || (st.IsExecutionError() &&
                              (msg.find("deadlock") != std::string::npos ||
                               msg.find("conflict") != std::string::npos));
    if (expected) {
      op->refused = true;
    } else {
      h.Mismatch(op, st.ToString() + " in a writer");
    }
    (void)h.Call(op, "txn.abort", [&] { return gis.AbortTransaction(l->id); });
    l->pc = kDone;
  }

  OpSample SnapshotReader(Harness& h) {
    GlobalSystem& gis = h.gis();
    OpSample op = h.NewOp();
    op.is_txn = true;
    auto id = h.Call(&op, "txn.begin", [&] { return gis.BeginTransaction(); });
    if (!id.ok()) {
      h.Mismatch(&op, id.status().ToString() + " at begin");
      return op;
    }
    for (int b = 0; b < 2; ++b) {
      const std::string sql =
          std::string("SELECT COUNT(*), SUM(bal) FROM ") + kAccounts[b];
      auto r =
          h.Call(&op, "txn.read", [&] { return gis.QueryInTxn(*id, sql); });
      if (!r.ok()) {
        h.Mismatch(&op, r.status().ToString() + " in " + sql);
        break;
      }
      h.ShadowPlan(op, sql);
      op.sim_ms += r->metrics.elapsed_ms;
      op.result_rows += static_cast<int64_t>(r->batch.num_rows());
      std::string why;
      if (!SameRows(CanonRows(r->batch), {{Str(kKeys), Str(ModelSum(b))}}, true,
                    &why)) {
        h.Mismatch(&op, why + " in snapshot " + sql);
      }
    }
    const int64_t s0 = op.net_sim_us;
    gisql::Status st =
        h.Call(&op, "txn.commit", [&] { return gis.CommitTransaction(*id); });
    op.sim_ms += static_cast<double>(op.net_sim_us - s0) / 1e3;
    if (!st.ok()) h.Mismatch(&op, st.ToString() + " committing a reader");
    return op;
  }

  OpSample Inquiry(Harness& h, int bank, int key) {
    OpSample op = h.NewOp();
    const std::string sql = std::string("SELECT bal FROM ") +
                            kAccounts[bank] + " WHERE id = " + Str(key);
    auto r = h.Call(&op, "api.query", [&] { return h.gis().Query(sql); });
    if (!r.ok()) {
      h.Mismatch(&op, r.status().ToString() + " in " + sql);
      return op;
    }
    h.ShadowPlan(op, sql);
    op.sim_ms = r->metrics.elapsed_ms;
    op.result_rows = static_cast<int64_t>(r->batch.num_rows());
    std::string why;
    if (!SameRows(CanonRows(r->batch), {{Str(model_[bank][key])}}, true,
                  &why)) {
      h.Mismatch(&op, why + " in " + sql);
    }
    return op;
  }

  OpSample CachedReader(Harness& h, int bank) {
    OpSample op = h.NewOp();
    const std::string sql =
        std::string("SELECT SUM(bal) FROM ") + kAccounts[bank];
    auto r = h.Call(&op, "api.query", [&] { return h.gis().Query(sql); });
    if (!r.ok()) {
      h.Mismatch(&op, r.status().ToString() + " in " + sql);
      return op;
    }
    h.ShadowPlan(op, sql);
    op.sim_ms = r->metrics.elapsed_ms;
    op.result_rows = static_cast<int64_t>(r->batch.num_rows());
    std::string why;
    // A cached sum must have been invalidated by every commit since.
    if (!SameRows(CanonRows(r->batch), {{Str(ModelSum(bank))}}, true, &why)) {
      h.Mismatch(&op, why + " in " + sql);
    }
    return op;
  }

  OpSample Audit(Harness& h, const Round& round) {
    OpSample op = h.NewOp();
    op.is_cursor = true;
    const int bank = round.audit_bank;
    const std::string sql =
        std::string("SELECT id, bal FROM ") + kAccounts[bank] +
        " WHERE id BETWEEN " + Str(round.audit_lo) + " AND " +
        Str(round.audit_hi);
    GlobalSystem::CursorOptions copts;
    copts.chunk_rows = 256;
    auto id = h.Call(&op, "cursor.open",
                     [&] { return h.gis().OpenCursor(sql, copts); });
    if (!id.ok()) {
      h.Mismatch(&op, id.status().ToString() + " opening " + sql);
      return op;
    }
    h.ShadowPlan(op, sql);
    std::vector<CanonRow> rows;
    while (true) {
      auto chunk = h.Call(&op, "cursor.fetch",
                          [&] { return h.gis().FetchChunk(*id); });
      if (!chunk.ok()) {
        h.Mismatch(&op, chunk.status().ToString() + " fetching " + sql);
        (void)h.gis().CloseCursor(*id);
        return op;
      }
      for (auto& r : CanonRows(chunk->batch)) rows.push_back(std::move(r));
      if (chunk->done) break;
    }
    const auto log = h.gis().query_log().Snapshot();
    if (!log.empty()) op.sim_ms = log.back().elapsed_ms;
    op.result_rows = static_cast<int64_t>(rows.size());
    std::string why;
    if (!SameRows(std::move(rows),
                  ModelRows(bank, round.audit_lo, round.audit_hi), false,
                  &why)) {
      h.Mismatch(&op, why + " auditing " + sql);
    }
    return op;
  }

  int64_t ModelSum(int bank) const {
    int64_t s = 0;
    for (int64_t v : model_[bank]) s += v;
    return s;
  }

  /// The model's rows of `bank` with keys in [lo, hi].
  std::vector<CanonRow> ModelRows(int bank, int lo, int hi) const {
    std::vector<CanonRow> rows;
    for (int k = lo; k <= hi; ++k) {
      rows.push_back({Str(k), Str(model_[bank][k])});
    }
    return rows;
  }

  std::vector<std::string> memos_;
  std::vector<Round> rounds_;
  std::array<std::array<int64_t, kKeys>, 2> model_{};
  int64_t deposits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTxnMix() { return std::make_unique<TxnMix>(); }

}  // namespace gbench
