/// \file common.h
/// \brief Shared pieces of gisql-bench: the seeded generator (RNG and a
/// precomputed Zipf sampler), the per-op sample, the harness that times
/// every call into gisql's public API, answer comparison, and the
/// workload interface the three workloads implement.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/global_system.h"
#include "trace.h"

namespace gbench {

/// \brief xoshiro256** seeded through splitmix64. The benchmark's own
/// generator: gisql's Rng is part of the program under test.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }
  bool Chance(double p) { return Unit() < p; }
  /// Exponential with the given mean.
  double Exp(double mean);

 private:
  uint64_t s_[4];
};

/// \brief Zipf over ranks [0, n) with exponent theta: the CDF is built
/// once, each draw is one binary search. One sampler per distribution,
/// so interleaved draws from several distributions cost the same as
/// draws from one.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// \brief One completed op as the caller saw it.
struct OpSample {
  uint64_t op_id = 0;
  size_t item = 0;         ///< the pre-generated item it came from
  int64_t wall_ns = 0;     ///< sum of the op's API calls, caller side
  double sim_ms = 0.0;     ///< simulated latency (sojourn under Submit)
  int64_t wire_bytes = 0;  ///< simulated WAN bytes, both directions
  int64_t messages = 0;    ///< simulated RPCs
  int64_t net_sim_us = 0;  ///< simulated RPC time summed over calls
  int64_t result_rows = 0;
  double queue_wait_ms = 0.0;  ///< simulated admission wait
  bool refused = false;    ///< shed by admission, or a txn aborted
  bool shed = false;       ///< refused by admission control
  bool error = false;      ///< an unexpected failure or a wrong answer
  bool is_txn = false;
  bool is_cursor = false;
};

/// \brief Times calls into gisql and, when a Tracer is attached,
/// records each one as a span together with a replay of its planning
/// stages.
class Harness {
 public:
  Harness(gisql::GlobalSystem* gis, Tracer* tracer)
      : gis_(gis), tracer_(tracer) {}

  gisql::GlobalSystem& gis() { return *gis_; }

  /// Simulated-network counters, read around every call.
  struct Net {
    int64_t bytes = 0;
    int64_t messages = 0;
    int64_t sim_us = 0;
  };
  Net ReadNet();

  /// Starts a new op; ids are unique over the run.
  OpSample NewOp() {
    OpSample s;
    s.op_id = ++next_op_;
    return s;
  }

  /// Runs `fn` as one API call of `op`, charging its wall time and its
  /// simulated traffic to the op and, when tracing, recording a span
  /// named `layer`.
  template <typename F>
  auto Call(OpSample* op, const char* layer, F&& fn) {
    uint64_t id = 0;
    if (tracer_ != nullptr) {
      id = tracer_->NewId();
      tracer_->SetCurrent(id, op->op_id);
    }
    const Net before = ReadNet();
    const int64_t t0 = NowNs();
    auto result = fn();
    const int64_t t1 = NowNs();
    const Net after = ReadNet();
    op->wall_ns += t1 - t0;
    op->wire_bytes += after.bytes - before.bytes;
    op->messages += after.messages - before.messages;
    op->net_sim_us += after.sim_us - before.sim_us;
    if (tracer_ != nullptr) {
      tracer_->SetCurrent(0, 0);
      tracer_->Record(layer, id, 0, op->op_id, t0, t1, 0);
      last_call_ = id;
    }
    return result;
  }

  /// When tracing, replays the planning of `sql` (parse, bind+plan,
  /// optimize, decompose) outside the timed call, as children of the
  /// last call. GlobalSystem runs these stages internally with no hook,
  /// so this replay against the same catalog and options is how the
  /// benchmark times them from outside.
  void ShadowPlan(const OpSample& op, const std::string& sql);

  /// Records a wrong answer or unexpected failure (first few printed).
  void Mismatch(OpSample* op, const std::string& what);

 private:
  gisql::GlobalSystem* gis_;
  Tracer* tracer_;
  uint64_t next_op_ = 0;
  uint64_t last_call_ = 0;
  int64_t mismatches_ = 0;
};

/// \brief A result row in canonical form: one string per cell.
using CanonRow = std::vector<std::string>;

/// \brief Canonical text of a cell: integers and strings exactly,
/// doubles to 6 decimals, NULL as "NULL".
std::string Canon(const gisql::Value& v);
std::vector<CanonRow> CanonRows(const gisql::RowBatch& batch);

/// \brief Compares an answer with the expected rows; when `ordered` is
/// false both sides are sorted first. On mismatch fills `why`.
bool SameRows(std::vector<CanonRow> got, std::vector<CanonRow> want,
              bool ordered, std::string* why);

/// \brief Aborts the run with a message: set-up cannot fail.
void Check(const gisql::Status& st, const char* what);

/// \brief One workload. Generate() makes data and ops from the seed
/// (untimed); Setup() builds a fresh federation (timed as setup_s);
/// RunItem() replays one pre-generated item, which may hold several
/// ops, checking every answer.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Percentile of the reported tail (wall_ms_tail, sim_ms_tail).
  virtual double tail_quantile() const = 0;
  virtual void Generate(uint64_t seed) = 0;
  virtual std::unique_ptr<gisql::GlobalSystem> Setup(
      const gisql::PlannerOptions& options) = 0;
  /// Called once on the kept federation before traffic starts.
  virtual void Prepare(gisql::GlobalSystem& gis) { (void)gis; }
  virtual size_t num_items() const = 0;
  virtual void RunItem(Harness& h, size_t item, int pass,
                       std::vector<OpSample>* out) = 0;
  /// End-of-run invariants; false with `why` on violation.
  virtual bool FinalCheck(Harness& h, std::string* why) = 0;
  /// Source host names, for probes and buffer-pool counters.
  virtual std::vector<std::string> sources() const = 0;
};

std::unique_ptr<Workload> MakeAnalytics();
std::unique_ptr<Workload> MakeLookups();
std::unique_ptr<Workload> MakeTxnMix();

}  // namespace gbench
