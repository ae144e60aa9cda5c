#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "planner/cost_model.h"
#include "planner/decomposer.h"
#include "planner/logical_planner.h"
#include "planner/optimizer.h"
#include "sql/parser.h"

namespace gbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Exp(double mean) { return -mean * std::log(1.0 - Unit()); }

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void Harness::ShadowPlan(const OpSample& op, const std::string& sql) {
  if (tracer_ == nullptr) return;
  const uint64_t parent = last_call_;
  auto span = [&](const char* name, int64_t t0) {
    tracer_->Record(name, tracer_->NewId(), parent, op.op_id, t0, NowNs(), 0);
  };
  int64_t t0 = NowNs();
  auto stmt = gisql::sql::ParseStatement(sql);
  span("sql.parse", t0);
  if (!stmt.ok() || stmt->select == nullptr) return;

  gisql::Catalog& catalog = gis_->catalog();
  const gisql::PlannerOptions& options = gis_->options();
  t0 = NowNs();
  gisql::LogicalPlanner planner(catalog);
  auto plan = planner.Plan(*stmt->select);
  span("planner.bind", t0);
  if (!plan.ok()) return;

  t0 = NowNs();
  gisql::CostParams params;
  params.link = gis_->network().default_link();
  params.mediator_cpu_us_per_row = options.mediator_cpu_us_per_row;
  gisql::CostModel cost(catalog, params);
  gisql::Optimizer optimizer(catalog, options, &cost);
  auto optimized = optimizer.Optimize(std::move(*plan));
  span("planner.optimize", t0);
  if (!optimized.ok()) return;

  t0 = NowNs();
  gisql::Decomposer decomposer(catalog, options, &cost);
  auto decomposed = decomposer.Decompose(std::move(*optimized));
  span("planner.decompose", t0);
}

void Harness::Mismatch(OpSample* op, const std::string& what) {
  op->error = true;
  if (++mismatches_ <= 5) {
    std::fprintf(stderr, "answer check failed (op %llu): %s\n",
                 static_cast<unsigned long long>(op->op_id), what.c_str());
  }
}

Harness::Net Harness::ReadNet() {
  const gisql::MetricsRegistry& m = gis_->network().metrics();
  Net n;
  n.bytes = m.Get("net.bytes_sent") + m.Get("net.bytes_received");
  n.messages = m.Get("net.messages");
  n.sim_us = m.Get("net.sim_us");
  return n;
}

std::string Canon(const gisql::Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case gisql::TypeId::kInt64:
      return std::to_string(v.AsInt());
    case gisql::TypeId::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6f", v.AsDouble());
      return buf;
    }
    case gisql::TypeId::kString:
      return v.AsString();
    default:
      return v.ToString();
  }
}

std::vector<CanonRow> CanonRows(const gisql::RowBatch& batch) {
  std::vector<CanonRow> out;
  out.reserve(batch.num_rows());
  for (const auto& row : batch.rows()) {
    CanonRow r;
    r.reserve(row.size());
    for (const auto& v : row) r.push_back(Canon(v));
    out.push_back(std::move(r));
  }
  return out;
}

namespace {

std::string RowText(const CanonRow& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) s += (i ? ", " : "") + r[i];
  return s + ")";
}

}  // namespace

bool SameRows(std::vector<CanonRow> got, std::vector<CanonRow> want,
              bool ordered, std::string* why) {
  if (!ordered) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  if (got.size() != want.size()) {
    *why = "got " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      *why = "row " + std::to_string(i) + ": got " + RowText(got[i]) +
             ", want " + RowText(want[i]);
      return false;
    }
  }
  return true;
}

void Check(const gisql::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed at %s: %s\n", what,
                 st.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace gbench
