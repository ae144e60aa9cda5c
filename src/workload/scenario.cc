#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace gisql {

namespace {

/// One parameterized query shape. `streamable` marks the templates the
/// streamed mode routes through cursors (filter/project pipelines the
/// planner keeps free of blocking operators).
struct QueryTemplate {
  const char* name;
  bool streamable;
  std::string (*sql)(const ScenarioSpec&, int64_t tenant, Rng&);
};

/// Hot tenants map onto hot customers: the tenant's Zipf rank is taken
/// modulo the customer domain, so tenant skew becomes data skew.
int64_t TenantCid(const ScenarioSpec& spec, int64_t tenant) {
  return tenant % spec.num_customers;
}

const QueryTemplate kTemplates[] = {
    // 0 (hottest): a tenant pulls their order lines — streamable
    // filter over the sales union view.
    {"tenant-orders", true,
     [](const ScenarioSpec& spec, int64_t tenant, Rng&) {
       return "SELECT sid, pid, amount FROM sales WHERE cid = " +
              std::to_string(TenantCid(spec, tenant));
     }},
    // 1: product point lookup — streamable single-fragment fetch.
    {"product-lookup", true,
     [](const ScenarioSpec& spec, int64_t, Rng& rng) {
       return "SELECT pname, price FROM products WHERE pid = " +
              std::to_string(rng.Uniform(0, spec.num_products - 1));
     }},
    // 2: a tenant's account rollup — blocking aggregate.
    {"tenant-rollup", false,
     [](const ScenarioSpec& spec, int64_t tenant, Rng&) {
       return "SELECT COUNT(*), SUM(amount) FROM sales WHERE cid = " +
              std::to_string(TenantCid(spec, tenant));
     }},
    // 3: big-ticket scan — streamable filter, wider result.
    {"big-tickets", true,
     [](const ScenarioSpec&, int64_t, Rng& rng) {
       return "SELECT sid, cid, amount FROM sales WHERE amount > " +
              std::to_string(400 + 10 * rng.Uniform(0, 19));
     }},
    // 4 (coldest): per-day product report — blocking group-by + sort.
    {"product-report", false,
     [](const ScenarioSpec& spec, int64_t, Rng& rng) {
       return "SELECT day, SUM(qty) FROM sales WHERE pid = " +
              std::to_string(rng.Uniform(0, spec.num_products - 1)) +
              " GROUP BY day ORDER BY day";
     }},
};
constexpr int kNumTemplates =
    static_cast<int>(sizeof(kTemplates) / sizeof(kTemplates[0]));

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

/// Classifies a refusal by the governor's message; anything the
/// classifier does not recognize is a real failure.
char DecisionOf(const Status& st) {
  if (!st.IsOverloaded()) return 'F';
  const std::string& m = st.message();
  if (m.find("deadline") != std::string::npos) return 'D';
  if (m.find("queue") != std::string::npos) return 'Q';
  if (m.find("cursor") != std::string::npos) return 'C';
  if (m.find("memory") != std::string::npos) return 'M';
  return 'F';
}

}  // namespace

double ScenarioOfferedRate(const ScenarioSpec& spec, double t_ms) {
  double rate = spec.base_qps / 1000.0;
  if (spec.diurnal_amplitude > 0.0 && spec.diurnal_period_ms > 0.0) {
    rate *= 1.0 + spec.diurnal_amplitude *
                      std::sin(2.0 * M_PI * t_ms / spec.diurnal_period_ms);
  }
  for (const FlashCrowd& fc : spec.flash_crowds) {
    if (t_ms >= fc.start_ms && t_ms < fc.start_ms + fc.duration_ms) {
      rate *= fc.multiplier;
    }
  }
  return std::max(rate, 0.0);
}

int ScenarioTemplateCount() { return kNumTemplates; }

Result<ScenarioReport> RunScenario(GlobalSystem* gis,
                                   const ScenarioSpec& spec) {
  if (spec.base_qps <= 0.0 || spec.duration_ms <= 0.0) {
    return Status::InvalidArgument(
        "a scenario needs positive base_qps and duration_ms");
  }
  if (spec.num_tenants <= 0 || spec.num_customers <= 0 ||
      spec.num_products <= 0) {
    return Status::InvalidArgument(
        "a scenario needs positive tenant/customer/product domains");
  }

  // Thinning bound: the rate can never exceed base × the diurnal crest
  // × the largest flash multiplier (crowds are steps, so the product
  // of overlapping crowds bounds via their product).
  double flash_max = 1.0;
  {
    double overlap = 1.0;
    for (const FlashCrowd& fc : spec.flash_crowds) {
      if (fc.multiplier > 1.0) overlap *= fc.multiplier;
    }
    flash_max = std::max(flash_max, overlap);
  }
  const double lambda_max =
      (spec.base_qps / 1000.0) * (1.0 + spec.diurnal_amplitude) * flash_max;

  Rng rng(spec.seed);
  ScenarioReport report;
  std::vector<double> sojourns;
  std::vector<double> tail_sojourns;

  const ZipfSampler tenant_zipf(spec.num_tenants, spec.tenant_zipf_theta);
  const ZipfSampler template_zipf(kNumTemplates, spec.template_zipf_theta);
  double t = 0.0;
  while (true) {
    // Homogeneous arrivals at lambda_max, thinned down to λ(t): the
    // textbook non-homogeneous Poisson construction, fully determined
    // by the seed.
    const double u = rng.NextDouble();
    t += -std::log(1.0 - u) / lambda_max;
    if (t >= spec.duration_ms) break;
    if (rng.NextDouble() >= ScenarioOfferedRate(spec, t) / lambda_max) {
      continue;  // thinned: no arrival at this instant
    }

    const int64_t tenant = tenant_zipf.Sample(rng) - 1;
    int tmpl_rank = static_cast<int>(template_zipf.Sample(rng) - 1);
    // Mid-run shift: swap the hottest and the shift rank after the
    // boundary. A post-draw relabeling, so the RNG sequence — and with
    // it every other arrival property — is unchanged by the shift.
    if (spec.template_shift_ms >= 0.0 && t >= spec.template_shift_ms &&
        spec.template_shift_rank > 0 &&
        spec.template_shift_rank < kNumTemplates) {
      if (tmpl_rank == 0) {
        tmpl_rank = spec.template_shift_rank;
      } else if (tmpl_rank == spec.template_shift_rank) {
        tmpl_rank = 0;
      }
    }
    const QueryTemplate& tmpl = kTemplates[tmpl_rank];
    const std::string sql = tmpl.sql(spec, tenant, rng);

    GlobalSystem::SubmitOptions submit;
    submit.arrival_ms = t;
    // The Zipf rank becomes the accountable principal, so gis.tenants
    // reproduces the workload's skew directly.
    submit.tenant = "t" + std::to_string(tenant);
    const double pri = rng.NextDouble();
    submit.priority = pri < spec.interactive_fraction          ? 2
                      : pri < spec.interactive_fraction +
                                  spec.background_fraction     ? 0
                                                               : 1;
    ++report.offered;

    double sojourn = 0.0;
    bool ok = false;
    Status error;
    if (spec.use_cursors && tmpl.streamable) {
      GlobalSystem::CursorOptions copts;
      copts.submit = submit;
      copts.chunk_rows = spec.chunk_rows;
      auto id = gis->OpenCursor(sql, copts);
      if (id.ok()) {
        ++report.streamed_queries;
        ok = true;
        while (true) {
          auto chunk = gis->FetchChunk(*id);
          if (!chunk.ok()) {
            ok = false;
            error = chunk.status();
            break;
          }
          ++report.total_chunks;
          report.total_rows += static_cast<int64_t>(chunk->batch.num_rows());
          sojourn += chunk->metrics.elapsed_ms;
          if (chunk->done) break;
        }
      } else {
        error = id.status();
      }
    } else {
      auto r = gis->Submit(sql, submit);
      if (r.ok()) {
        ok = true;
        sojourn = r->metrics.admission_wait_ms + r->metrics.elapsed_ms;
        report.total_rows += static_cast<int64_t>(r->batch.num_rows());
      } else {
        error = r.status();
      }
    }

    if (ok) {
      ++report.completed;
      report.decisions += 'A';
      sojourns.push_back(sojourn);
      if (spec.report_tail_from_ms >= 0.0 && t >= spec.report_tail_from_ms) {
        tail_sojourns.push_back(sojourn);
      }
      if (sojourn <= spec.slo_ms) ++report.slo_hits;
      continue;
    }
    const char d = DecisionOf(error);
    report.decisions += d;
    switch (d) {
      case 'Q':
        ++report.shed_queue;
        break;
      case 'D':
        ++report.shed_deadline;
        break;
      case 'M':
        ++report.shed_memory;
        break;
      case 'C':
        ++report.shed_cursor;
        break;
      default:
        ++report.failed;
        // Overload is a scenario outcome; anything else is a broken
        // scenario and the caller should see it immediately.
        return Status(error.code(), "scenario query failed: " +
                                        error.message() + " (sql: " + sql +
                                        ")");
    }
  }

  std::sort(sojourns.begin(), sojourns.end());
  report.p50_ms = Percentile(sojourns, 0.50);
  report.p95_ms = Percentile(sojourns, 0.95);
  report.p99_ms = Percentile(sojourns, 0.99);
  report.p999_ms = Percentile(sojourns, 0.999);
  report.slo_attainment =
      report.offered > 0
          ? static_cast<double>(report.slo_hits) / report.offered
          : 0.0;
  std::sort(tail_sojourns.begin(), tail_sojourns.end());
  report.tail_completed = static_cast<int64_t>(tail_sojourns.size());
  report.tail_p50_ms = Percentile(tail_sojourns, 0.50);
  report.tail_p95_ms = Percentile(tail_sojourns, 0.95);
  report.mem_peak_bytes = gis->governor().memory().peak();
  return report;
}

}  // namespace gisql
