#include "workload/generator.h"

#include "common/rng.h"

namespace gisql {

Status BuildRetailFederation(GlobalSystem* gis, const WorkloadSpec& spec) {
  Rng rng(spec.seed);

  // hq: customers.
  GISQL_ASSIGN_OR_RETURN(
      ComponentSource * hq,
      gis->CreateSource("hq", SourceDialect::kRelational));
  GISQL_RETURN_NOT_OK(hq->ExecuteLocalSql(
      "CREATE TABLE customers (cid bigint, name varchar, region varchar, "
      "segment varchar)"));
  {
    GISQL_ASSIGN_OR_RETURN(TablePtr t, hq->engine().GetTable("customers"));
    std::vector<Row> rows;
    rows.reserve(spec.num_customers);
    for (int i = 0; i < spec.num_customers; ++i) {
      rows.push_back(
          {Value::Int(i), Value::String("cust_" + rng.NextString(8)),
           Value::String("region" +
                         std::to_string(rng.Uniform(0, spec.num_regions - 1))),
           Value::String("seg" + std::to_string(rng.Uniform(0, 4)))});
    }
    GISQL_RETURN_NOT_OK(t->InsertUnchecked(std::move(rows)));
  }
  GISQL_RETURN_NOT_OK(gis->ImportSource("hq"));

  // catalog: products.
  GISQL_ASSIGN_OR_RETURN(
      ComponentSource * cat,
      gis->CreateSource("catalog", SourceDialect::kRelational));
  GISQL_RETURN_NOT_OK(cat->ExecuteLocalSql(
      "CREATE TABLE products (pid bigint, pname varchar, price double, "
      "category varchar)"));
  {
    GISQL_ASSIGN_OR_RETURN(TablePtr t, cat->engine().GetTable("products"));
    std::vector<Row> rows;
    rows.reserve(spec.num_products);
    for (int i = 0; i < spec.num_products; ++i) {
      rows.push_back(
          {Value::Int(i), Value::String("prod_" + rng.NextString(6)),
           Value::Double(1.0 + static_cast<double>(rng.Uniform(100, 99999)) /
                                   100.0),
           Value::String("cat" + std::to_string(rng.Uniform(0, 9)))});
    }
    GISQL_RETURN_NOT_OK(t->InsertUnchecked(std::move(rows)));
  }
  GISQL_RETURN_NOT_OK(gis->ImportSource("catalog"));

  // Sites: sales shards.
  std::vector<std::string> members;
  int64_t next_sid = 0;
  const ZipfSampler product_zipf(spec.num_products, spec.zipf_theta);
  for (int s = 0; s < spec.num_sites; ++s) {
    const SourceDialect dialect =
        spec.site_dialects.empty()
            ? SourceDialect::kRelational
            : spec.site_dialects[s % spec.site_dialects.size()];
    const std::string name = "site" + std::to_string(s);
    GISQL_ASSIGN_OR_RETURN(ComponentSource * site,
                           gis->CreateSource(name, dialect));
    GISQL_RETURN_NOT_OK(site->ExecuteLocalSql(
        "CREATE TABLE sales (sid bigint, cid bigint, pid bigint, "
        "qty bigint, amount double, day bigint)"));
    GISQL_ASSIGN_OR_RETURN(TablePtr t, site->engine().GetTable("sales"));
    std::vector<Row> rows;
    rows.reserve(spec.orders_per_site);
    for (int i = 0; i < spec.orders_per_site; ++i) {
      const int64_t pid =
          spec.zipf_theta > 0.0
              ? product_zipf.Sample(rng) - 1
              : rng.Uniform(0, spec.num_products - 1);
      const int64_t qty = rng.Uniform(1, 10);
      rows.push_back(
          {Value::Int(next_sid++),
           Value::Int(rng.Uniform(0, spec.num_customers - 1)),
           Value::Int(pid), Value::Int(qty),
           Value::Double(static_cast<double>(qty) *
                         (1.0 + static_cast<double>(rng.Uniform(0, 9999)) /
                                    100.0)),
           Value::Int(rng.Uniform(19000, 19365))});
    }
    GISQL_RETURN_NOT_OK(t->InsertUnchecked(std::move(rows)));
    const std::string global = "sales_" + name;
    GISQL_RETURN_NOT_OK(gis->ImportTable(name, "sales", global));
    members.push_back(global);
  }
  return gis->CreateUnionView("sales", members);
}

}  // namespace gisql
