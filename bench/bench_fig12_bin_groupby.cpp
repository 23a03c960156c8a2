// Figure 12: aggregate (GROUP BY) queries over binary relational data.
// For the count-only query the columnar engine reads the group sizes off its
// hash buckets (the MonetDB optimization the paper describes); with more
// aggregates Proteus wins. Next to the paper's 7-group l_linenumber queries,
// Q4_highcard groups by l_orderkey — one group per order — so the per-group
// cost of the group table (upsert, morsel merge, finalize) dominates
// instead of the scan.
#include "bench/bench_common.h"

namespace proteus {
namespace bench {
namespace {

using baselines::AggKind;
using baselines::BenchQuery;

void Register() {
  struct Variant {
    const char* name;
    const char* proteus_aggs;
    std::vector<baselines::BenchAgg> aggs;
  };
  std::vector<Variant> variants = {
      {"Q1_aggr1", "count(*)", {{AggKind::kCount, ""}}},
      {"Q2_aggr3",
       "count(*), max(l_quantity), sum(l_extendedprice)",
       {{AggKind::kCount, ""},
        {AggKind::kMax, "l_quantity"},
        {AggKind::kSum, "l_extendedprice"}}},
      {"Q3_aggr4",
       "count(*), max(l_quantity), sum(l_extendedprice), min(l_discount)",
       {{AggKind::kCount, ""},
        {AggKind::kMax, "l_quantity"},
        {AggKind::kSum, "l_extendedprice"},
        {AggKind::kMin, "l_discount"}}},
  };
  for (const auto& v : variants) {
    for (int sel : Selectivities()) {
      int64_t key = KeyFor(sel);
      std::string tag = std::string("fig12/") + v.name + "/sel=" + std::to_string(sel) + "/";
      std::string q = std::string("SELECT l_linenumber, ") + v.proteus_aggs +
                      " FROM lineitem_bin WHERE l_orderkey < " + std::to_string(key) +
                      " GROUP BY l_linenumber";
      RegisterMs(tag + "Proteus", [q] { return ProteusMs(q); });

      BenchQuery bq;
      bq.table = "lineitem";
      bq.where = {{.col = "l_orderkey", .cmp = '<', .val = static_cast<double>(key)}};
      bq.aggs = v.aggs;
      bq.group_by = "l_linenumber";
      RegisterMs(tag + "RowStore", [bq] { return BaselineMs(Systems::Get().row, bq); });
      RegisterMs(tag + "Columnar", [bq] { return BaselineMs(Systems::Get().col, bq); });
      RegisterMs(tag + "Columnar_sorted",
                 [bq] { return BaselineMs(Systems::Get().col_sorted, bq); });
    }
  }

  const Variant highcard = variants[1];
  for (int sel : Selectivities()) {
    int64_t key = KeyFor(sel);
    std::string tag = "fig12/Q4_highcard/sel=" + std::to_string(sel) + "/";
    std::string q = std::string("SELECT l_orderkey, ") + highcard.proteus_aggs +
                    " FROM lineitem_bin WHERE l_orderkey < " + std::to_string(key) +
                    " GROUP BY l_orderkey";
    // Aborts if telemetry shows the interpreter served it: a generated
    // group-by that silently fell back would still print a plausible time.
    RegisterMs(tag + "Proteus", [q] {
      const QueryTelemetry tel = MeasuredRun(*Systems::Get().proteus, q, "proteus");
      if (!tel.used_jit) {
        fprintf(stderr, "proteus high-cardinality group-by fell back to the interpreter: %s\n",
                tel.fallback_reason.c_str());
        std::abort();
      }
      return tel.execute_ms;
    });
    BenchQuery bq;
    bq.table = "lineitem";
    bq.where = {{.col = "l_orderkey", .cmp = '<', .val = static_cast<double>(key)}};
    bq.aggs = highcard.aggs;
    bq.group_by = "l_orderkey";
    RegisterMs(tag + "Columnar", [bq] { return BaselineMs(Systems::Get().col, bq); });
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("fig12");
}
