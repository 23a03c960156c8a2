// Figure 9: join and unnest queries over JSON data.
// Join template: SELECT AGG(o.val)... FROM orders o JOIN lineitem l ON
// o_orderkey = l_orderkey WHERE l_orderkey < X. The "Q4_unnest" variant runs
// the COUNT over denormalized JSON (orders embedding lineitem arrays) —
// document stores lack joins, so the paper compares unnest there. The
// "Q6_stringjoin" variant joins orders with itself on a string key.
// DocStore joins go through its map-reduce path (COUNT variant only, as the
// paper lists MongoDB only for the first query "as an indication").
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
    std::vector<baselines::BenchAgg> probe_aggs;
    std::vector<baselines::BenchAgg> build_aggs;
  };
  std::vector<Variant> variants = {
      {"Q1_count", "count(*)", {{AggKind::kCount, ""}}, {}},
      {"Q2_max", "max(o.o_totalprice)", {}, {{AggKind::kMax, "o_totalprice"}}},
      {"Q3_aggr2",
       "count(*), max(o.o_totalprice)",
       {{AggKind::kCount, ""}},
       {{AggKind::kMax, "o_totalprice"}}},
  };
  for (const auto& v : variants) {
    for (int sel : Selectivities()) {
      int64_t key = KeyFor(sel);
      std::string tag = std::string("fig09/") + v.name + "/sel=" + std::to_string(sel) + "/";
      std::string q = std::string("SELECT ") + v.proteus_aggs +
                      " FROM orders_json o JOIN lineitem_json l ON o.o_orderkey = "
                      "l.l_orderkey WHERE l.l_orderkey < " +
                      std::to_string(key);
      RegisterMs(tag + "Proteus", [q] { return ProteusMs(q); });
      // Morsel-parallel scaling: build + probe fan out over the scheduler.
      if (sel == 100) {
        for (int threads : ThreadCounts()) {
          RegisterMs(tag + "Proteus_parallel/threads=" + std::to_string(threads),
                     [q, threads] { return ThreadedMs(threads, q); });
        }
        // Parallel JIT pipelines: the same fan-out through generated code
        // (build once, range-parameterized probe per morsel).
        for (int threads : ThreadCounts()) {
          RegisterMs(tag + "Proteus_jit_parallel/threads=" + std::to_string(threads),
                     [q, threads] { return JitThreadedMs(threads, q); });
        }
        // Partitioned scale-out: the probe scan's morsels deal out to shard
        // executors; partials merge through the serialized wire format.
        for (int shards : ShardCounts()) {
          RegisterMs(tag + "Proteus_sharded/shards=" + std::to_string(shards),
                     [q, shards] { return ShardedMs(shards, q); });
        }
      }

      BenchQuery bq;
      bq.table = "lineitem";
      bq.where = {{.col = "l_orderkey", .cmp = '<', .val = static_cast<double>(key)}};
      bq.aggs = v.probe_aggs;
      bq.build_aggs = v.build_aggs;
      bq.join_table = "orders";
      bq.probe_key = "l_orderkey";
      bq.build_key = "o_orderkey";
      RegisterMs(tag + "RowStore_jsonb",
                 [bq] { return BaselineMs(Systems::Get().row, bq); });
      if (std::string(v.name) == "Q1_count") {
        RegisterMs(tag + "DocStore_mapreduce",
                   [bq] { return BaselineMs(Systems::Get().doc, bq); });
      }
    }
  }
  // Q4: unnest over denormalized JSON.
  for (int sel : Selectivities()) {
    int64_t key = KeyFor(sel);
    std::string tag = "fig09/Q4_unnest/sel=" + std::to_string(sel) + "/";
    std::string q =
        "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE "
        "l.l_orderkey < " +
        std::to_string(key);
    // Aborts if telemetry shows the interpreter served it: generated
    // element reads that silently fell back would still print a plausible
    // time (same guard as Q5_outerjoin).
    RegisterMs(tag + "Proteus", [q] {
      const QueryTelemetry tel = MeasuredRun(*Systems::Get().proteus, q, "proteus");
      if (!tel.used_jit) {
        fprintf(stderr, "proteus unnest fell back to the interpreter: %s\n",
                tel.fallback_reason.c_str());
        std::abort();
      }
      return tel.execute_ms;
    });
    BenchQuery bq;
    bq.table = "denorm";
    bq.aggs = {{AggKind::kCount, ""}};
    bq.unnest_path = "lineitems";
    bq.unnest_where = {{.col = "l_orderkey", .cmp = '<', .val = static_cast<double>(key)}};
    RegisterMs(tag + "RowStore_jsonb", [bq] { return BaselineMs(Systems::Get().row, bq); });
    RegisterMs(tag + "DocStore_native", [bq] { return BaselineMs(Systems::Get().doc, bq); });
  }
  // Q6: string-key join — an orders self-join on o_comment, its build side
  // cut to a few orders so the answer stays linear in the probe side, never
  // empty. String keys probe the generated radix table by the hash of their
  // bytes; aborts if telemetry shows the interpreter served it.
  for (int sel : Selectivities()) {
    const std::string tag = "fig09/Q6_stringjoin/sel=" + std::to_string(sel) + "/";
    const std::string q =
        "SELECT count(*), max(a.o_totalprice) FROM orders_json a JOIN orders_json b ON "
        "a.o_comment = b.o_comment WHERE b.o_orderkey < 8 AND a.o_orderkey < " +
        std::to_string(KeyFor(sel));
    RegisterMs(tag + "Proteus", [q] {
      const QueryTelemetry tel = MeasuredRun(*Systems::Get().proteus, q, "proteus");
      if (!tel.used_jit) {
        fprintf(stderr, "proteus string-key join fell back to the interpreter: %s\n",
                tel.fallback_reason.c_str());
        std::abort();
      }
      return tel.execute_ms;
    });
  }
  // Q5: outer join through the parallel generated engine (matched-build
  // bitmaps + generated unmatched-drain pass). Built directly on the algebra
  // — the SQL frontend does not expose outer joins. Aborts if telemetry
  // shows the interpreter silently served it: a jit_parallel variant that
  // measured the interpreter would be exactly the reporting bug the
  // telemetry work closed (same guard as JitThreadedMs).
  for (int threads : ThreadCounts()) {
    std::string tag =
        "fig09/Q5_outerjoin/sel=100/Proteus_jit_parallel/threads=" + std::to_string(threads);
    RegisterMs(tag, [threads] {
      QueryEngine& e = JitThreadedEngine(threads);
      OpPtr scan_o = Operator::Scan("orders_json", "o");
      OpPtr scan_l = Operator::Scan("lineitem_json", "l");
      ExprPtr pred = Expr::Bin(BinOp::kEq, Expr::Proj(Expr::Var("o"), "o_orderkey"),
                               Expr::Proj(Expr::Var("l"), "l_orderkey"));
      OpPtr join = Operator::Join(std::move(scan_o), std::move(scan_l), std::move(pred),
                                  /*outer=*/true);
      OpPtr plan = Operator::Reduce(
          std::move(join),
          {{Monoid::kCount, nullptr, "n"},
           {Monoid::kMax, Expr::Proj(Expr::Var("o"), "o_totalprice"), "maxp"}});
      QueryTelemetry tel;
      auto r = e.ExecutePlan(std::move(plan), {.telemetry = &tel});
      if (!r.ok()) {
        fprintf(stderr, "proteus jit[%d threads] outer join failed: %s\n", threads,
                r.status().ToString().c_str());
        std::abort();
      }
      if (!tel.used_jit || !tel.jit_parallel) {
        fprintf(stderr,
                "proteus jit[%d threads] outer join fell back to the interpreter: %s\n",
                threads, tel.fallback_reason.c_str());
        std::abort();
      }
      return tel.execute_ms;
    });
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("fig09");
}
