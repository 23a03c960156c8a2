// §7 setup claim: "Proteus uses LLVM ... with the compilation time being at
// most ~50 ms per query". This bench measures IR generation + optimization +
// machine-code compilation per query class.
//
// The cold/warm variants measure the compiled-query cache: a fresh engine
// compiles on the first execution of each plan (cold) and must be served
// from the signature-keyed cache on re-execution (warm, compile ~0 ms) —
// the regime of a production engine serving heavy repeated traffic, where
// per-query codegen would otherwise be re-paid on every execution (and once
// per shard before the shared cache). The warm variants abort on a cache
// miss or a zero hit count, so CI can run them as a regression gate; the
// warm_after_unrelated_invalidate variants invalidate a dataset the query
// does not read before the warm run, which must still hit; the
// warm_after_refresh variants invalidate the dataset the query reads, whose
// file keeps its layout, so the reopened dataset must hit too (modules are
// keyed by dataset layout, not data); and the warm_new_literal variants run
// the warm query with another literal value (`< 100` -> `< 137`): the cache
// is keyed by plan shape, so that must hit as well.
#include "bench/bench_common.h"

namespace proteus {
namespace bench {
namespace {

/// Engine with the compiled-query cache disabled: this bench measures the
/// per-query codegen cost itself, so every iteration must really compile —
/// the shared Systems engine would serve iteration 2+ from its cache.
QueryEngine& CompileEngine() {
  static QueryEngine* engine = [] {
    EngineOptions opts = BenchEngineOptions();
    opts.jit_cache_capacity = 0;
    auto* e = new QueryEngine(opts);
    RegisterBenchDatasets(e);
    return e;
  }();
  return *engine;
}

double CompileMs(const std::string& q) {
  QueryEngine& e = CompileEngine();
  QueryTelemetry tel;
  auto r = e.Execute(q, {.telemetry = &tel});
  if (!r.ok()) {
    fprintf(stderr, "%s\n", r.status().ToString().c_str());
    std::abort();
  }
  if (!tel.used_jit) {
    fprintf(stderr, "query fell back to interpreter: %s\n", q.c_str());
  }
  return tel.compile_ms;
}

/// One cold tiered execution on a fresh engine (empty cache, background
/// compiler on). Aborts if the hot-swap never landed — on the bench corpus
/// the interpreted portion is long enough that a healthy background compile
/// must finish mid-query, so "never swapped" means the tiered path is broken
/// and the numbers would silently measure the plain interpreter.
struct TieredColdRunResult {
  double first_result_ms = 0;  ///< time to the first completed morsel chunk
  double total_ms = 0;         ///< full execution wall time, compile overlapped
};

TieredColdRunResult TieredColdRun(const std::string& q) {
  // Whether the compile lands mid-query is an OS-scheduling race on busy or
  // single-CPU runners; retry a few times so one unlucky interleaving doesn't
  // abort, while a *structurally* broken swap path (never lands on any
  // attempt) still does.
  constexpr int kAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    EngineOptions opts = BenchEngineOptions();
    opts.tiered = true;
    opts.num_threads = 2;
    // Fine morsels: the controller polls the compile at chunk boundaries, so
    // smaller morsels mean more swap opportunities (and a sharper
    // first_result) without changing any result.
    opts.morsel_rows = 1024;
    QueryEngine engine(opts);
    RegisterBenchDatasets(&engine);
    QueryTelemetry t;
    auto r = engine.Execute(q, {.telemetry = &t});
    if (!r.ok()) {
      fprintf(stderr, "tiered bench: %s\n  %s\n", q.c_str(), r.status().ToString().c_str());
      std::abort();
    }
    if (t.jit_cache_hit) {
      fprintf(stderr, "tiered bench: cold run was served warm: %s\n", q.c_str());
      std::abort();
    }
    if (t.morsels_jit == 0) {
      if (attempt < kAttempts) continue;
      fprintf(stderr,
              "tiered bench: background compile never landed in %d attempts, the "
              "hot-swap did not happen (%s): %s\n",
              kAttempts, t.fallback_reason.c_str(), q.c_str());
      std::abort();
    }
    return {t.first_morsel_ms, t.execute_ms};
  }
}

void Register() {
  std::vector<std::pair<std::string, std::string>> queries = {
      {"scan_count", "SELECT count(*) FROM lineitem_bin WHERE l_orderkey < 100"},
      {"scan_aggr4",
       "SELECT count(*), max(l_quantity), sum(l_extendedprice), min(l_discount) FROM "
       "lineitem_json WHERE l_orderkey < 100"},
      {"join",
       "SELECT count(*), max(o.o_totalprice) FROM orders_bin o JOIN lineitem_bin l ON "
       "o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 100"},
      {"groupby",
       "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bin GROUP BY "
       "l_linenumber"},
      {"unnest",
       "SELECT count(*) FROM orders_denorm o, UNNEST(o.lineitems) l WHERE "
       "l.l_quantity > 10.0"},
      {"three_way_join",
       "SELECT count(*) FROM spam_bin b JOIN spam_csv c ON b.mail_id = c.mail_id JOIN "
       "spam_json j ON c.mail_id = j.mail_id WHERE b.spam_score > 0.5"},
  };
  for (const auto& [name, q] : queries) {
    std::string query = q;
    RegisterMs("codegen_cost/" + name, [query] { return CompileMs(query); });
  }

  // Compiled-query cache: first execution vs cached re-execution, on the
  // fig05 (JSON projection/aggregation) and fig11 (JSON group-by) plan
  // shapes. Each cold iteration uses a fresh engine (empty cache); the
  // paired warm variant reports the re-execution's compile cost, which the
  // cache should hold at ~0 ms (the helper aborts on a miss / zero hits).
  // The third field, when set, is the query with a different literal value
  // for the warm_new_literal variant.
  struct CacheQuery {
    std::string name, query, new_literal;
  };
  std::vector<CacheQuery> cache_queries = {
      {"fig05_json_projection",
       "SELECT count(*), max(l_quantity), sum(l_extendedprice), min(l_discount) FROM "
       "lineitem_json WHERE l_orderkey < 100",
       "SELECT count(*), max(l_quantity), sum(l_extendedprice), min(l_discount) FROM "
       "lineitem_json WHERE l_orderkey < 137"},
      {"fig11_json_groupby",
       "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_json GROUP BY "
       "l_linenumber",
       ""},
  };
  for (const auto& [name, q, new_literal] : cache_queries) {
    std::string query = q;
    RegisterMs("codegen_cache/" + name + "/cold",
               [query] { return CacheColdWarm(query).cold_compile_ms; });
    RegisterMs("codegen_cache/" + name + "/warm",
               [query] { return CacheColdWarm(query).warm_compile_ms; });
    // Invalidating a dataset the plan does not read (spam_json) must leave
    // its module hot: the helper aborts on the warm run's cache miss.
    RegisterMs("codegen_cache/" + name + "/warm_after_unrelated_invalidate", [query] {
      return CacheColdWarm(query, /*warm_runs=*/1, "spam_json").warm_compile_ms;
    });
    // Invalidating the dataset the plan reads (lineitem_json) reopens the
    // same file: same layout, so the module must stay hot.
    RegisterMs("codegen_cache/" + name + "/warm_after_refresh", [query] {
      return CacheColdWarm(query, /*warm_runs=*/1, "lineitem_json").warm_compile_ms;
    });
    // A new literal value is the same plan shape: the helper aborts on the
    // warm run's cache miss.
    if (!new_literal.empty()) {
      std::string warm = new_literal;
      RegisterMs("codegen_cache/" + name + "/warm_new_literal", [query, warm] {
        return CacheColdWarm(query, /*warm_runs=*/1, "", warm).warm_compile_ms;
      });
    }
    // Tiered cold start on the same plan shapes: the interpreter serves the
    // first morsels while the module compiles in the background, then the
    // query hot-swaps to generated code. first_result is the time to the
    // first completed morsel chunk — the latency the tiered path exists to
    // shrink (compare against codegen_cache/.../cold, which the pure JIT
    // path pays *before* any tuple moves); total is full execution wall
    // time, compile overlapped.
    RegisterMs("tiered/" + name + "/first_result",
               [query] { return TieredColdRun(query).first_result_ms; });
    RegisterMs("tiered/" + name + "/total",
               [query] { return TieredColdRun(query).total_ms; });
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("codegen_cost");
}
