// Figure 13: effect of adaptive caching on (a) a projection-intensive and
// (b) a selection-intensive query over JSON data.
//
// "Baseline" is the Proteus configuration of the other figures (caching
// off). "CachedPredicate" runs on an engine whose caches were already
// populated by an earlier query (we prime them, mirroring the paper's
// setup), so predicate/projection fields are served from binary columns.
// The benchmark prints both times; the figure's speedup is their ratio.
#include "bench/bench_common.h"

namespace proteus {
namespace bench {
namespace {

QueryEngine& CachedEngine() {
  static QueryEngine* engine = [] {
    EngineOptions opts = BenchEngineOptions();
    opts.cache_policy.enabled = true;
    auto* e = new QueryEngine(opts);
    RegisterBenchDatasets(e);
    // Prime: a query touching the fields of interest populates the caches
    // as a side-effect (the Q16-style first access).
    auto r = e->Execute(
        "SELECT count(*), max(l_quantity), sum(l_extendedprice), min(l_discount), "
        "sum(l_tax) FROM lineitem_json WHERE l_orderkey >= 0");
    if (!r.ok()) {
      fprintf(stderr, "prime: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    return e;
  }();
  return *engine;
}

double CachedMs(const std::string& q) {
  QueryTelemetry tel;
  auto r = CachedEngine().Execute(q, {.telemetry = &tel});
  if (!r.ok()) {
    fprintf(stderr, "cached: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  if (!tel.used_cache) {
    fprintf(stderr, "warning: query did not hit the cache: %s\n", q.c_str());
  }
  return tel.execute_ms;
}

void Register() {
  for (int sel : Selectivities()) {
    int64_t key = KeyFor(sel);
    // (a) projection template: selection + 4 projected aggregates.
    std::string proj =
        "SELECT max(l_quantity), sum(l_extendedprice), min(l_discount), sum(l_tax) "
        "FROM lineitem_json WHERE l_orderkey < " +
        std::to_string(key);
    std::string tag = "fig13/projection/sel=" + std::to_string(sel) + "/";
    RegisterMs(tag + "Baseline", [proj] { return ProteusMs(proj); });
    RegisterMs(tag + "CachedPredicate", [proj] { return CachedMs(proj); });

    // (b) selection template: 4 predicates, COUNT.
    std::string selq =
        "SELECT count(*) FROM lineitem_json WHERE l_orderkey < " + std::to_string(key) +
        " and l_quantity < 45.0 and l_discount < 0.09 and l_tax < 0.07";
    std::string tag2 = "fig13/selection/sel=" + std::to_string(sel) + "/";
    RegisterMs(tag2 + "Baseline", [selq] { return ProteusMs(selq); });
    RegisterMs(tag2 + "CachedPredicate", [selq] { return CachedMs(selq); });
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();

  // Print the figure's speedup series and cache footprint.
  using namespace proteus::bench;
  auto& eng = CachedEngine();
  size_t cache_bytes = eng.caches().total_bytes();
  size_t file_bytes = std::filesystem::file_size(BenchCorpus::Get().dir + "/lineitem.json");
  printf("\n-- Figure 13 summary --\n");
  printf("cache size: %.2f%% of the JSON file (%zu / %zu bytes)\n",
         100.0 * cache_bytes / file_bytes, cache_bytes, file_bytes);
  for (int sel : Selectivities()) {
    int64_t key = KeyFor(sel);
    std::string proj =
        "SELECT max(l_quantity), sum(l_extendedprice), min(l_discount), sum(l_tax) "
        "FROM lineitem_json WHERE l_orderkey < " +
        std::to_string(key);
    std::string selq =
        "SELECT count(*) FROM lineitem_json WHERE l_orderkey < " + std::to_string(key) +
        " and l_quantity < 45.0 and l_discount < 0.09 and l_tax < 0.07";
    double pb = ProteusMs(proj), pc = CachedMs(proj);
    double sb = ProteusMs(selq), sc = CachedMs(selq);
    printf("sel=%3d%%  projection speedup %5.2fx   selection speedup %5.2fx\n", sel,
           pb / pc, sb / sc);
  }
  return WriteBenchReport("fig13");
}
