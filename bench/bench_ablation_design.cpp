// Ablations for the design choices DESIGN.md calls out:
//   (a) JSON structural index modes: fixed-schema deterministic slots vs
//       Level-0 associative lookup (paper §5.2 "Specializing per Dataset
//       Contents") — same query, files written with/without field-order
//       shuffling.
//   (b) CSV structural index stride sweep: denser sampling = bigger index,
//       cheaper far-field access (paper stores every Nth field position).
//   (c) Cache policy: caching strings vs OID-based hybrid reads
//       (paper §6 "Cache Policies" avoids caching variable-length strings).
#include "bench/bench_common.h"

#include "src/plugins/csv_plugin.h"
#include "src/plugins/json_plugin.h"

namespace proteus {
namespace bench {
namespace {

// ---- (a) JSON index modes -------------------------------------------------

double JsonReadAll(JsonPlugin* p, const FieldPath& path) {
  return WallMs([&] {
    double acc = 0;
    for (uint64_t oid = 0; oid < p->NumRecords(); ++oid) {
      auto v = p->ReadValue(oid, path);
      if (v.ok() && !v->is_null()) acc += v->AsFloat();
    }
    benchmark::DoNotOptimize(acc);
  });
}

void RegisterJsonModes() {
  const BenchCorpus& c = BenchCorpus::Get();
  // Ordered file: all objects share one field order -> fixed-schema mode.
  std::string ordered = c.dir + "/lineitem_ordered.json";
  if (!std::filesystem::exists(ordered)) {
    Status s = WriteJSONFile(ordered, c.lineitem, {});
    if (!s.ok()) std::abort();
  }
  auto make = [&](const std::string& path, bool exploit) {
    DatasetInfo info{.name = "abl_json", .format = DataFormat::kJSON, .path = path,
                     .type = datagen::LineitemSchema()};
    info.json.exploit_fixed_schema = exploit;
    auto p = std::make_shared<JsonPlugin>(info);
    if (!p->Open().ok()) std::abort();
    return p;
  };
  auto fixed = make(ordered, true);
  auto level0_forced = make(ordered, false);       // same data, Level 0 kept
  auto shuffled = make(c.dir + "/lineitem.json", true);  // arbitrary order

  RegisterMs("ablation/json_index/fixed_schema_slots",
             [fixed] { return JsonReadAll(fixed.get(), {"l_tax"}); });
  RegisterMs("ablation/json_index/level0_lookup",
             [level0_forced] { return JsonReadAll(level0_forced.get(), {"l_tax"}); });
  RegisterMs("ablation/json_index/level0_shuffled_order",
             [shuffled] { return JsonReadAll(shuffled.get(), {"l_tax"}); });
  printf("-- JSON index bytes: fixed=%zu level0=%zu (fixed saves %.1f%%)\n",
         fixed->StructuralIndexBytes(), level0_forced->StructuralIndexBytes(),
         100.0 - 100.0 * fixed->StructuralIndexBytes() /
                     level0_forced->StructuralIndexBytes());
}

// ---- (b) CSV stride sweep ---------------------------------------------------

void RegisterCsvStride() {
  const BenchCorpus& c = BenchCorpus::Get();
  // Variable-width CSV is required, or the fixed-width fast path kicks in;
  // the lineitem comment strings give variable rows.
  for (int stride : {1, 2, 5, 10}) {
    DatasetInfo info{.name = "abl_csv", .format = DataFormat::kCSV,
                     .path = c.dir + "/lineitem.csv", .type = datagen::LineitemSchema()};
    info.csv.index_stride = stride;
    auto p = std::make_shared<CsvPlugin>(info);
    if (!p->Open().ok()) std::abort();
    printf("-- CSV stride %2d: index bytes %zu%s\n", stride, p->StructuralIndexBytes(),
           p->fixed_width() ? " [fixed-width: stride moot]" : "");
    RegisterMs("ablation/csv_stride/" + std::to_string(stride) + "/read_last_field",
               [p] {
                 return WallMs([&] {
                   double acc = 0;
                   for (uint64_t oid = 0; oid < p->NumRecords(); ++oid) {
                     auto v = p->ReadValue(oid, {"l_tax"});
                     if (v.ok()) acc += v->AsFloat();
                   }
                   benchmark::DoNotOptimize(acc);
                 });
               });
  }
}

// ---- (c) Cache string policy ------------------------------------------------

void RegisterCachePolicy() {
  auto run = [](bool cache_strings) {
    EngineOptions opts = BenchEngineOptions();
    opts.cache_policy.enabled = true;
    opts.cache_policy.cache_strings = cache_strings;
    auto engine = std::make_shared<QueryEngine>(opts);
    RegisterBenchDatasets(engine.get());
    std::string q =
        "SELECT count(*) FROM lineitem_json WHERE l_shipmode = 'AIR' and "
        "l_orderkey < " +
        std::to_string(KeyFor(50));
    auto prime = engine->Execute(q);  // builds caches
    if (!prime.ok()) std::abort();
    return std::make_pair(engine, q);
  };
  auto [with_strings, q1] = run(true);
  auto [without_strings, q2] = run(false);
  printf("-- cache bytes: strings cached=%zu, hybrid OID reads=%zu\n",
         with_strings->caches().total_bytes(), without_strings->caches().total_bytes());
  auto engine_w = with_strings;
  std::string qw = q1;
  RegisterMs("ablation/cache_policy/strings_cached", [engine_w, qw] {
    QueryTelemetry tel;
    auto r = engine_w->Execute(qw, {.telemetry = &tel});
    if (!r.ok()) std::abort();
    return tel.execute_ms;
  });
  auto engine_n = without_strings;
  std::string qn = q2;
  RegisterMs("ablation/cache_policy/hybrid_oid_reads", [engine_n, qn] {
    QueryTelemetry tel;
    auto r = engine_n->Execute(qn, {.telemetry = &tel});
    if (!r.ok()) std::abort();
    return tel.execute_ms;
  });
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::RegisterJsonModes();
  proteus::bench::RegisterCsvStride();
  proteus::bench::RegisterCachePolicy();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("ablation");
}
