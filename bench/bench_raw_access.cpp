// Raw access: what a query pays for the raw fields it reads (paper §5.2,
// lazy plug-ins). Generated scans read a field only where the plan first
// uses it, so a filter's other fields cost only for the rows that pass and
// a count(*) reads nothing at all. The variants are the shapes that show
// it, at one thread:
//
//   csv_count      SELECT count(*) over raw CSV (generated code)
//   csv_count_interp  the same count on the interpreter
//   csv_one_field  a one-field CSV filter
//   csv_range      a CSV range filter with two more aggregated fields
//   json_sel       a JSON filter with four aggregated fields
//   json_unnest    an unnest filter over array elements
//
// Every variant aborts if a generated variant's query left generated code,
// or if a count(*) scan reports a raw field access.
#include "bench/bench_common.h"

#include "src/common/counters.h"

namespace proteus {
namespace bench {
namespace {

constexpr int kIterations = 30;

struct Variant {
  const char* name;
  ExecMode mode;
  std::string query;
  bool count_only;  ///< a count(*) scan: must read no raw field
};

QueryEngine& EngineFor(ExecMode mode) {
  return mode == ExecMode::kJIT ? JitThreadedEngine(1) : ThreadedEngine(1);
}

/// One run of `v`; `guard` checks its route and its reads (the first run
/// of a dataset also reads fields to collect the optimizer's statistics).
double RunVariant(const Variant& v, bool guard) {
  QueryEngine& engine = EngineFor(v.mode);
  const uint64_t before = GlobalCounters().raw_field_accesses;
  const QueryTelemetry tel = MeasuredRun(engine, v.query, v.name);
  const uint64_t reads = GlobalCounters().raw_field_accesses - before;
  if (!guard) return tel.execute_ms;
  if (v.mode == ExecMode::kJIT && !tel.used_jit) {
    fprintf(stderr, "raw access guard: %s left generated code: %s\n", v.name,
            tel.fallback_reason.c_str());
    std::abort();
  }
  if (v.count_only && reads != 0) {
    fprintf(stderr, "raw access guard: %s read %llu raw fields for a count(*)\n", v.name,
            static_cast<unsigned long long>(reads));
    std::abort();
  }
  return tel.execute_ms;
}

void Register() {
  const std::vector<Variant> variants = {
      {"csv_count", ExecMode::kJIT, "SELECT count(*) FROM lineitem_csv", true},
      {"csv_count_interp", ExecMode::kInterp, "SELECT count(*) FROM lineitem_csv", true},
      {"csv_one_field", ExecMode::kJIT,
       "SELECT count(*) FROM lineitem_csv WHERE l_extendedprice > 30000", false},
      {"csv_range", ExecMode::kJIT,
       "SELECT count(*), sum(l_quantity), max(l_tax) FROM lineitem_csv "
       "WHERE l_extendedprice > 30000 and l_extendedprice < 60000",
       false},
      {"json_sel", ExecMode::kJIT,
       "SELECT count(*), max(l_quantity), sum(l_extendedprice), min(l_discount) "
       "FROM lineitem_json WHERE l_orderkey < 1500",
       false},
      {"json_unnest", ExecMode::kJIT,
       "SELECT count(*), sum(l.l_extendedprice), max(o.o_totalprice) "
       "FROM orders_denorm o, UNNEST(o.lineitems) l WHERE l.l_quantity > 10",
       false},
  };
  for (const Variant& v : variants) {
    const std::string name = std::string("raw_access/") + v.name;
    benchmark::RegisterBenchmark(name.c_str(), [v, name](benchmark::State& state) {
      RunVariant(v, /*guard=*/false);  // warm-up: opens the file, compiles the module
      for (auto _ : state) {
        const double ms = RunVariant(v, /*guard=*/true);
        BenchReport::Get().Record(name, ms);
        state.SetIterationTime(ms / 1000.0);
      }
    })->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(kIterations);
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("raw_access");
}
