// Capture a query trace: run one tiered, sharded, traced query and export
// the recorded spans as Chrome-trace / Perfetto JSON.
//
//   $ ./example_trace_capture [trace.json]
//
// Open the file at https://ui.perfetto.dev (or chrome://tracing): one track
// per shard shows interpreter morsels until the background compile lands,
// the hot_swap instant, and the generated tail; the background-compiler
// track shows the overlapping compile; the main track shows the optimizer,
// cache probes, exchange, and the final partial merge. The same run feeds
// the process-wide metrics registry, printed in Prometheus text form.
//
// CI runs this binary as the trace smoke test and validates the JSON.
#include <cstdio>
#include <iostream>

#include "src/core/query_engine.h"
#include "src/datagen/tpch.h"
#include "src/storage/text_writers.h"

using namespace proteus;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "/tmp/proteus_trace.json";

  // A JSON lineitem file big enough to decompose into many morsels.
  const std::string data = "/tmp/trace_capture_lineitem.json";
  RowTable lineitem = datagen::GenLineitem(/*num_orders=*/400, /*seed=*/7);
  Status s = WriteJSONFile(data, lineitem);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  EngineOptions opts;
  opts.trace = true;
  opts.metrics = &obs::MetricsRegistry::Global();
  opts.tiered = true;      // interpreter-first cold start, hot-swap to JIT
  opts.num_shards = 2;     // partitioned fan-out with a partial exchange
  opts.num_threads = 2;    // morsel workers per shard
  opts.morsel_rows = 64;   // fine morsels: visible per-morsel spans
  // Pin the swap after one interpreted morsel per shard so the exported
  // trace always shows both engines (a real cold run swaps wherever the
  // compile lands; drop this line to watch the natural race).
  opts.tiered_opts.force_swap_after_morsels = 1;
  QueryEngine engine(opts);
  s = engine.RegisterDataset({.name = "lineitem",
                              .format = DataFormat::kJSON,
                              .path = data,
                              .type = datagen::LineitemSchema()});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  QueryTelemetry t;
  auto result = engine.Execute(
      "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem "
      "WHERE l_orderkey < 300",
      {.telemetry = &t});
  if (!result.ok()) {
    fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  obs::QueryTrace trace = engine.trace()->Snapshot();
  s = trace.WriteJsonFile(out_path);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  printf("result:\n%s\n", result->ToString().c_str());
  printf("shards=%d  morsels interpreted=%llu jit=%llu  swap at %.2f ms\n",
         t.shards_used, static_cast<unsigned long long>(t.morsels_interpreted),
         static_cast<unsigned long long>(t.morsels_jit), t.swap_ms);
  printf("trace: %zu events -> %s (open in https://ui.perfetto.dev)\n",
         trace.events.size(), out_path.c_str());
  printf("\nmetrics:\n");
  obs::MetricsRegistry::Global().WriteText(std::cout);
  return 0;
}
