// Observability tests: the trace recorder (lock-free per-thread span
// buffers, Chrome-trace JSON export), the metrics registry (counters,
// gauges, percentile histograms), and the engine wiring of both.
//
// The headline structural test is the ISSUE's acceptance scenario: one
// tiered, sharded, traced query whose exported trace shows the compiled-
// query-cache probe, the background compile, interpreter morsels before the
// hot-swap, generated morsels after it, the per-shard exchange, and the
// final partial merge. The recorder's concurrency contract (threads append
// lock-free while another thread snapshots) is exercised directly so the
// TSan CI job sees the real interleavings.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

// Small morsels so the ~240-row corpus yields several morsels per shard.
constexpr uint64_t kTestMorselRows = 16;

// ---------------------------------------------------------------------------
// TraceRecorder core
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RecordsSpansInstantsAndArgs) {
  obs::TraceRecorder rec;
  {
    obs::TraceSpan span(&rec, "outer", "k", 7);
    obs::TraceSpan inner(&rec, "inner");
    (void)inner;
  }
  rec.Instant("tick", "morsel", 3);
  obs::QueryTrace t = rec.Snapshot();
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_TRUE(t.HasSpan("outer"));
  EXPECT_TRUE(t.HasSpan("inner"));
  EXPECT_EQ(t.CountSpans("tick"), 1u);
  for (const auto& e : t.events) {
    if (std::string(e.name) == "tick") {
      EXPECT_TRUE(e.instant());
      EXPECT_STREQ(e.arg0_name, "morsel");
      EXPECT_EQ(e.arg0, 3);
    }
    if (std::string(e.name) == "outer") {
      EXPECT_STREQ(e.arg0_name, "k");
      EXPECT_EQ(e.arg0, 7);
    }
  }
}

TEST(TraceRecorder, NestedSpansAreContainedInTheirParent) {
  obs::TraceRecorder rec;
  {
    obs::TraceSpan outer(&rec, "outer");
    {
      obs::TraceSpan inner(&rec, "inner");
      (void)inner;
    }
    (void)outer;
  }
  obs::QueryTrace t = rec.Snapshot();
  double o_begin = 0, o_end = 0, i_begin = 0, i_end = 0;
  ASSERT_TRUE(t.TimeBounds("outer", &o_begin, &o_end));
  ASSERT_TRUE(t.TimeBounds("inner", &i_begin, &i_end));
  EXPECT_LE(o_begin, i_begin);
  EXPECT_GE(o_end, i_end);
}

TEST(TraceRecorder, NullRecorderIsANoOp) {
  // The single-branch disabled path: every instrumentation site must accept
  // a null recorder.
  obs::TraceSpan span(nullptr, "nothing", "k", 1);
  span.set_arg0("k2", 2);
  OBS_SPAN(nullptr, "also_nothing");
}

TEST(TraceRecorder, ClearIsASnapshotFloorNotATruncation) {
  obs::TraceRecorder rec;
  rec.Instant("before");
  EXPECT_EQ(rec.Snapshot().events.size(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.Snapshot().events.size(), 0u);
  EXPECT_EQ(rec.TotalEvents(), 0u);
  rec.Instant("after");
  obs::QueryTrace t = rec.Snapshot();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_STREQ(t.events[0].name, "after");
}

// Writers on many threads, a reader snapshotting concurrently — the exact
// Capture handles: per-observer snapshot floors, independent of the
// process-global Clear(). This is the regression test for the bug where
// Clear() — which any query could issue — silently moved the floor under a
// concurrent observer and amputated its window.
TEST(TraceRecorder, CapturesArePerObserverAndSurviveClear) {
  obs::TraceRecorder rec;
  rec.Instant("a");
  obs::TraceRecorder::Capture cap1 = rec.BeginCapture();
  rec.Instant("b");
  obs::TraceRecorder::Capture cap2 = rec.BeginCapture();
  rec.Instant("c");

  // Each capture sees exactly the events after its own floor; the legacy
  // snapshot still sees everything since the last Clear.
  EXPECT_EQ(rec.Snapshot(cap1).events.size(), 2u);  // b, c
  EXPECT_EQ(rec.Snapshot(cap2).events.size(), 1u);  // c
  EXPECT_EQ(rec.Snapshot().events.size(), 3u);      // a, b, c

  // A global Clear moves the legacy floor but must NOT hide events from the
  // still-open captures.
  rec.Clear();
  rec.Instant("d");
  EXPECT_EQ(rec.Snapshot().events.size(), 1u);      // d
  obs::QueryTrace t1 = rec.Snapshot(cap1);
  ASSERT_EQ(t1.events.size(), 3u);                  // b, c, d — Clear changed nothing
  EXPECT_STREQ(t1.events[0].name, "b");
  EXPECT_STREQ(t1.events[2].name, "d");
  EXPECT_EQ(rec.Snapshot(cap2).events.size(), 2u);  // c, d

  // A thread that starts publishing only after the capture began falls off
  // the end of the floor vector and is captured from zero.
  std::thread late([&] { rec.Instant("late"); });
  late.join();
  EXPECT_EQ(rec.Snapshot(cap1).events.size(), 4u);
}

// interleaving the TSan job must see racing-free. Each thread owns its
// buffer; the snapshot reads only release-published slots.
TEST(TraceRecorder, ConcurrentWritersAndSnapshots) {
  obs::TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::QueryTrace t = rec.Snapshot();
      // Every observed event must be fully published (name never null).
      for (const auto& e : t.events) ASSERT_NE(e.name, nullptr);
    }
  });
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
      writers.emplace_back([&, w] {
        rec.LabelThisThread("writer-" + std::to_string(w));
        for (int i = 0; i < kSpansPerThread; ++i) {
          OBS_SPAN(&rec, "work", "i", i);
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  obs::QueryTrace t = rec.Snapshot();
  EXPECT_EQ(t.CountSpans("work"), static_cast<size_t>(kThreads) * kSpansPerThread);
  // Each writer thread got its own track and label.
  size_t labeled = 0;
  for (const auto& [tid, name] : t.thread_names) {
    if (name.rfind("writer-", 0) == 0) ++labeled;
  }
  EXPECT_EQ(labeled, static_cast<size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Trace JSON export
// ---------------------------------------------------------------------------

// Minimal structural JSON validation (no parser dependency): balanced
// braces/brackets outside strings, and legal string escapes.
void ExpectStructurallyValidJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control character inside a JSON string at offset " << i;
      if (c == '\\') {
        ++i;  // escaped char, checked non-empty by the loop bound
        ASSERT_LT(i, s.size());
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced close at offset " << i;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceJson, ExportIsChromeTraceShapedAndEscaped) {
  obs::TraceRecorder rec;
  rec.LabelThisThread("needs \"escaping\"\n\t\\");
  {
    OBS_SPAN(&rec, "span_a", "morsel", 1, "rows", 42);
  }
  rec.Instant("swap");
  std::ostringstream out;
  rec.Snapshot().WriteJson(out);
  const std::string json = out.str();
  ExpectStructurallyValidJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name metadata
  EXPECT_NE(json.find("span_a"), std::string::npos);
  EXPECT_NE(json.find("\\\"escaping\\\""), std::string::npos);
  // The label's raw newline/tab must have been escaped away.
  EXPECT_EQ(json.substr(0, json.size() - 1).find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(TraceJson, WriteJsonFileRoundTrips) {
  obs::TraceRecorder rec;
  rec.Instant("only_event");
  const std::string path = ::testing::TempDir() + "/trace_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(rec.Snapshot().WriteJsonFile(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  ExpectStructurallyValidJson(buf.str());
  EXPECT_NE(buf.str().find("only_event"), std::string::npos);
  EXPECT_FALSE(rec.Snapshot().WriteJsonFile("/nonexistent-dir/x/y.json").ok());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAndGauges) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("proteus_test_total");
  c->Increment();
  c->Add(4);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(reg.GetCounter("proteus_test_total"), c);  // stable pointers
  obs::Gauge* g = reg.GetGauge("proteus_test_entries");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->value(), 5);
}

TEST(Metrics, HistogramPercentilesOnAKnownDistribution) {
  // Uniform 1..1000 against 10-wide buckets: every percentile is known to
  // within one bucket, and the interpolation should land much closer.
  std::vector<double> bounds;
  for (double b = 10; b <= 1000; b += 10) bounds.push_back(b);
  obs::Histogram h(bounds);
  for (int i = 1; i <= 1000; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.sum(), 500500.0, 1e-6);
  EXPECT_NEAR(h.Percentile(0.50), 500, 10.0);
  EXPECT_NEAR(h.Percentile(0.95), 950, 10.0);
  EXPECT_NEAR(h.Percentile(0.99), 990, 10.0);
  // Edge quantiles are sharpened by the exact observed extrema.
  EXPECT_NEAR(h.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(h.Percentile(1.0), 1000.0, 1e-9);
}

TEST(Metrics, HistogramOverflowBucketAndEmptyState) {
  obs::Histogram h({1.0, 10.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);  // empty
  h.Observe(0.5);   // bucket 0
  h.Observe(5);     // bucket 1
  h.Observe(100);   // overflow
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // The overflow percentile is clamped by the observed max, not infinity.
  EXPECT_LE(h.Percentile(0.99), 100.0);
}

TEST(Metrics, ConcurrentObservationsAreLossless) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("proteus_test_latency_ms");
  obs::Counter* c = reg.GetCounter("proteus_test_ops_total");
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe(1.0);
        c->Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h->sum(), kThreads * kPerThread * 1.0, 1e-6);
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, TextAndJsonExposition) {
  obs::MetricsRegistry reg;
  reg.GetCounter("proteus_queries_total")->Add(3);
  reg.GetGauge("proteus_jit_cache_entries")->Set(2);
  reg.GetHistogram("proteus_query_latency_ms")->Observe(1.5);
  std::ostringstream text;
  reg.WriteText(text);
  EXPECT_NE(text.str().find("# TYPE proteus_queries_total counter"), std::string::npos);
  EXPECT_NE(text.str().find("proteus_queries_total 3"), std::string::npos);
  EXPECT_NE(text.str().find("quantile=\"0.95\""), std::string::npos);
  std::ostringstream json;
  reg.WriteJson(json);
  ExpectStructurallyValidJson(json.str());
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine wiring
// ---------------------------------------------------------------------------

std::unique_ptr<QueryEngine> MakeEngine(EngineOptions opts) {
  auto engine = std::make_unique<QueryEngine>(opts);
  testutil::RegisterAll(engine.get());
  return engine;
}

// JSON scan: the ~240-row corpus decomposes into many 16-row morsels (the
// bincol corpus is a single storage block — one morsel — so it cannot
// exercise per-morsel spans or a 2-shard split at this scale).
const char* kAggQuery =
    "SELECT count(*), sum(l_extendedprice), max(l_quantity) FROM lineitem_json "
    "WHERE l_orderkey < 40";

TEST(EngineTrace, DisabledByDefaultAndResultsAreUnaffected) {
  EngineOptions plain;
  plain.morsel_rows = kTestMorselRows;
  auto untraced = MakeEngine(plain);
  EXPECT_EQ(untraced->trace(), nullptr);
  auto r1 = untraced->Execute(kAggQuery);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  EngineOptions traced = plain;
  traced.trace = true;
  auto engine = MakeEngine(traced);
  ASSERT_NE(engine->trace(), nullptr);
  auto r2 = engine->Execute(kAggQuery);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r1->EqualsUnordered(*r2, 0.0)) << "tracing changed the result";
}

TEST(EngineTrace, JitQueryEmitsTheCoreSpans) {
  EngineOptions opts;
  opts.trace = true;
  opts.num_threads = 2;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace cold = engine->trace()->Snapshot();
  EXPECT_TRUE(cold.HasSpan("optimize"));
  EXPECT_TRUE(cold.HasSpan("execute"));
  EXPECT_TRUE(cold.HasSpan("cache_probe"));
  EXPECT_TRUE(cold.HasSpan("jit_compile"));
  EXPECT_TRUE(cold.HasSpan("ir_gen"));
  EXPECT_GE(cold.CountSpans("jit_morsel"), 1u);

  // Warm run: the probe hits, no compile — and each execution Clear()s the
  // recorder, so the snapshot holds exactly this query.
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace warm = engine->trace()->Snapshot();
  EXPECT_TRUE(warm.HasSpan("cache_probe"));
  EXPECT_FALSE(warm.HasSpan("jit_compile"));
  EXPECT_GE(warm.CountSpans("jit_morsel"), 1u);

  // Reconciliation: every morsel ran inside the execute span, and their
  // summed duration cannot exceed workers × the execute wall time.
  double e_begin = 0, e_end = 0, m_begin = 0, m_end = 0;
  ASSERT_TRUE(warm.TimeBounds("execute", &e_begin, &e_end));
  ASSERT_TRUE(warm.TimeBounds("jit_morsel", &m_begin, &m_end));
  EXPECT_GE(m_begin, e_begin);
  EXPECT_LE(m_end, e_end + 1.0);  // 1 us slack for clock rounding
  const double execute_ms = (e_end - e_begin) / 1000.0;
  EXPECT_LE(warm.SumDurationMs("jit_morsel"), execute_ms * opts.num_threads + 1.0);
  EXPECT_GT(warm.SumDurationMs("jit_morsel"), 0.0);
}

TEST(EngineTrace, CompileSplitsIntoItsSteps) {
  // A cold compile opens four steps under jit_compile: IR generation, the
  // contract verifier, the O2 pipeline, and codegen + link into the shared
  // JIT session. They run one after another inside it, so their durations
  // sum to no more than the compile's.
  EngineOptions opts;
  opts.trace = true;
  opts.verify_ir = true;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace t = engine->trace()->Snapshot();
  ASSERT_EQ(t.CountSpans("jit_compile"), 1u);
  double steps_ms = 0;
  for (const char* step : {"ir_gen", "ir_verify", "ir_optimize", "ir_codegen_link"}) {
    EXPECT_EQ(t.CountSpans(step), 1u) << step;
    steps_ms += t.SumDurationMs(step);
  }
  EXPECT_GT(steps_ms, 0.0);
  EXPECT_LE(steps_ms, t.SumDurationMs("jit_compile"));
}

TEST(EngineTrace, ColdPluginOpenIsTracedOutsideTheCompile) {
  // The cold access opens the plug-in (structural index) and collects its
  // statistics before the cache key is built, so neither span can sit
  // inside jit_compile, and compile time never bills them.
  EngineOptions opts;
  opts.trace = true;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace cold = engine->trace()->Snapshot();
  ASSERT_EQ(cold.CountSpans("plugin_open"), 1u);
  ASSERT_EQ(cold.CountSpans("collect_stats"), 1u);
  ASSERT_EQ(cold.CountSpans("jit_compile"), 1u);
  for (const obs::TraceEvent& e : cold.events) {
    if (std::string(e.name) != "plugin_open" && std::string(e.name) != "collect_stats") continue;
    for (const obs::TraceEvent& c : cold.events) {
      if (std::string(c.name) != "jit_compile" || c.tid != e.tid) continue;
      const bool inside = e.ts_us >= c.ts_us && e.ts_us + e.dur_us <= c.ts_us + c.dur_us;
      EXPECT_FALSE(inside) << e.name << " is a descendant of jit_compile";
    }
  }

  // Warm: the plug-in stays open, so neither span recurs.
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace warm = engine->trace()->Snapshot();
  EXPECT_FALSE(warm.HasSpan("plugin_open"));
  EXPECT_FALSE(warm.HasSpan("collect_stats"));
}

TEST(EngineTrace, InterpreterQueryEmitsInterpMorsels) {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.trace = true;
  opts.num_threads = 2;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  obs::QueryTrace t = engine->trace()->Snapshot();
  EXPECT_GE(t.CountSpans("interp_morsel"), 2u);
  EXPECT_TRUE(t.HasSpan("partial_merge"));
  EXPECT_FALSE(t.HasSpan("jit_morsel"));
}

TEST(EngineTrace, JoinBuildSpanCarriesRows) {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.trace = true;
  auto engine = MakeEngine(opts);
  auto r = engine->Execute(
      "SELECT count(*) FROM orders_bincol o JOIN lineitem_bincol l ON "
      "o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  obs::QueryTrace t = engine->trace()->Snapshot();
  ASSERT_TRUE(t.HasSpan("join_build"));
  for (const auto& e : t.events) {
    if (std::string(e.name) == "join_build") {
      ASSERT_STREQ(e.arg0_name, "rows");
      EXPECT_GT(e.arg0, 0);
    }
  }
}

// The ISSUE's acceptance scenario: one tiered, sharded, traced query. Each
// shard (2 shards × 2 workers) starts on the interpreter, the single-flight
// background compile lands, both shards hot-swap at a morsel boundary, and
// the partials cross the exchange before the final merge. force_swap pins
// the swap after exactly one interpreted morsel per shard so the structure
// is deterministic.
TEST(EngineTrace, TieredShardedTraceShowsTheFullStory) {
  EngineOptions opts;
  opts.trace = true;
  opts.tiered = true;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.morsel_rows = kTestMorselRows;
  opts.tiered_opts.force_swap_after_morsels = 1;
  auto engine = MakeEngine(opts);
  QueryTelemetry tel;
  auto r = engine->Execute(kAggQuery, {.telemetry = &tel});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(tel.shards_used, 2);
  ASSERT_GT(tel.morsels_jit, 0u);
  ASSERT_GT(tel.morsels_interpreted, 0u);

  obs::QueryTrace t = engine->trace()->Snapshot();
  EXPECT_TRUE(t.HasSpan("cache_probe"));
  EXPECT_TRUE(t.HasSpan("background_compile"));
  EXPECT_GE(t.CountSpans("interp_morsel"), 1u);
  EXPECT_GE(t.CountSpans("hot_swap"), 1u);
  EXPECT_GE(t.CountSpans("jit_morsel"), 1u);
  EXPECT_EQ(t.CountSpans("shard_slice"), 2u);
  EXPECT_EQ(t.CountSpans("exchange_send"), 2u);
  EXPECT_EQ(t.CountSpans("exchange_collect"), 1u);
  EXPECT_TRUE(t.HasSpan("partial_merge"));

  // Ordering: on each track the interpreter ran before the swap and the
  // generated tail after it — globally, the earliest interp morsel precedes
  // the earliest swap, which precedes the last generated morsel's end.
  double i_begin = 0, i_end = 0, s_begin = 0, s_end = 0, j_begin = 0, j_end = 0;
  ASSERT_TRUE(t.TimeBounds("interp_morsel", &i_begin, &i_end));
  ASSERT_TRUE(t.TimeBounds("hot_swap", &s_begin, &s_end));
  ASSERT_TRUE(t.TimeBounds("jit_morsel", &j_begin, &j_end));
  EXPECT_LT(i_begin, s_end);
  EXPECT_LT(s_begin, j_end);

  // Shard threads and the background compiler are labeled tracks.
  std::vector<std::string> names;
  for (const auto& [tid, name] : t.thread_names) names.push_back(name);
  auto has = [&](const std::string& n) {
    for (const auto& x : names) {
      if (x == n) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("shard-0"));
  EXPECT_TRUE(has("shard-1"));
  EXPECT_TRUE(has("background-compiler"));

  // And the whole thing exports as one structurally valid Chrome trace.
  std::ostringstream out;
  t.WriteJson(out);
  ExpectStructurallyValidJson(out.str());
  EXPECT_NE(out.str().find("hot_swap"), std::string::npos);
}

TEST(EngineMetrics, ExecutionsFeedTheRegistry) {
  obs::MetricsRegistry reg;  // private registry: no cross-test pollution
  EngineOptions opts;
  opts.metrics = &reg;
  opts.num_threads = 2;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());
  ASSERT_TRUE(engine->Execute(kAggQuery).ok());

  EXPECT_EQ(reg.GetCounter("proteus_queries_total")->value(), 2u);
  EXPECT_EQ(reg.GetHistogram("proteus_query_latency_ms")->count(), 2u);
  // Cold then warm: one miss, one hit.
  EXPECT_EQ(reg.GetCounter("proteus_jit_cache_misses_total")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("proteus_jit_cache_hits_total")->value(), 1u);
  EXPECT_GT(reg.GetCounter("proteus_morsels_total")->value(), 0u);
  EXPECT_EQ(reg.GetGauge("proteus_jit_cache_entries")->value(), 1);
  // A failed query counts as an error, not a latency sample.
  ASSERT_FALSE(engine->Execute("SELECT nope FROM nowhere").ok());
  EXPECT_EQ(reg.GetCounter("proteus_query_errors_total")->value(), 1u);
  EXPECT_EQ(reg.GetHistogram("proteus_query_latency_ms")->count(), 2u);
}

TEST(EngineTelemetry, StealCountersFoldAcrossShards) {
  EngineOptions opts;
  opts.mode = ExecMode::kInterp;
  opts.num_threads = 2;
  opts.morsel_rows = kTestMorselRows;
  auto engine = MakeEngine(opts);
  QueryTelemetry tel;
  ASSERT_TRUE(engine->Execute(kAggQuery, {.telemetry = &tel}).ok());
  // The 2-worker run dealt at least one task per morsel batch; steals are
  // scheduling-dependent, but dealt is deterministic and non-zero.
  EXPECT_GT(tel.tasks_dealt, 0u);

  EngineOptions sharded = opts;
  sharded.num_shards = 2;
  auto se = MakeEngine(sharded);
  QueryTelemetry se_tel;
  ASSERT_TRUE(se->Execute(kAggQuery, {.telemetry = &se_tel}).ok());
  ASSERT_EQ(se_tel.shards_used, 2);
  EXPECT_GT(se_tel.tasks_dealt, 0u);
}

}  // namespace
}  // namespace proteus
