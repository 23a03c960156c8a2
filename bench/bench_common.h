// Shared benchmark harness.
//
// Every figure/table of the paper's evaluation (§7) has one binary in this
// directory. Benchmarks report *execution* time via manual timing
// (QueryTelemetry::execute_ms for Proteus, wall time for baselines), matching
// the paper's presentation where LLVM compilation (≤~50 ms) is reported
// separately (see bench_codegen_cost).
//
// Scale: PROTEUS_BENCH_ORDERS environment variable (default 20000 orders ≈
// 80k lineitems). The paper runs SF10/SF100; shapes — who wins, by what
// factor, where crossovers fall — are what we reproduce, not absolute times.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/core/query_engine.h"
#include "src/datagen/spam.h"
#include "src/datagen/tpch.h"
#include "src/obs/metrics.h"
#include "src/storage/bincol_format.h"
#include "src/storage/binrow_format.h"
#include "src/storage/text_writers.h"

namespace proteus {
namespace bench {

inline uint64_t BenchOrders() {
  const char* env = std::getenv("PROTEUS_BENCH_ORDERS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20000;
}
inline uint64_t BenchMails() {
  // Large enough that per-query scan work dominates the ~10 ms of LLVM
  // compilation (the paper's regime: seconds-long queries, ≤50 ms codegen).
  const char* env = std::getenv("PROTEUS_BENCH_MAILS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 60000;
}

inline double WallMs(const std::function<void()>& f) {
  auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Engine options every bench engine is built with: default execution knobs
/// plus the process-wide metrics registry, so each measured execution also
/// feeds the proteus_* counters/histograms that land in BENCH_<fig>.json.
inline EngineOptions BenchEngineOptions() {
  EngineOptions opts;
  opts.metrics = &obs::MetricsRegistry::Global();
  return opts;
}

/// Collects every measured sample of every variant and writes the
/// BENCH_<fig>.json trajectory file at process exit (see WriteBenchReport).
///
/// Flow: RegisterMs() records each iteration's milliseconds under the
/// variant's benchmark name; the Proteus helpers (ProteusMs & co.) attach
/// the engine's QueryTelemetry to a pending slot that the *next* Record()
/// call consumes — the helper runs inside the timed fn(), so attach always
/// happens before its own Record. Baseline variants never attach, so their
/// telemetry is null in the JSON: same reporter, same schema, one file.
class BenchReport {
 public:
  static BenchReport& Get() {
    static BenchReport r;
    return r;
  }

  void AttachTelemetry(const QueryTelemetry& t) {
    std::lock_guard<std::mutex> lk(mu_);
    pending_ = t;
  }

  void Record(const std::string& name, double ms) {
    std::lock_guard<std::mutex> lk(mu_);
    Variant& v = variants_[name];
    if (v.samples.empty()) order_.push_back(name);
    v.samples.push_back(ms);
    if (pending_.has_value()) {
      v.telemetry = std::move(pending_);
      pending_.reset();
    }
  }

  /// True when no variant recorded a sample (e.g. --benchmark_list_tests).
  bool empty() {
    std::lock_guard<std::mutex> lk(mu_);
    return order_.empty();
  }

  /// Writes BENCH_<fig>.json (schema_version 1) into $PROTEUS_BENCH_JSON_DIR
  /// (default: cwd). Returns false on I/O failure or when nothing was
  /// recorded (e.g. --benchmark_list_tests runs).
  bool WriteJson(const std::string& fig) {
    std::lock_guard<std::mutex> lk(mu_);
    if (order_.empty()) return false;
    const char* env = std::getenv("PROTEUS_BENCH_JSON_DIR");
    std::string path = (env != nullptr ? std::string(env) : std::string(".")) +
                       "/BENCH_" + fig + ".json";
    std::ostringstream o;
    o << "{\"schema_version\":1,\"fig\":\"" << fig << "\",";
    o << "\"scale\":{\"orders\":" << BenchOrders() << ",\"mails\":" << BenchMails()
      << "},";
    o << "\"variants\":[";
    for (size_t i = 0; i < order_.size(); ++i) {
      const Variant& v = variants_[order_[i]];
      if (i != 0) o << ",";
      o << "{\"name\":\"" << order_[i] << "\",\"samples\":[";
      double sum = 0;
      for (size_t s = 0; s < v.samples.size(); ++s) {
        if (s != 0) o << ",";
        o << Num(v.samples[s]);
        sum += v.samples[s];
      }
      o << "],\"ms\":" << Num(sum / v.samples.size()) << ",\"telemetry\":";
      if (v.telemetry.has_value()) {
        WriteTelemetry(o, *v.telemetry);
      } else {
        o << "null";
      }
      o << "}";
    }
    o << "],\"metrics\":";
    obs::MetricsRegistry::Global().WriteJson(o);
    o << "}\n";
    std::ofstream f(path);
    f << o.str();
    if (!f.good()) {
      fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
      return false;
    }
    fprintf(stderr, "bench report: wrote %s (%zu variants)\n", path.c_str(),
            order_.size());
    return true;
  }

 private:
  struct Variant {
    std::vector<double> samples;
    std::optional<QueryTelemetry> telemetry;  ///< last measured run's telemetry
  };

  static std::string Num(double v) {
    if (!(v == v) || v > 1e300 || v < -1e300) return "0";
    char buf[32];
    snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static void WriteTelemetry(std::ostream& o, const QueryTelemetry& t) {
    auto b = [](bool v) { return v ? "true" : "false"; };
    o << "{\"execute_ms\":" << Num(t.execute_ms)
      << ",\"optimize_ms\":" << Num(t.optimize_ms)
      << ",\"compile_ms\":" << Num(t.compile_ms)
      << ",\"used_jit\":" << b(t.used_jit) << ",\"jit_parallel\":" << b(t.jit_parallel)
      << ",\"jit_cache_hit\":" << b(t.jit_cache_hit)
      << ",\"threads_used\":" << t.threads_used << ",\"morsels\":" << t.morsels
      << ",\"shards_used\":" << t.shards_used
      << ",\"bytes_exchanged\":" << t.bytes_exchanged
      << ",\"compile_tier\":" << t.compile_tier
      << ",\"morsels_interpreted\":" << t.morsels_interpreted
      << ",\"morsels_jit\":" << t.morsels_jit << ",\"tasks_dealt\":" << t.tasks_dealt
      << ",\"steals\":" << t.steals << ",\"join_strategy\":\"" << t.join_strategy
      << "\"}";
  }

  std::mutex mu_;
  std::map<std::string, Variant> variants_;
  std::vector<std::string> order_;  ///< registration order, for stable output
  std::optional<QueryTelemetry> pending_;
};

/// Tail call for every bench main(): writes BENCH_<fig>.json and returns the
/// process exit code (0 on success; also 0 when nothing ran, so list/filter
/// invocations stay clean — only an actual write failure is fatal).
inline int WriteBenchReport(const std::string& fig) {
  BenchReport& r = BenchReport::Get();
  if (r.empty()) return 0;
  return r.WriteJson(fig) ? 0 : 1;
}

/// On-disk corpus shared by all bench binaries (rebuilt when scale changes).
class BenchCorpus {
 public:
  static BenchCorpus& Get() {
    static BenchCorpus c;
    return c;
  }

  std::string dir;
  RowTable lineitem, orders, denorm;
  RowTable spam_json, spam_csv, spam_bin;
  uint64_t num_orders;

 private:
  BenchCorpus() {
    num_orders = BenchOrders();
    dir = "/tmp/proteus_bench_" + std::to_string(num_orders) + "_" +
          std::to_string(BenchMails());
    lineitem = datagen::GenLineitem(num_orders, 1001);
    orders = datagen::GenOrders(num_orders, 1002);
    denorm = datagen::Denormalize(orders, lineitem);
    spam_json = datagen::GenSpamJSON(BenchMails(), 1003);
    spam_csv = datagen::GenSpamCSV(BenchMails(), 1004);
    spam_bin = datagen::GenSpamBinary(BenchMails(), 1.5, 1005);

    std::string stamp = dir + "/.complete";
    if (std::filesystem::exists(stamp)) return;
    std::filesystem::create_directories(dir);
    auto die = [](const Status& s) {
      if (!s.ok()) {
        fprintf(stderr, "corpus: %s\n", s.ToString().c_str());
        std::abort();
      }
    };
    die(WriteBinaryColumnDir(dir + "/lineitem.bincol", lineitem));
    die(WriteBinaryColumnDir(dir + "/orders.bincol", orders));
    die(WriteBinaryRowFile(dir + "/lineitem.binrow", lineitem));
    die(WriteCSVFile(dir + "/lineitem.csv", lineitem));
    JSONWriteOptions shuffled;
    shuffled.shuffle_field_order = true;  // paper: arbitrary field order
    die(WriteJSONFile(dir + "/lineitem.json", lineitem, shuffled));
    die(WriteJSONFile(dir + "/orders.json", orders, shuffled));
    die(WriteJSONFile(dir + "/denorm.json", denorm));
    die(WriteJSONFile(dir + "/spam.json", spam_json, shuffled));
    die(WriteCSVFile(dir + "/spam.csv", spam_csv));
    die(WriteBinaryColumnDir(dir + "/spam.bincol", spam_bin));
    std::ofstream(stamp) << "ok";
  }
};

/// Registers the benchmark datasets on a Proteus engine.
inline void RegisterBenchDatasets(QueryEngine* e) {
  const BenchCorpus& c = BenchCorpus::Get();
  auto reg = [&](const char* name, DataFormat f, const std::string& path, TypePtr type) {
    Status s = e->RegisterDataset({.name = name, .format = f, .path = path, .type = type});
    if (!s.ok()) {
      fprintf(stderr, "register %s: %s\n", name, s.ToString().c_str());
      std::abort();
    }
  };
  reg("lineitem_bin", DataFormat::kBinaryColumn, c.dir + "/lineitem.bincol",
      datagen::LineitemSchema());
  reg("orders_bin", DataFormat::kBinaryColumn, c.dir + "/orders.bincol",
      datagen::OrdersSchema());
  reg("lineitem_csv", DataFormat::kCSV, c.dir + "/lineitem.csv", datagen::LineitemSchema());
  reg("lineitem_json", DataFormat::kJSON, c.dir + "/lineitem.json",
      datagen::LineitemSchema());
  reg("orders_json", DataFormat::kJSON, c.dir + "/orders.json", datagen::OrdersSchema());
  reg("orders_denorm", DataFormat::kJSON, c.dir + "/denorm.json",
      datagen::OrdersDenormSchema());
  reg("spam_json", DataFormat::kJSON, c.dir + "/spam.json", datagen::SpamJSONSchema());
  reg("spam_csv", DataFormat::kCSV, c.dir + "/spam.csv", datagen::SpamCSVSchema());
  reg("spam_bin", DataFormat::kBinaryColumn, c.dir + "/spam.bincol",
      datagen::SpamBinarySchema());
}

/// Lazily-built shared engine set for the figure benchmarks.
struct Systems {
  std::unique_ptr<QueryEngine> proteus;
  baselines::RowStoreEngine row;       // PostgreSQL / DBMS X proxy
  baselines::ColumnarEngine col;       // MonetDB proxy
  baselines::ColumnarEngine col_sorted;  // DBMS C proxy (sorted on l_orderkey)
  baselines::DocStoreEngine doc;       // MongoDB proxy

  static Systems& Get() {
    static Systems s;
    return s;
  }

 private:
  Systems() {
    const BenchCorpus& c = BenchCorpus::Get();
    proteus = std::make_unique<QueryEngine>(BenchEngineOptions());
    RegisterBenchDatasets(proteus.get());
    auto die = [](const Result<double>& r) {
      if (!r.ok()) {
        fprintf(stderr, "%s\n", r.status().ToString().c_str());
        std::abort();
      }
    };
    die(row.LoadTable("lineitem", c.lineitem));
    die(row.LoadTable("orders", c.orders));
    die(row.LoadDocuments("denorm", c.denorm));
    die(col.LoadTable("lineitem", c.lineitem));
    die(col.LoadTable("orders", c.orders));
    die(col.LoadJSONAsVarchar("lineitem_varchar", c.lineitem));
    die(col.LoadJSONAsVarchar("orders_varchar", c.orders));
    baselines::ColumnarOptions sorted{.sort_key = "l_orderkey"};
    die(col_sorted.LoadTable("lineitem", c.lineitem, sorted));
    die(col_sorted.LoadTable("orders", c.orders,
                             baselines::ColumnarOptions{.sort_key = "o_orderkey"}));
    die(doc.LoadDocuments("lineitem", c.lineitem));
    die(doc.LoadDocuments("orders", c.orders));
    die(doc.LoadDocuments("denorm", c.denorm));
  }
};

/// Thread counts exercised by the morsel-parallel scaling variants.
inline const std::vector<int>& ThreadCounts() {
  static std::vector<int> t{1, 2, 4};
  return t;
}

/// Engine running the morsel-parallel interpreter at a fixed worker count
/// (interpreter mode for every count, so scaling numbers compare
/// like-for-like; results are identical across counts by construction).
inline QueryEngine& ThreadedEngine(int threads) {
  static std::map<int, std::unique_ptr<QueryEngine>> engines;
  auto it = engines.find(threads);
  if (it == engines.end()) {
    EngineOptions opts = BenchEngineOptions();
    opts.mode = ExecMode::kInterp;
    opts.num_threads = threads;
    auto e = std::make_unique<QueryEngine>(opts);
    RegisterBenchDatasets(e.get());
    it = engines.emplace(threads, std::move(e)).first;
  }
  return *it->second;
}

/// Runs one query on the `threads`-worker engine, returns execution ms.
inline double ThreadedMs(int threads, const std::string& query) {
  QueryEngine& e = ThreadedEngine(threads);
  auto r = e.Execute(query);
  if (!r.ok()) {
    fprintf(stderr, "proteus[%d threads]: %s\n  %s\n", threads, query.c_str(),
            r.status().ToString().c_str());
    std::abort();
  }
  BenchReport::Get().AttachTelemetry(e.telemetry());
  return e.telemetry().execute_ms;
}

/// Engine running morsel-parallel *generated* pipelines at a fixed worker
/// count (mode = kJIT: the range-parameterized pipeline functions fan out
/// over the scheduler). Compare against ThreadedEngine to read the
/// codegen-vs-interpretation gap at each worker count; results are
/// cell-identical across counts and engines by construction.
inline QueryEngine& JitThreadedEngine(int threads) {
  static std::map<int, std::unique_ptr<QueryEngine>> engines;
  auto it = engines.find(threads);
  if (it == engines.end()) {
    EngineOptions opts = BenchEngineOptions();
    opts.mode = ExecMode::kJIT;
    opts.num_threads = threads;
    auto e = std::make_unique<QueryEngine>(opts);
    RegisterBenchDatasets(e.get());
    it = engines.emplace(threads, std::move(e)).first;
  }
  return *it->second;
}

/// Runs one query through the parallel JIT engine, returns execution ms
/// (excludes compile). Aborts if the plan fell back to the interpreter —
/// a jit-parallel bench variant that silently measured the interpreter
/// would be the exact reporting bug the telemetry work closed.
inline double JitThreadedMs(int threads, const std::string& query) {
  QueryEngine& e = JitThreadedEngine(threads);
  auto r = e.Execute(query);
  if (!r.ok()) {
    fprintf(stderr, "proteus jit[%d threads]: %s\n  %s\n", threads, query.c_str(),
            r.status().ToString().c_str());
    std::abort();
  }
  if (!e.telemetry().jit_parallel) {
    fprintf(stderr, "proteus jit[%d threads] fell back to the interpreter: %s\n  %s\n",
            threads, query.c_str(), e.telemetry().fallback_reason.c_str());
    std::abort();
  }
  BenchReport::Get().AttachTelemetry(e.telemetry());
  return e.telemetry().execute_ms;
}

/// Shard counts exercised by the partitioned scale-out variants.
inline const std::vector<int>& ShardCounts() {
  static std::vector<int> s{1, 2, 4};
  return s;
}

/// Engine running the shard coordinator at a fixed shard count with one
/// morsel worker per shard, so the shard dimension is isolated from the
/// thread dimension (results are identical across counts by construction;
/// partials cross the serialized PartialResult wire format).
inline QueryEngine& ShardedEngine(int shards) {
  static std::map<int, std::unique_ptr<QueryEngine>> engines;
  auto it = engines.find(shards);
  if (it == engines.end()) {
    EngineOptions opts = BenchEngineOptions();
    opts.mode = ExecMode::kInterp;
    opts.num_threads = 1;
    opts.num_shards = shards;
    auto e = std::make_unique<QueryEngine>(opts);
    RegisterBenchDatasets(e.get());
    it = engines.emplace(shards, std::move(e)).first;
  }
  return *it->second;
}

/// Runs one query on the `shards`-shard engine, returns execution ms.
inline double ShardedMs(int shards, const std::string& query) {
  QueryEngine& e = ShardedEngine(shards);
  auto r = e.Execute(query);
  if (!r.ok()) {
    fprintf(stderr, "proteus[%d shards]: %s\n  %s\n", shards, query.c_str(),
            r.status().ToString().c_str());
    std::abort();
  }
  BenchReport::Get().AttachTelemetry(e.telemetry());
  return e.telemetry().execute_ms;
}

/// Cold-vs-warm compiled-query-cache measurement: executes `query` twice on
/// a fresh JIT engine and reports the compile cost of each run. The cold run
/// compiles (compile_ms > 0, cache miss); the warm run must be served by
/// the compiled-query cache (jit_cache_hit, compile_ms ~ 0) — the bench
/// aborts if it is not, so a cache regression fails loudly instead of
/// silently re-paying compile cost. `warm_runs` extra executions let callers
/// amortize noise; the hit is asserted on every one.
struct ColdWarmCompile {
  double cold_compile_ms = 0;  ///< first execution: IR gen + LLVM compile
  double warm_compile_ms = 0;  ///< cached re-execution (should be ~0)
  uint64_t hits = 0;           ///< cache hits observed (== warm_runs)
  uint64_t compiles = 0;       ///< compiles observed (== 1)
};

inline ColdWarmCompile CacheColdWarm(const std::string& query, int warm_runs = 1) {
  QueryEngine engine(BenchEngineOptions());  // fresh: its query cache starts empty
  RegisterBenchDatasets(&engine);
  // By value: telemetry() returns a copy, so a reference would dangle.
  auto run = [&]() -> QueryTelemetry {
    auto r = engine.Execute(query);
    if (!r.ok()) {
      fprintf(stderr, "proteus cache bench: %s\n  %s\n", query.c_str(),
              r.status().ToString().c_str());
      std::abort();
    }
    return engine.telemetry();
  };
  ColdWarmCompile out;
  const QueryTelemetry& cold = run();
  if (!cold.used_jit || cold.jit_cache_hit) {
    fprintf(stderr, "cache bench: cold run expected a JIT compile: %s\n", query.c_str());
    std::abort();
  }
  out.cold_compile_ms = cold.compile_ms;
  for (int i = 0; i < warm_runs; ++i) {
    const QueryTelemetry& warm = run();
    if (!warm.jit_cache_hit) {
      fprintf(stderr, "cache bench: warm run missed the compiled-query cache: %s\n",
              query.c_str());
      std::abort();
    }
    out.warm_compile_ms += warm.compile_ms;
  }
  out.warm_compile_ms /= warm_runs;
  const auto stats = engine.jit_cache()->stats();
  out.hits = stats.hits;
  out.compiles = stats.compiles;
  if (out.hits == 0) {
    fprintf(stderr, "cache bench: zero cache hits recorded: %s\n", query.c_str());
    std::abort();
  }
  return out;
}

/// Runs one Proteus query and returns execution ms (excludes compile).
inline double ProteusMs(const std::string& query) {
  auto r = Systems::Get().proteus->Execute(query);
  if (!r.ok()) {
    fprintf(stderr, "proteus: %s\n  %s\n", query.c_str(), r.status().ToString().c_str());
    std::abort();
  }
  BenchReport::Get().AttachTelemetry(Systems::Get().proteus->telemetry());
  return Systems::Get().proteus->telemetry().execute_ms;
}

template <typename Engine>
double BaselineMs(Engine& engine, const baselines::BenchQuery& q) {
  double ms = WallMs([&] {
    auto r = engine.Execute(q);
    if (!r.ok()) {
      fprintf(stderr, "baseline: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    benchmark::DoNotOptimize(r->rows);
  });
  return ms;
}

/// Registers a manual-timed benchmark that reports `fn()` milliseconds.
/// Every iteration's measurement also lands in the BenchReport under the
/// benchmark's name — Proteus and baseline variants alike — so the
/// BENCH_<fig>.json trajectory file sees exactly what the console does.
inline void RegisterMs(const std::string& name, std::function<double()> fn) {
  benchmark::RegisterBenchmark(name.c_str(), [name, fn](benchmark::State& state) {
    for (auto _ : state) {
      double ms = fn();
      BenchReport::Get().Record(name, ms);
      state.SetIterationTime(ms / 1000.0);
    }
  })->UseManualTime()->Unit(benchmark::kMillisecond)->Iterations(2);
}

/// Selectivity percents used throughout the paper's figures.
inline const std::vector<int>& Selectivities() {
  static std::vector<int> s{10, 20, 50, 100};
  return s;
}

/// l_orderkey threshold for a selectivity percent.
inline int64_t KeyFor(int sel_percent) {
  return static_cast<int64_t>(BenchCorpus::Get().num_orders) * sel_percent / 100;
}

}  // namespace bench
}  // namespace proteus
