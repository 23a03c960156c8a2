// Partitioned-join benchmark: build/probe split timings of the two
// RadixTable layouts over uniform vs Zipf-skewed key corpora, plus
// end-to-end join queries through the parallel generated engine with the
// join strategy forced shared, forced partitioned, and left to the
// optimizer.
//
// Two layers, one report (BENCH_join.json):
//   join/build|probe/<corpus>/<layout>        — RadixTable micro timings:
//     the build split (insert + cluster + bucket chaining) and the probe
//     split measured separately, so layout effects are attributable to a
//     phase instead of smeared over a whole query.
//   join/query/<corpus>/<strategy>/threads=N  — full queries over JSON
//     corpora at bench scale; telemetry (join_strategy included) lands in
//     the JSON next to each variant.
//
// The zipf/auto variant doubles as the strategy guard CI runs in Release:
// the optimizer must pick the partitioned layout for the skewed build and
// the plan must run as parallel generated code — a silent shared-table or
// interpreter run aborts the binary (same spirit as JitThreadedMs).
//
// On single-CPU hosts wall time cannot separate the layouts (both walk the
// same chains serially); the per-phase split and the telemetry are the
// evidence that matters there.
#include <random>

#include "bench/bench_common.h"
#include "src/engine/radix_table.h"

namespace proteus {
namespace bench {
namespace {

// ---------------------------------------------------------------------------
// Key corpora: hashes mirror the engine (Value::Int().Hash()), so micro
// bucket occupancy matches what a real build sees.
// ---------------------------------------------------------------------------

constexpr size_t kMicroBuild = 1u << 17;
constexpr size_t kMicroProbe = 1u << 18;

/// Inverse-CDF Zipf(1.0) sampler over [1, domain].
class ZipfGen {
 public:
  ZipfGen(int64_t domain, uint64_t seed) : rng_(seed), cdf_(domain) {
    double sum = 0;
    for (int64_t k = 0; k < domain; ++k) cdf_[k] = (sum += 1.0 / static_cast<double>(k + 1));
    dist_ = std::uniform_real_distribution<double>(0.0, sum);
  }
  int64_t operator()() {
    double x = dist_(rng_);
    return 1 + (std::lower_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
  std::uniform_real_distribution<double> dist_;
};

struct MicroCorpus {
  std::string name;
  std::vector<uint64_t> build_hashes;
  std::vector<uint64_t> probe_hashes;
};

const std::vector<MicroCorpus>& MicroCorpora() {
  static const std::vector<MicroCorpus> corpora = [] {
    std::vector<MicroCorpus> out;
    {
      MicroCorpus c;
      c.name = "uniform";
      std::mt19937_64 rng(11);
      std::uniform_int_distribution<int64_t> key(1, static_cast<int64_t>(kMicroBuild) * 4);
      for (size_t i = 0; i < kMicroBuild; ++i)
        c.build_hashes.push_back(Value::Int(key(rng)).Hash());
      for (size_t i = 0; i < kMicroProbe; ++i)
        c.probe_hashes.push_back(Value::Int(key(rng)).Hash());
      out.push_back(std::move(c));
    }
    {
      // Skewed: Zipf over a domain 16x smaller than the row count — heavy
      // duplication concentrated in a few radix partitions, the shape the
      // partitioned layout exists for.
      MicroCorpus c;
      c.name = "zipf";
      ZipfGen zipf(static_cast<int64_t>(kMicroBuild) / 16, 12);
      for (size_t i = 0; i < kMicroBuild; ++i)
        c.build_hashes.push_back(Value::Int(zipf()).Hash());
      for (size_t i = 0; i < kMicroProbe; ++i)
        c.probe_hashes.push_back(Value::Int(zipf()).Hash());
      out.push_back(std::move(c));
    }
    return out;
  }();
  return corpora;
}

double BuildMs(const MicroCorpus& c, bool partitioned) {
  return WallMs([&] {
    RadixTable t;
    t.set_partitioned(partitioned);
    t.Reserve(c.build_hashes.size());
    for (size_t i = 0; i < c.build_hashes.size(); ++i)
      t.Insert(c.build_hashes[i], static_cast<uint32_t>(i));
    t.Build();
    benchmark::DoNotOptimize(t.bytes());
  });
}

/// One prebuilt table per (corpus, layout) so probe timings exclude build.
const RadixTable& ProbeTable(const MicroCorpus& c, bool partitioned) {
  static std::map<std::string, std::unique_ptr<RadixTable>> tables;
  std::string key = c.name + (partitioned ? "/p" : "/s");
  auto it = tables.find(key);
  if (it == tables.end()) {
    auto t = std::make_unique<RadixTable>();
    t->set_partitioned(partitioned);
    t->Reserve(c.build_hashes.size());
    for (size_t i = 0; i < c.build_hashes.size(); ++i)
      t->Insert(c.build_hashes[i], static_cast<uint32_t>(i));
    t->Build();
    it = tables.emplace(key, std::move(t)).first;
  }
  return *it->second;
}

double ProbeMs(const MicroCorpus& c, bool partitioned) {
  const RadixTable& t = ProbeTable(c, partitioned);
  return WallMs([&] {
    uint64_t matches = 0;
    for (uint64_t h : c.probe_hashes) {
      t.Probe(h, [&](uint32_t) { ++matches; });
    }
    benchmark::DoNotOptimize(matches);
  });
}

// ---------------------------------------------------------------------------
// End-to-end: JSON corpora at bench scale, strategy forced vs auto.
// ---------------------------------------------------------------------------

/// Skewed/uniform join corpora on disk (orders = build side, 1/3 the probe
/// rows, so join reorder keeps it the build across strategies).
struct JoinCorpus {
  std::string dir;
  uint64_t build_rows;

  static const JoinCorpus& Get() {
    static JoinCorpus c = Build();
    return c;
  }

 private:
  static JoinCorpus Build() {
    JoinCorpus c;
    c.build_rows = std::max<uint64_t>(8192, BenchOrders());
    const uint64_t probe_rows = c.build_rows * 3;
    const int64_t zipf_domain = static_cast<int64_t>(c.build_rows / 16);
    const int64_t uni_domain = static_cast<int64_t>(c.build_rows) * 4;
    c.dir = "/tmp/proteus_bench_join_" + std::to_string(c.build_rows);
    std::string stamp = c.dir + "/.complete";
    if (std::filesystem::exists(stamp)) return c;
    std::filesystem::create_directories(c.dir);
    auto orders = [](std::ofstream& f, int64_t key, uint64_t i) {
      f << "{\"o_orderkey\":" << key << ",\"o_custkey\":" << i % 13
        << ",\"o_totalprice\":" << 100.25 + static_cast<double>(i % 97)
        << ",\"o_shippriority\":" << i % 3 << ",\"o_comment\":\"bench\"}\n";
    };
    auto lineitem = [](std::ofstream& f, int64_t key, uint64_t i) {
      f << "{\"l_orderkey\":" << key << ",\"l_linenumber\":" << i % 7
        << ",\"l_quantity\":" << 1.5 + static_cast<double>(i % 49)
        << ",\"l_extendedprice\":" << 900.75 + static_cast<double>(i % 5003)
        << ",\"l_discount\":0.04,\"l_tax\":0.03,\"l_shipmode\":\"TRUCK\","
           "\"l_comment\":\"bench\"}\n";
    };
    {
      ZipfGen zipf(zipf_domain, 21);
      std::ofstream f(c.dir + "/zipf_orders.json");
      for (uint64_t i = 0; i < c.build_rows; ++i) orders(f, zipf(), i);
    }
    {
      std::mt19937_64 rng(22);
      std::uniform_int_distribution<int64_t> key(1, uni_domain);
      std::ofstream f(c.dir + "/uni_orders.json");
      for (uint64_t i = 0; i < c.build_rows; ++i) orders(f, key(rng), i);
    }
    {
      std::mt19937_64 rng(23);
      std::uniform_int_distribution<int64_t> key(1, zipf_domain);
      std::ofstream f(c.dir + "/zipf_probe.json");
      for (uint64_t i = 0; i < probe_rows; ++i) lineitem(f, key(rng), i);
    }
    {
      std::mt19937_64 rng(24);
      std::uniform_int_distribution<int64_t> key(1, uni_domain);
      std::ofstream f(c.dir + "/uni_probe.json");
      for (uint64_t i = 0; i < probe_rows; ++i) lineitem(f, key(rng), i);
    }
    std::ofstream(stamp) << "ok";
    return c;
  }
};

const char* StrategyName(JoinStrategyOverride s) {
  switch (s) {
    case JoinStrategyOverride::kForceShared: return "shared";
    case JoinStrategyOverride::kForcePartitioned: return "partitioned";
    case JoinStrategyOverride::kAuto: return "auto";
  }
  return "?";
}

/// Parallel JIT engine per (strategy, threads) over the join corpora. The
/// constructor runs one scan per dataset so plugin stats (cardinality, ndv)
/// are warm before any measured query — the auto variants must exercise the
/// optimizer's real decision, not the cold-stats fallback.
QueryEngine& JoinEngine(JoinStrategyOverride strat, int threads) {
  static std::map<std::string, std::unique_ptr<QueryEngine>> engines;
  std::string key = std::string(StrategyName(strat)) + "/" + std::to_string(threads);
  auto it = engines.find(key);
  if (it == engines.end()) {
    const JoinCorpus& c = JoinCorpus::Get();
    EngineOptions opts = BenchEngineOptions();
    opts.mode = ExecMode::kJIT;
    opts.num_threads = threads;
    opts.optimizer.join_strategy = strat;
    auto e = std::make_unique<QueryEngine>(opts);
    auto reg = [&](const char* name, const std::string& file, TypePtr type) {
      Status s = e->RegisterDataset({.name = name,
                                     .format = DataFormat::kJSON,
                                     .path = c.dir + "/" + file,
                                     .type = std::move(type)});
      if (!s.ok()) {
        fprintf(stderr, "bench_join register %s: %s\n", name, s.ToString().c_str());
        std::abort();
      }
      auto warm = e->Execute(std::string("SELECT count(*) FROM ") + name);
      if (!warm.ok()) {
        fprintf(stderr, "bench_join warm %s: %s\n", name, warm.status().ToString().c_str());
        std::abort();
      }
    };
    reg("zipf_orders", "zipf_orders.json", datagen::OrdersSchema());
    reg("uni_orders", "uni_orders.json", datagen::OrdersSchema());
    reg("zipf_probe", "zipf_probe.json", datagen::LineitemSchema());
    reg("uni_probe", "uni_probe.json", datagen::LineitemSchema());
    it = engines.emplace(key, std::move(e)).first;
  }
  return *it->second;
}

double JoinQueryMs(const std::string& corpus, JoinStrategyOverride strat, int threads) {
  QueryEngine& e = JoinEngine(strat, threads);
  std::string q = "SELECT count(*), sum(o.o_totalprice), max(l.l_extendedprice) FROM " +
                  corpus + "_orders o JOIN " + corpus +
                  "_probe l ON o.o_orderkey = l.l_orderkey";
  QueryTelemetry t;
  auto r = e.Execute(q, {.telemetry = &t});
  if (!r.ok()) {
    fprintf(stderr, "bench_join [%s/%s]: %s\n", corpus.c_str(), StrategyName(strat),
            r.status().ToString().c_str());
    std::abort();
  }
  if (!t.used_jit || !t.jit_parallel) {
    fprintf(stderr, "bench_join [%s/%s] fell back to the interpreter: %s\n",
            corpus.c_str(), StrategyName(strat), t.fallback_reason.c_str());
    std::abort();
  }
  // Strategy guard: the skewed build under kAuto must select the
  // partitioned layout — a shared-table run here means the stats →
  // optimizer → telemetry chain regressed.
  if (corpus == "zipf" && strat == JoinStrategyOverride::kAuto &&
      t.join_strategy.find("partitioned") == std::string::npos) {
    fprintf(stderr,
            "bench_join [zipf/auto] ran the shared-table layout "
            "(join_strategy=\"%s\")\n",
            t.join_strategy.c_str());
    std::abort();
  }
  BenchReport::Get().AttachTelemetry(t);
  return t.execute_ms;
}

void Register() {
  for (const MicroCorpus& c : MicroCorpora()) {
    for (bool partitioned : {false, true}) {
      const char* layout = partitioned ? "partitioned" : "shared";
      RegisterMs("join/build/" + c.name + "/" + layout,
                 [&c, partitioned] { return BuildMs(c, partitioned); });
      RegisterMs("join/probe/" + c.name + "/" + layout,
                 [&c, partitioned] { return ProbeMs(c, partitioned); });
    }
  }
  for (const char* corpus : {"uniform", "zipf"}) {
    std::string ds = std::string(corpus) == "zipf" ? "zipf" : "uni";
    for (JoinStrategyOverride strat :
         {JoinStrategyOverride::kForceShared, JoinStrategyOverride::kForcePartitioned,
          JoinStrategyOverride::kAuto}) {
      for (int threads : {1, 4}) {
        RegisterMs("join/query/" + std::string(corpus) + "/" + StrategyName(strat) +
                       "/threads=" + std::to_string(threads),
                   [ds, strat, threads] { return JoinQueryMs(ds, strat, threads); });
      }
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace proteus

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  proteus::bench::Register();
  ::benchmark::RunSpecifiedBenchmarks();
  return proteus::bench::WriteBenchReport("join");
}
