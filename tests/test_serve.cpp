// Query server tests: the serving shell over the reentrant engine.
//
// The contracts under test, in order of importance:
//   - N concurrent clients against one engine get exactly the rows a direct
//     serial ExecutePlan produces — cell-identical, telemetry per query;
//   - the compiled-query cache is shared across clients (a repeated query
//     reports jit_cache_hit without recompiling);
//   - a kCancel frame stops the query at its next morsel boundary and the
//     server answers kCancelled (telemetry cancelled = true) and stays
//     healthy;
//   - admission overflow answers with an explicit kRejected frame — never a
//     hang — and the connection keeps working afterwards;
//   - the frame codecs are strict: truncation and trailing garbage are
//     rejected, a malformed body gets a kError response without killing the
//     session.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/admission.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "tests/engine_test_util.h"

namespace proteus {
namespace {

using serve::AdmissionGate;
using serve::Frame;
using serve::FrameType;
using serve::QueryServer;
using serve::ServeClient;
using serve::ServerOptions;

/// A workload that exercises JIT aggregates, joins, and group-bys across
/// formats — all morsel-parallelizable, so concurrent queries genuinely
/// interleave on the shared scheduler.
const std::vector<std::string>& ServeWorkload() {
  static const std::vector<std::string> queries = {
      "SELECT count(*), max(l_quantity), sum(l_tax) FROM lineitem_json WHERE l_orderkey < 30",
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_csv WHERE l_orderkey < 40",
      "SELECT min(l_extendedprice * (1.0 - l_discount)) FROM lineitem_bincol",
      "SELECT count(*) FROM orders_bincol o JOIN lineitem_bincol l "
      "ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey < 25",
      "SELECT l_linenumber, count(*), sum(l_extendedprice) FROM lineitem_bincol "
      "WHERE l_orderkey < 30 GROUP BY l_linenumber",
      "SELECT sum(l_extendedprice) FROM lineitem_binrow WHERE l_linenumber = 2",
  };
  return queries;
}

std::unique_ptr<QueryEngine> MakeServeEngine(EngineOptions opts = {}) {
  if (opts.num_threads == 1) opts.num_threads = 2;
  if (opts.morsel_rows == kDefaultMorselRows) opts.morsel_rows = 16;
  auto engine = std::make_unique<QueryEngine>(opts);
  testutil::RegisterAll(engine.get());
  return engine;
}

void ExpectIdentical(const QueryResult& a, const QueryResult& b, const std::string& ctx) {
  ASSERT_EQ(a.columns, b.columns) << ctx;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << ctx;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << ctx << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_TRUE(a.rows[r][c].Equals(b.rows[r][c]))
          << ctx << " row " << r << " col " << c << ": " << a.rows[r][c].ToString()
          << " vs " << b.rows[r][c].ToString();
    }
  }
}

/// Blocks every driver at the first morsel index >= 2 until released —
/// the deterministic way to hold a query mid-execution so a cancel or an
/// admission probe lands at a known point. Release() is one-way: after it,
/// the hook is a no-op for the rest of the engine's life.
struct MorselGate {
  std::mutex mu;
  std::condition_variable cv;
  bool reached = false;
  bool released = false;

  void Hook(uint64_t m) {
    std::unique_lock<std::mutex> lk(mu);
    if (released || m < 2) return;
    reached = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  }
  void AwaitReached() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return reached; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lk(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(ServeProtocol, FrameAndBodyRoundTrip) {
  QueryResult res;
  res.columns = {"count", "sum"};
  res.rows.push_back({Value::Int(42), Value::Float(13.25)});
  // Every QueryTelemetry field set to a non-default value, so a field the
  // codec skips shows up as a default on the far side.
  QueryTelemetry tel;
  tel.optimize_ms = 0.25;
  tel.compile_ms = 3.5;
  tel.jit_cache_hit = true;
  tel.execute_ms = 1.5;
  tel.cache_build_ms = 0.75;
  tel.used_jit = true;
  tel.jit_parallel = true;
  tel.used_cache = true;
  tel.threads_used = 3;
  tel.morsels = 11;
  tel.shards_used = 2;
  tel.bytes_exchanged = 4096;
  tel.morsels_interpreted = 5;
  tel.morsels_jit = 6;
  tel.swap_ms = 0.5;
  tel.first_morsel_ms = 0.125;
  tel.tasks_dealt = 7;
  tel.steals = 4;
  tel.cancelled = true;
  tel.join_strategy = "shared,partitioned";
  tel.ir_verified = true;
  tel.fallback_reason = "why not";
  tel.plan = "Reduce(...)";

  Frame f;
  f.type = FrameType::kResult;
  f.query_id = 99;
  f.body = serve::EncodeResultBody(res, tel);
  const std::string bytes = serve::EncodeFrame(f);
  // Header after the u32 length prefix: 'P' 'R', then the layout version.
  EXPECT_EQ(static_cast<uint8_t>(bytes[6]), 4);
  // Strip the u32 length prefix the socket layer consumes.
  auto back = serve::DecodeFramePayload(std::string_view(bytes).substr(4));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, FrameType::kResult);
  EXPECT_EQ(back->query_id, 99u);
  auto body = serve::DecodeResultBody(back->body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  ExpectIdentical(res, body->result, "result round-trip");
  const QueryTelemetry& t = body->telemetry;
  EXPECT_EQ(t.optimize_ms, tel.optimize_ms);
  EXPECT_EQ(t.compile_ms, tel.compile_ms);
  EXPECT_TRUE(t.jit_cache_hit);
  EXPECT_EQ(t.execute_ms, tel.execute_ms);
  EXPECT_EQ(t.cache_build_ms, tel.cache_build_ms);
  EXPECT_TRUE(t.used_jit);
  EXPECT_TRUE(t.jit_parallel);
  EXPECT_TRUE(t.used_cache);
  EXPECT_EQ(t.threads_used, tel.threads_used);
  EXPECT_EQ(t.morsels, tel.morsels);
  EXPECT_EQ(t.shards_used, tel.shards_used);
  EXPECT_EQ(t.bytes_exchanged, tel.bytes_exchanged);
  EXPECT_EQ(t.morsels_interpreted, tel.morsels_interpreted);
  EXPECT_EQ(t.morsels_jit, tel.morsels_jit);
  EXPECT_EQ(t.swap_ms, tel.swap_ms);
  EXPECT_EQ(t.first_morsel_ms, tel.first_morsel_ms);
  EXPECT_EQ(t.tasks_dealt, 7u);
  EXPECT_EQ(t.steals, tel.steals);
  EXPECT_TRUE(t.cancelled);
  EXPECT_EQ(t.join_strategy, tel.join_strategy);
  EXPECT_TRUE(t.ir_verified);
  EXPECT_EQ(t.fallback_reason, tel.fallback_reason);
  EXPECT_EQ(t.plan, tel.plan);
}

TEST(ServeProtocol, DecodersRejectTruncationAndTrailingGarbage) {
  QueryResult res;
  res.columns = {"c"};
  res.rows.push_back({Value::Int(1)});
  const std::string result_body = serve::EncodeResultBody(res, QueryTelemetry{});
  const std::string query_body = serve::EncodeQueryBody("SELECT 1");
  const std::string cancelled_body = serve::EncodeCancelledBody(QueryTelemetry{});
  const std::string error_body = serve::EncodeErrorBody(Status::Internal("boom"));
  const std::string rejected_body = serve::EncodeRejectedBody("full");

  // Trailing garbage after a well-formed body: every decoder must reject it
  // (the !AtEnd() strictness rule shared with the shard codec).
  EXPECT_FALSE(serve::DecodeResultBody(result_body + "x").ok());
  EXPECT_FALSE(serve::DecodeQueryBody(query_body + "x").ok());
  EXPECT_FALSE(serve::DecodeCancelledBody(cancelled_body + "x").ok());
  Status out;
  EXPECT_FALSE(serve::DecodeErrorBody(error_body + "x", &out).ok());
  EXPECT_FALSE(serve::DecodeRejectedBody(rejected_body + "x").ok());

  // Every proper prefix is a truncation and must fail cleanly.
  for (size_t cut = 0; cut < result_body.size(); ++cut) {
    EXPECT_FALSE(serve::DecodeResultBody(std::string_view(result_body).substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // Frame header checks: bad magic, bad version, unknown type.
  Frame f;
  f.type = FrameType::kQuery;
  f.query_id = 1;
  f.body = query_body;
  std::string payload = serve::EncodeFrame(f).substr(4);
  std::string bad = payload;
  bad[0] = 'X';
  EXPECT_FALSE(serve::DecodeFramePayload(bad).ok());
  bad = payload;
  bad[2] = 99;  // version
  EXPECT_FALSE(serve::DecodeFramePayload(bad).ok());
  bad = payload;
  bad[3] = 77;  // type
  EXPECT_FALSE(serve::DecodeFramePayload(bad).ok());
}

TEST(ServeServer, ConcurrentClientsMatchDirectExecution) {
  obs::MetricsRegistry metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  auto engine = MakeServeEngine(opts);
  QueryServer server(engine.get());
  ASSERT_TRUE(server.Start().ok());

  // Baselines from a fresh single-threaded engine, serially.
  auto baseline_engine = MakeServeEngine();
  std::vector<QueryResult> baselines;
  for (const auto& q : ServeWorkload()) {
    auto r = baseline_engine->Execute(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    baselines.push_back(std::move(*r));
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ServeClient::Connect(server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < ServeWorkload().size(); ++q) {
          const size_t idx = (q + c) % ServeWorkload().size();
          auto resp = client->Execute(ServeWorkload()[idx]);
          if (!resp.ok() || resp->type != FrameType::kResult) {
            ADD_FAILURE() << "client " << c << " query " << idx << ": "
                          << (resp.ok() ? "unexpected frame type"
                                        : resp.status().ToString());
            ++failures;
            return;
          }
          ExpectIdentical(baselines[idx], resp->result,
                          "client " + std::to_string(c) + " query " +
                              std::to_string(idx));
          // Telemetry is per query, not a racy engine-global: every one of
          // these morsel-parallelizable plans dealt at least one task.
          EXPECT_GT(resp->telemetry.tasks_dealt, 0u) << "query " << idx;
          EXPECT_FALSE(resp->telemetry.cancelled);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const uint64_t total = kClients * kRounds * ServeWorkload().size();
  EXPECT_EQ(metrics.GetCounter("proteus_queries_total")->value(), total);
  EXPECT_EQ(metrics.GetCounter("proteus_query_errors_total")->value(), 0u);
  EXPECT_EQ(metrics.GetGauge("proteus_queries_inflight")->value(), 0);

  server.Stop();
}

TEST(ServeServer, RepeatedQueryIsServedByTheSharedJitCache) {
  auto engine = MakeServeEngine();
  QueryServer server(engine.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = ServeClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string q = ServeWorkload()[0];

  auto first = client->Execute(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->type, FrameType::kResult);
  EXPECT_TRUE(first->telemetry.used_jit);
  EXPECT_FALSE(first->telemetry.jit_cache_hit);

  // Second identical query — even from a different connection — hits the
  // engine's shared compiled-query cache.
  auto client2 = ServeClient::Connect(server.port());
  ASSERT_TRUE(client2.ok());
  auto second = client2->Execute(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->type, FrameType::kResult);
  EXPECT_TRUE(second->telemetry.jit_cache_hit);
  ExpectIdentical(first->result, second->result, "cache hit result");

  server.Stop();
}

TEST(ServeServer, CancelStopsAtMorselBoundaryAndServerStaysHealthy) {
  obs::MetricsRegistry metrics;
  auto gate = std::make_shared<MorselGate>();
  EngineOptions opts;
  opts.metrics = &metrics;
  opts.morsel_rows = 4;  // many morsels => many cancel checkpoints
  opts.morsel_boundary_hook = [gate](uint64_t m) { gate->Hook(m); };
  auto engine = MakeServeEngine(opts);
  QueryServer server(engine.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = ServeClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto id = client->Submit(
      "SELECT count(*), sum(l_extendedprice) FROM lineitem_json WHERE l_orderkey < 1000000");
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Hold the query at a morsel boundary and land the cancel. Cancel() only
  // guarantees the frame was written, so barrier on a fast-failing probe
  // query: the session reader consumes frames in order, which means its
  // kError response proves the kCancel before it was processed.
  gate->AwaitReached();
  ASSERT_TRUE(client->Cancel(*id).ok());
  auto probe_id = client->Submit("SELECT count(*) FROM no_such_dataset");
  ASSERT_TRUE(probe_id.ok());
  auto probe = client->Await();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->type, FrameType::kError);
  EXPECT_EQ(probe->query_id, *probe_id);
  gate->Release();

  auto resp = client->Await();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->type, FrameType::kCancelled);
  EXPECT_EQ(resp->query_id, *id);
  EXPECT_TRUE(resp->telemetry.cancelled);

  // Cancellation is not an error — it has its own counter. The only error
  // on record is the deliberate barrier probe above.
  EXPECT_EQ(metrics.GetCounter("proteus_queries_cancelled_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("proteus_query_errors_total")->value(), 1u);

  // The connection and the engine both keep serving.
  auto after = client->Execute(ServeWorkload()[1]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->type, FrameType::kResult);
  EXPECT_EQ(metrics.GetGauge("proteus_queries_inflight")->value(), 0);

  server.Stop();
}

TEST(ServeServer, AdmissionOverflowAnswersRejectedNotHang) {
  auto gate = std::make_shared<MorselGate>();
  EngineOptions opts;
  opts.morsel_rows = 4;
  opts.morsel_boundary_hook = [gate](uint64_t m) { gate->Hook(m); };
  auto engine = MakeServeEngine(opts);
  ServerOptions sopts;
  sopts.admission.max_inflight = 1;
  sopts.admission.queue_depth = 0;  // no parking: overload rejects instantly
  QueryServer server(engine.get(), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto blocker = ServeClient::Connect(server.port());
  ASSERT_TRUE(blocker.ok());
  auto id = blocker->Submit(ServeWorkload()[0]);
  ASSERT_TRUE(id.ok());
  gate->AwaitReached();  // the one slot is now held mid-query

  auto probe = ServeClient::Connect(server.port());
  ASSERT_TRUE(probe.ok());
  auto rejected = probe->Execute(ServeWorkload()[1]);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->type, FrameType::kRejected);
  EXPECT_FALSE(rejected->reject_reason.empty());
  EXPECT_EQ(server.admission().rejected(), 1u);

  gate->Release();
  auto done = blocker->Await();
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->type, FrameType::kResult);

  // With the slot free the rejected client's retry succeeds.
  auto retry = probe->Execute(ServeWorkload()[1]);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->type, FrameType::kResult);

  server.Stop();
}

TEST(ServeServer, MalformedQueryBodyGetsErrorFrameAndSessionSurvives) {
  auto engine = MakeServeEngine();
  QueryServer server(engine.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = ServeClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // An engine-level failure (unknown dataset) comes back as kError with the
  // engine's status, not a dropped connection.
  auto bad = client->Execute("SELECT count(*) FROM no_such_dataset");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->type, FrameType::kError);
  EXPECT_FALSE(bad->error.ok());

  // The same connection still serves real queries afterwards.
  auto good = client->Execute(ServeWorkload()[0]);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->type, FrameType::kResult);

  server.Stop();
}

TEST(ServeAdmission, GateCountsAndCloseWakesWaiters) {
  AdmissionGate gate({.max_inflight = 1, .queue_depth = 1});
  ASSERT_EQ(gate.Enter(), AdmissionGate::Outcome::kAdmitted);

  // One caller parks in the queue; a second overflows and rejects at once.
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    EXPECT_EQ(gate.Enter(), AdmissionGate::Outcome::kAdmitted);
    gate.Exit();
    waiter_done = true;
  });
  // Wait until the waiter actually parked, so the next Enter overflows.
  while (gate.waiting() < 1) std::this_thread::yield();
  EXPECT_EQ(gate.Enter(), AdmissionGate::Outcome::kRejected);
  EXPECT_EQ(gate.rejected(), 1u);

  gate.Exit();  // hands the slot to the parked waiter
  waiter.join();
  EXPECT_TRUE(waiter_done.load());

  gate.Close();
  EXPECT_EQ(gate.Enter(), AdmissionGate::Outcome::kClosed);
}

}  // namespace
}  // namespace proteus
