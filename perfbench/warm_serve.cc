// warm_serve: a remote client queries a Server whose tables fit inside
// the map, cache and store budgets. Set-up warms the engine until the
// hot columns are store-resident and nothing is tokenized any more.
// The measured phase alternates an open loop at a fixed rate, each
// request timed from when it was due (latency), with a closed loop that
// keeps every connection busy (throughput), and ends with a short rate
// ladder.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "engines/nodb_engine.h"
#include "persist/snapshot.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 20000;  // ~1.8 MB; the dimension table ~30 KB
/// Client connections, each with a client thread here and a session
/// thread in the server. Two concurrent connections on a 4-vCPU virtual
/// machine made throughput, latency and set-up time swing by 0.33-0.39
/// (interquartile range over median, 5 runs) with the host's placement
/// of the busy threads; one connection kept them within about 0.1-0.2.
constexpr size_t kConnections = 1;
/// Open + closed loop blocks, with probes in the gaps around each. Many
/// short blocks spread every probe's samples evenly over the run: the
/// host moves short timings by 20-30% for a few seconds at a time, and
/// samples taken in a few clusters let a run's median follow the
/// clusters rather than the whole run.
constexpr int kBlocks = 16;
/// Probes per gap before, between and after the blocks: whole set-ups of
/// a second deployment (in every kSetUpEvery-th gap), fresh engines
/// answering the mix's first query, fresh engines running the whole
/// opening pass, and fresh engines recovering the warm engine's
/// snapshot.
constexpr int kSetUpEvery = 2;
constexpr int kFirstQueriesPerGap = 4;
constexpr int kOpeningPassesPerGap = 1;
constexpr int kRecoveriesPerGap = 12;
/// Shares of --seconds for the open loops, the closed loops and the
/// rate ladder; the probes and set-ups take the rest.
constexpr double kOpenShare = 0.45;
constexpr double kClosedShare = 0.2;
constexpr double kLadderShare = 0.15;
/// The closed loop's completions are counted per window of this length,
/// one throughput_qps sample each.
constexpr double kRateWindowS = 0.125;
constexpr int kWarmPasses = 3;  // cold pass, then two after promotion
constexpr int kMaxWarmPasses = 10;
/// Offered load of the open loop: well under what the closed loop
/// sustains (about 600 q/s), so latency reflects service time rather
/// than queueing.
constexpr double kRateQps = 100;
/// The rate ladder for max_rate_qps and its p99 limit.
constexpr double kLadder[] = {200, 400, 800, 1600, 3200};
constexpr double kP99LimitMs = 25;
constexpr int64_t kSpinNs = 1'000'000;

/// Request shares (percent) of the query shapes, in Mix() order per
/// group of eight: full-column aggregate, zone-map range, pushdown
/// range, LIMIT peek, filtered peek, join, top-N. The shares put the
/// median request deep inside one shape (the pushdown range aggregate,
/// 30%..70% of the ordered latencies) rather than near a boundary
/// between shapes, so latency_p50_ms does not jump between them when
/// a noisy run widens every shape's spread.
constexpr uint64_t kShare[] = {10, 10, 40, 15, 5, 10, 10};

struct Query {
  std::string sql;
  size_t shape;  // index into kShare; 0 = full-column aggregates
};

/// 56 distinct queries, eight per shape. By class: 20% peeks, 50%
/// selective range aggregates (zone maps, pushdown), 10% full-column
/// aggregates and GROUP BYs, 10% hash joins, 10% ORDER BY ... LIMIT.
std::vector<Query> Mix(uint64_t seed) {
  Rng rng(seed * 13 + 5);
  auto num = [&](int64_t lo, int64_t hi) {
    return std::to_string(rng.Range(lo, hi));
  };
  std::vector<Query> q;
  for (int i = 0; i < 8; ++i) {
    switch (i % 4) {
      case 0:
        q.push_back({"SELECT SUM(c2) AS s, COUNT(*) AS n FROM t", 0});
        break;
      case 1:
        q.push_back({"SELECT c3, COUNT(*) AS n, SUM(c2) AS s FROM t GROUP BY c3",
                     0});
        break;
      case 2:
        q.push_back({"SELECT MIN(c4) AS lo, MAX(c7) AS hi, AVG(c1) AS a FROM t",
                     0});
        break;
      default:
        q.push_back({"SELECT c3, MAX(c7) AS m FROM t WHERE c5 < " + num(45, 55) +
                         " GROUP BY c3",
                     0});
    }
    int64_t r0 = rng.Range(0, kRows - 3000);
    q.push_back({"SELECT COUNT(*) AS n, SUM(c2) AS s FROM t WHERE c0 BETWEEN " +
                     std::to_string(r0) + " AND " + std::to_string(r0 + 2000),
                 1});
    int64_t v0 = rng.Range(0, 990000);
    q.push_back({"SELECT COUNT(*) AS n, AVG(c7) AS a FROM t WHERE c1 BETWEEN " +
                     std::to_string(v0) + " AND " + std::to_string(v0 + 5000),
                 2});
    q.push_back({"SELECT c0, c1, c3 FROM t LIMIT " + num(5, 20), 3});
    q.push_back({"SELECT c0, c2, c5 FROM t WHERE c5 = " + num(0, 99) + " LIMIT 10",
                 4});
    q.push_back({"SELECT d.g, COUNT(*) AS n, SUM(t.c2) AS s FROM t JOIN d ON "
                 "t.c8 = d.k WHERE t.c5 < " + num(45, 55) + " GROUP BY d.g",
                 5});
    q.push_back({"SELECT c0, c7 FROM t WHERE c5 < " + num(45, 55) +
                     " ORDER BY c7 DESC, c0 LIMIT 10",
                 6});
  }
  return q;
}

/// Deals query indexes by shape share, uniformly within the shape.
/// Shapes come from a deck of 100 slots, kShare[s] for shape s, dealt
/// in shuffled order and refilled when empty, so every hundred requests
/// hold the shares exactly: a run's median latency does not move with
/// how many cheap or costly requests independent draws happened to
/// pick.
class Picker {
 public:
  Picker(const std::vector<Query>& mix, uint64_t seed) : rng_(seed) {
    for (size_t i = 0; i < mix.size(); ++i) of_shape_[mix[i].shape].push_back(i);
  }

  size_t Next() {
    if (deck_.empty()) {
      for (size_t shape = 0; shape < kShapes; ++shape) {
        deck_.insert(deck_.end(), kShare[shape], shape);
      }
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Uniform(i + 1)]);
      }
    }
    const std::vector<size_t>& queries = of_shape_[deck_.back()];
    deck_.pop_back();
    return queries[rng_.Uniform(queries.size())];
  }

 private:
  static constexpr size_t kShapes = sizeof(kShare) / sizeof(kShare[0]);
  Rng rng_;
  std::vector<size_t> deck_;
  std::vector<size_t> of_shape_[kShapes];
};

/// One picker per connection.
std::vector<Picker> Pickers(const std::vector<Query>& mix, uint64_t seed) {
  std::vector<Picker> pickers;
  for (size_t c = 0; c < kConnections; ++c) pickers.emplace_back(mix, seed * 101 + c);
  return pickers;
}

/// A running server, its engine and one connection per client thread.
struct Deployment {
  std::unique_ptr<nodb::NoDbEngine> engine;
  std::unique_ptr<nodb::server::Server> server;
  std::vector<nodb::server::ClientConnection> clients;
};

/// What one open-loop phase observed.
struct LoopResult {
  std::vector<double> latencies_ms;  // from due time to reply
  std::map<size_t, std::vector<double>> by_shape;
  LayerCounts counts;
  uint64_t rejected = 0;
  double final_lag_ms = 0;  // how late the last request of any client went out
};

constexpr const char* kShapeName[] = {"full",   "range_zone", "range_pushdown",
                                       "peek",   "peek_filter", "join",
                                       "topn"};

}  // namespace

void RunWarmServe(const Options& options, Report* report) {
  RunDir dir(options);
  const std::string fact = dir.File("t.csv");
  const std::string dim = dir.File("d.csv");
  const uint64_t raw_bytes = WriteFactRows(fact, options.seed, 0, kRows, false) +
                             WriteDimTable(dim, options.seed);
  const std::vector<Query> mix = Mix(options.seed);
  std::vector<std::string> sqls;
  for (const Query& q : mix) sqls.push_back(q.sql);
  const std::vector<Expected> expected = OracleAnswers(dir.path(), fact, dim, sqls);
  const nodb::Catalog catalog = MakeCatalog(fact, dim);
  nodb::NoDbConfig config;
  config.snapshot_mode = nodb::SnapshotMode::kManual;
  report->Info("raw_bytes", std::to_string(raw_bytes) + " (t " +
                                std::to_string(kRows) + " rows + d " +
                                std::to_string(kDimRows) + " rows)");
  report->Info("budgets", "map " + std::to_string(config.positional_map_budget) +
                              " B, cache " + std::to_string(config.cache_budget) +
                              " B, store " + std::to_string(config.store_budget) +
                              " B (defaults; both tables fit)");
  report->Info("load", std::to_string(kConnections) + " connection(s): open loop at " +
                           std::to_string(kRateQps) + " q/s, then closed loop; " +
                           std::to_string(mix.size()) + " distinct queries");

  EndToEnd e2e;
  e2e.raw_bytes = static_cast<double>(raw_bytes);
  SpanRecorder recorder;
  LayerInputs layer;
  layer.raw_bytes = static_cast<double>(raw_bytes);

  // The mix's opening pass in process on a fresh engine, with think
  // time (each query's background promotion settles before the next):
  // one sample of data_to_query_s.
  auto opening_pass = [&](nodb::NoDbEngine* engine, int64_t t0) {
    double answer_s = (NowNs() - t0) / 1e9;
    for (size_t i = 0; i < mix.size(); ++i) {
      int64_t q0 = NowNs();
      nodb::QueryOutcome out = Must(engine->Execute(mix[i].sql), "opening pass");
      answer_s += (NowNs() - q0) / 1e9;
      CheckAnswer(mix[i].sql, AnswerOf(out.result), expected[i], report);
      engine->WaitForPromotions();
    }
    e2e.data_to_query_s.push_back(answer_s);
  };

  // A fresh engine answers the mix's first query: one sample of
  // first_query_ms.
  auto first_query = [&]() {
    nodb::NoDbEngine fresh(catalog, config);
    int64_t q0 = NowNs();
    nodb::QueryOutcome out = Must(fresh.Execute(mix[0].sql), "first query");
    e2e.first_query_ms.push_back((NowNs() - q0) / 1e6);
    CheckAnswer(mix[0].sql, AnswerOf(out.result), expected[0], report);
  };

  // Engine construction and the opening pass, then server start,
  // connections, and warm-up passes from every connection at once until
  // the store serves every hot column and nothing is tokenized, so every
  // server session is warm too.
  auto set_up = [&](const nodb::NoDbConfig& setup_config) {
    Deployment dep;
    int64_t t0 = NowNs();
    dep.engine = std::make_unique<nodb::NoDbEngine>(catalog, setup_config);
    opening_pass(dep.engine.get(), t0);
    dep.server =
        std::make_unique<nodb::server::Server>(dep.engine.get(), setup_config);
    MustOk(dep.server->Start(), "server start");
    for (size_t c = 0; c < kConnections; ++c) {
      dep.clients.push_back(Must(
          nodb::server::ClientConnection::Connect(
              "127.0.0.1", dep.server->port(), "bench", "client-" + std::to_string(c)),
          "connect"));
    }
    for (int pass = 1;; ++pass) {
      std::atomic<bool> warm{pass + 1 >= kWarmPasses};
      auto run_mix = [&](size_t c) {
        for (size_t k = 0; k < mix.size(); ++k) {
          size_t i = (k + c * mix.size() / kConnections) % mix.size();
          nodb::QueryOutcome out = Must(dep.clients[c].Execute(mix[i].sql), "warm-up");
          CheckAnswer(mix[i].sql, AnswerOf(out.result), expected[i], report);
          const nodb::ScanMetrics& s = out.metrics.scan;
          if (s.fields_tokenized != 0 ||
              (mix[i].shape == 0 && s.rows_from_store != s.rows_scanned)) {
            warm = false;
          }
        }
      };
      RunThreads(kConnections, run_mix);
      if (warm) break;
      if (pass + 1 == kMaxWarmPasses) {
        Fail("self-check: warm_serve set-up did not reach a store-served state "
             "with zero tokenized fields after " +
             std::to_string(kMaxWarmPasses) + " passes");
      }
      dep.engine->WaitForPromotions();
    }
    dep.engine->WaitForPromotions();
    e2e.setup_s.push_back((NowNs() - t0) / 1e9);
    return dep;
  };

  // Graceful drain; the server saves the engine's snapshots when
  // snapshots are on.
  auto tear_down = [&](Deployment* dep, SpanRecorder* rec) {
    for (auto& client : dep->clients) client.Close();
    ScopedSpan span(rec, "persist.save", 0);
    MustOk(dep->server->Shutdown(), "server drain");
  };

  // A fresh engine recovers the saved snapshots and answers the mix's
  // first query.
  auto recover_once = [&](SpanRecorder* rec) {
    nodb::NoDbEngine recovered(catalog, config);
    for (const char* table : {"t", "d"}) {
      ScopedSpan span(rec, "persist.load", 0);
      nodb::persist::RecoveryReport rr = Must(recovered.LoadSnapshot(table), "recover");
      if (!rr.any_recovered()) {
        Fail("self-check: snapshot of " + std::string(table) +
             " not recovered: " + rr.detail);
      }
    }
    int64_t q0 = NowNs();
    nodb::QueryOutcome out = Must(recovered.Execute(mix[0].sql), "recovered query");
    e2e.recovered_first_query_ms.push_back((NowNs() - q0) / 1e6);
    CheckAnswer(mix[0].sql, AnswerOf(out.result), expected[0], report);
  };

  // One open-loop phase at `rate` for `seconds`: client c's k-th
  // request is due at start + (k + c / C) * C / rate.
  auto open_loop = [&](Deployment* dep, double rate, double seconds,
                       SpanRecorder* rec, std::vector<Picker>* pickers) {
    std::vector<LoopResult> per_client(kConnections);
    const int64_t start = NowNs() + 2'000'000;  // let every thread arm
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const double interval_ns = 1e9 * kConnections / rate;
    RunThreads(kConnections, [&](size_t c) {
        LoopResult& res = per_client[c];
        for (uint64_t k = 0;; ++k) {
          int64_t due = start + static_cast<int64_t>(
                                    (k + static_cast<double>(c) / kConnections) *
                                    interval_ns);
          if (due >= end) break;
          // Sleep to just short of the due time, then yield-spin, so a
          // late timer wake-up of this thread does not count as
          // latency of the system under test.
          int64_t now = NowNs();
          if (due - now > kSpinNs) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
          }
          while (NowNs() < due) std::this_thread::yield();
          int64_t sent = NowNs();
          size_t qi = (*pickers)[c].Next();
          uint64_t request = rec == nullptr ? 0 : rec->NextRequest();
          ScopedSpan span(rec, "client.request", request);
          auto out = dep->clients[c].Execute(mix[qi].sql);
          int64_t done = NowNs();
          span.Close();
          res.counts.generator_lag_ms.push_back((sent - due) / 1e6);
          res.final_lag_ms = (sent - due) / 1e6;
          if (!out.ok()) {
            ++res.rejected;
            CountFailure(mix[qi].sql + ": " + out.status().ToString(), report);
            continue;
          }
          res.latencies_ms.push_back((done - due) / 1e6);
          res.by_shape[mix[qi].shape].push_back((done - due) / 1e6);
          res.counts.Count(out->metrics);
          res.counts.wire_overhead_us.push_back(
              ((done - sent) - out->metrics.total_ns) / 1e3);
          if (rec != nullptr) {
            // The server-side execution, laid out at the end of the
            // request from the total the server returned.
            rec->Emit("engine.execute", span.id(), request,
                      done - out->metrics.total_ns, done);
          }
          CheckAnswer(mix[qi].sql, AnswerOf(out->result), expected[qi], report);
        }
    });
    LoopResult total;
    for (LoopResult& r : per_client) {
      for (auto& [shape, v] : r.by_shape) {
        total.by_shape[shape].insert(total.by_shape[shape].end(), v.begin(), v.end());
      }
      total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                                r.latencies_ms.end());
      total.counts.Merge(r.counts);
      total.rejected += r.rejected;
      total.final_lag_ms = std::max(total.final_lag_ms, r.final_lag_ms);
    }
    return total;
  };

  // One closed-loop phase for `seconds`: each connection sends its next
  // request as soon as the previous answer arrived, so the completed
  // queries per second are what the server sustains, not an offered
  // rate. Adds one throughput sample per kRateWindowS window: the
  // window's completions over the time since the last completion before
  // it.
  auto closed_loop = [&](Deployment* dep, double seconds, std::vector<Picker>* pickers) {
    std::vector<std::vector<int64_t>> completed(kConnections);
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    RunThreads(kConnections, [&](size_t c) {
      while (NowNs() < end) {
        size_t qi = (*pickers)[c].Next();
        auto out = dep->clients[c].Execute(mix[qi].sql);
        if (!out.ok()) {
          CountFailure(mix[qi].sql + ": " + out.status().ToString(), report);
          continue;
        }
        completed[c].push_back(NowNs());
        CheckAnswer(mix[qi].sql, AnswerOf(out->result), expected[qi], report);
      }
    });
    std::vector<int64_t> done;
    for (const std::vector<int64_t>& c : completed) done.insert(done.end(), c.begin(), c.end());
    std::sort(done.begin(), done.end());
    const int64_t window_ns =
        static_cast<int64_t>(std::min(kRateWindowS, seconds) * 1e9);
    int64_t from = start, last = start, window_end = start + window_ns;
    uint64_t n = 0;
    for (int64_t t : done) {
      if (t >= window_end && n > 0) {
        e2e.throughput_qps.push_back(n / ((last - from) / 1e9));
        from = last;
        n = 0;
        while (window_end <= t) window_end += window_ns;
      }
      ++n;
      last = t;
    }
  };

  // Only the served deployment keeps snapshots on; the probes' are timed
  // and dropped without fsync'd writes.
  nodb::NoDbConfig probe_config = config;
  probe_config.snapshot_mode = nodb::SnapshotMode::kOff;
  Deployment dep = set_up(config);
  layer.begin = RegistryMark::Now();

  if (!options.trace) {
    // The measured phase runs in blocks of a fixed-rate open loop and a
    // closed loop; before, between and after them the probes run, so
    // their samples are spread over the whole run like the latencies
    // are.
    for (const char* table : {"t", "d"}) {
      MustOk(dep.engine->SaveSnapshot(table), "save " + std::string(table));
    }
    LoopResult main;
    std::vector<Picker> open_picks = Pickers(mix, options.seed * 4 + 1);
    std::vector<Picker> closed_picks = Pickers(mix, options.seed * 4 + 2);
    for (int b = 0; b <= kBlocks; ++b) {
      if (b % kSetUpEvery == 0) {
        Deployment probe = set_up(probe_config);
        tear_down(&probe, nullptr);
      }
      for (int q = 0; q < kFirstQueriesPerGap; ++q) first_query();
      for (int p = 0; p < kOpeningPassesPerGap; ++p) {
        nodb::NoDbEngine probe(catalog, probe_config);
        opening_pass(&probe, NowNs());
      }
      for (int r = 0; r < kRecoveriesPerGap; ++r) recover_once(nullptr);
      if (b == kBlocks) break;
      LoopResult block = open_loop(&dep, kRateQps, options.seconds * kOpenShare / kBlocks,
                                   nullptr, &open_picks);
      main.latencies_ms.insert(main.latencies_ms.end(), block.latencies_ms.begin(),
                               block.latencies_ms.end());
      for (auto& [shape, v] : block.by_shape) {
        main.by_shape[shape].insert(main.by_shape[shape].end(), v.begin(), v.end());
      }
      main.counts.Merge(block.counts);
      closed_loop(&dep, options.seconds * kClosedShare / kBlocks, &closed_picks);
    }
    e2e.latencies_ms = main.latencies_ms;
    // Rate ladder: the highest rate whose p99 meets the limit without a
    // growing backlog (the last request of the step went out on time).
    double step_s =
        options.seconds * kLadderShare / (sizeof(kLadder) / sizeof(kLadder[0]));
    double max_rate = 0;
    std::string ladder_note;
    for (double rate : kLadder) {
      std::vector<Picker> step_picks =
          Pickers(mix, options.seed * 4 + 3 + static_cast<uint64_t>(rate));
      LoopResult step = open_loop(&dep, rate, step_s, nullptr, &step_picks);
      double p99 = Quantile(step.latencies_ms, 0.99);
      bool ok = step.rejected == 0 && p99 <= kP99LimitMs &&
                step.final_lag_ms < 0.1 * step_s * 1e3;
      ladder_note += std::to_string(static_cast<int>(rate)) + ":" +
                     std::to_string(p99).substr(0, 6) + "ms ";
      if (!ok) break;
      max_rate = rate;
    }
    report->Extra("max_rate_qps", max_rate, "1/s",
                  "ladder p99 (limit " + std::to_string(kP99LimitMs).substr(0, 4) +
                      " ms): " + ladder_note);
    for (const auto& [shape, v] : main.by_shape) {
      report->Extra(std::string("latency_p50_ms.") + kShapeName[shape], Median(v), "ms",
                    "n=" + std::to_string(v.size()) + ", p99 " +
                        std::to_string(Quantile(v, 0.99)) + " ms");
    }
    report->Extra("generator_lag_p99_ms",
                  Quantile(main.counts.generator_lag_ms, 0.99), "ms",
                  "open-loop send lateness at the fixed rate");
    e2e.aux_bytes = ReadStructures(*dep.engine, {"t", "d"}).aux_bytes();
    tear_down(&dep, nullptr);
  } else {
    for (int q = 0; q < kFirstQueriesPerGap; ++q) first_query();
    // The same request sequence untraced and traced.
    std::vector<Picker> plain_picks = Pickers(mix, options.seed * 4 + 1);
    std::vector<Picker> traced_picks = Pickers(mix, options.seed * 4 + 1);
    std::vector<Picker> closed_picks = Pickers(mix, options.seed * 4 + 2);
    LoopResult plain =
        open_loop(&dep, kRateQps, options.seconds * 0.35, nullptr, &plain_picks);
    LoopResult traced =
        open_loop(&dep, kRateQps, options.seconds * 0.35, &recorder, &traced_picks);
    layer.trace_overhead = Median(traced.latencies_ms) / Median(plain.latencies_ms) - 1;
    layer.counts = plain.counts;
    layer.counts.Merge(traced.counts);
    layer.rejected = static_cast<double>(dep.server->Stats().rejected_total);
    layer.structures = ReadStructures(*dep.engine, {"t", "d"});
    e2e.latencies_ms = plain.latencies_ms;
    closed_loop(&dep, options.seconds * kClosedShare / kBlocks, &closed_picks);
    e2e.aux_bytes = layer.structures.aux_bytes();
    layer.end = RegistryMark::Now();
    tear_down(&dep, &recorder);
    for (int r = 0; r < kRecoveriesPerGap; ++r) recover_once(&recorder);
    layer.snapshot_bytes = 0;
    for (const char* table : {"t", "d"}) {
      layer.snapshot_bytes += static_cast<double>(FileSize(
          nodb::persist::SnapshotPathFor(Must(catalog.GetTable(table), table),
                                         config.snapshot_path)));
    }

    // Replay every distinct query through the public entry points over
    // the benchmark's own warmed table states; only the warm pass is
    // recorded, matching what the server served.
    Replayer replayer(catalog, config, nullptr);
    for (int pass = 0; pass < kWarmPasses - 1; ++pass) {
      for (const Query& q : mix) replayer.Replay(q.sql);
      replayer.set_recorder(&recorder);
      replayer.Promote();
      replayer.set_recorder(nullptr);
    }
    replayer.set_recorder(&recorder);
    for (size_t i = 0; i < mix.size(); ++i) {
      CheckAnswer("replay: " + mix[i].sql, replayer.Replay(mix[i].sql),
                  expected[i], report);
    }
    ProbeSimdIndex(fact, &recorder);
    ProbeCsv(fact, *FactSchema(), &recorder);
    layer.store_scan_ns = replayer.store_scan_ns();
    layer.store_scan_rows = replayer.store_scan_rows();
    AddLayerMetrics(recorder, layer, report);
    std::string trace_path = options.out_dir + "/trace-warm_serve-" +
                             std::to_string(options.seed) + ".jsonl";
    recorder.WriteJsonl(trace_path);
    report->Info("trace_file", trace_path);
  }
  AddEndToEnd(e2e, !options.trace, report);
}

}  // namespace perfbench
