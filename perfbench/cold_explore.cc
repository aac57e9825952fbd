// cold_explore: the paper's data-to-query race. Every round builds a
// fresh engine over the same raw file, runs a fixed serial exploratory
// sequence whose attribute sets shift from query to query (with think
// time: each query's background promotion settles before the next),
// saves a snapshot, and lets a second fresh engine recover it and
// answer the first query again.

#include <memory>

#include "engines/nodb_engine.h"
#include "persist/snapshot.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 15000;  // ~1.4 MB of raw CSV
constexpr int kMinRounds = 5;
/// Every round builds the same adaptive state from the same file, so
/// the snapshot written by one round is the one any later round would
/// write. Saving it (an fsync'd multi-megabyte write) in one round of
/// every kSaveEvery keeps the run from loading the disk, whose
/// write-back slowed this and later runs on a shared virtual machine.
constexpr int kSaveEvery = 64;

/// LIMIT peeks, filtered aggregates and a GROUP BY; consecutive queries
/// touch different columns. Seeds move the constants only within narrow
/// bands, so every seed's sequence does the same amount of work. Five of
/// the round's eleven queries (with the recovered one) are peeks or
/// zone-skipping, so the median latency lands on query 4, whose cost
/// does not depend on promotion timing. c1, c2 and c4 recur, so they are hot (and
/// promoted) by the time the round saves its snapshot, which lets the
/// recovered engine answer query 0 without tokenizing.
std::vector<std::string> Sequence(uint64_t seed) {
  Rng rng(seed * 7 + 1);
  auto num = [&](int64_t lo, int64_t hi) {
    return std::to_string(rng.Range(lo, hi));
  };
  int64_t d0 = kDateBase + rng.Range(0, kDateSpan / 2);
  int64_t r0 = rng.Range(0, kRows - 2000);
  return {
      "SELECT COUNT(*) AS n, SUM(c2) AS s, MIN(c4) AS lo FROM t WHERE c1 < " +
          num(490000, 510000),
      "SELECT c0, c3, c6 FROM t LIMIT 10",
      "SELECT c3, COUNT(*) AS n, AVG(c2) AS a FROM t GROUP BY c3",
      "SELECT SUM(c7) AS s, MAX(c8) AS m FROM t WHERE c4 >= " +
          DateLiteral(d0) + " AND c4 < " + DateLiteral(d0 + 1500),
      "SELECT c0, c1, c9 FROM t WHERE c5 = " + num(0, 99) + " LIMIT 15",
      "SELECT COUNT(*) AS n, SUM(c1) AS s FROM t WHERE c0 BETWEEN " +
          std::to_string(r0) + " AND " + std::to_string(r0 + 1500),
      "SELECT c3, MIN(c9) AS lo, MAX(c11) AS hi FROM t WHERE c5 < " +
          num(45, 55) + " GROUP BY c3",
      "SELECT c6, c7 FROM t WHERE c11 > " + num(890000000, 910000000) +
          " ORDER BY c7 DESC, c6 LIMIT 10",
      "SELECT COUNT(*) AS n, SUM(c2) AS s, MIN(c4) AS lo FROM t WHERE c1 < " +
          num(240000, 260000),
      "SELECT c3, c5, c8 FROM t WHERE c0 >= " + std::to_string(r0) + " LIMIT 20",
  };
}

struct RoundResult {
  double wait_s = 0;  // construction, answers and recovery: no think time
  double setup_s = 0;
  double data_to_query_s = 0;
  double first_ms = 0;
  double recovered_ms = 0;
  double aux_bytes = 0;
};

}  // namespace

void RunColdExplore(const Options& options, Report* report) {
  RunDir dir(options);
  const std::string path = dir.File("t.csv");
  const uint64_t raw_bytes = WriteFactRows(path, options.seed, 0, kRows, false);
  const std::vector<std::string> sequence = Sequence(options.seed);
  const std::vector<Expected> expected =
      OracleAnswers(dir.path(), path, "", sequence);

  nodb::NoDbConfig config;
  config.snapshot_mode = nodb::SnapshotMode::kManual;
  const nodb::Catalog catalog = MakeCatalog(path);
  report->Info("raw_bytes.t", std::to_string(raw_bytes) + " (" +
                                  std::to_string(kRows) + " rows, 12 columns)");
  report->Info("budgets", "map " + std::to_string(config.positional_map_budget) +
                              " B, cache " + std::to_string(config.cache_budget) +
                              " B, store " + std::to_string(config.store_budget) +
                              " B (defaults; the file fits)");

  SpanRecorder recorder;
  LayerInputs layer;
  layer.raw_bytes = static_cast<double>(raw_bytes);
  layer.begin = RegistryMark::Now();
  EndToEnd e2e;
  e2e.raw_bytes = static_cast<double>(raw_bytes);
  std::vector<double> untraced_dtq, traced_dtq;
  std::vector<std::vector<double>> per_query_ms(sequence.size());

  // One round; `rec` is null in untraced rounds.
  auto round = [&](SpanRecorder* rec, bool save) {
    RoundResult r;
    uint64_t request = rec == nullptr ? 0 : rec->NextRequest();
    ScopedSpan round_span(rec, "bench.round", request);
    int64_t t0 = NowNs();
    auto engine = std::make_unique<nodb::NoDbEngine>(catalog, config);
    int64_t construct_ns = NowNs() - t0;
    double answer_s = 0;  // time spent waiting for answers
    for (size_t i = 0; i < sequence.size(); ++i) {
      int64_t q0 = NowNs();
      ScopedSpan span(rec, "engine.execute", request);
      nodb::QueryOutcome outcome =
          Must(engine->Execute(sequence[i]), "cold_explore query");
      span.Close();
      double ms = (NowNs() - q0) / 1e6;
      answer_s += ms / 1e3;
      e2e.latencies_ms.push_back(ms);
      per_query_ms[i].push_back(ms);
      CheckAnswer(sequence[i], AnswerOf(outcome.result), expected[i], report);
      layer.counts.Count(outcome.metrics);
      if (i == 0) {
        r.first_ms = ms;
        if (outcome.metrics.scan.rows_scanned == 0 ||
            outcome.metrics.scan.rows_from_raw !=
                outcome.metrics.scan.rows_scanned) {
          Fail("self-check: cold_explore's first query must be served "
               "entirely from raw (rows_from_raw == rows_scanned)");
        }
      }
      // Think time: the analyst reads the answer while the query's
      // background promotion finishes, so passes never overlap queries.
      engine->WaitForPromotions();
    }
    r.data_to_query_s = construct_ns / 1e9 + answer_s;
    StructureState structures = ReadStructures(*engine, {"t"});
    r.aux_bytes = structures.aux_bytes();
    if (rec != nullptr) layer.structures = structures;
    if (save) {
      ScopedSpan span(rec, "persist.save", request);
      MustOk(engine->SaveSnapshot("t"), "cold_explore save");
    }
    engine.reset();

    int64_t t1 = NowNs();
    auto recovered = std::make_unique<nodb::NoDbEngine>(catalog, config);
    {
      ScopedSpan span(rec, "persist.load", request);
      nodb::persist::RecoveryReport rr =
          Must(recovered->LoadSnapshot("t"), "cold_explore recovery");
      if (!rr.any_recovered()) Fail("self-check: snapshot not recovered: " + rr.detail);
    }
    r.setup_s = (construct_ns + (NowNs() - t1)) / 1e9;
    int64_t q0 = NowNs();
    ScopedSpan span(rec, "engine.execute", request);
    nodb::QueryOutcome outcome =
        Must(recovered->Execute(sequence[0]), "cold_explore recovered query");
    span.Close();
    r.recovered_ms = (NowNs() - q0) / 1e6;
    r.wait_s = r.data_to_query_s + r.setup_s - construct_ns / 1e9 + r.recovered_ms / 1e3;
    e2e.latencies_ms.push_back(r.recovered_ms);
    CheckAnswer(sequence[0], AnswerOf(outcome.result), expected[0], report);
    layer.counts.Count(outcome.metrics);
    if (outcome.metrics.scan.fields_tokenized != 0) {
      Fail("self-check: the recovered first query tokenized " +
           std::to_string(outcome.metrics.scan.fields_tokenized) +
           " fields (expected 0)");
    }
    return r;
  };

  // Untraced rounds fill the whole window; a traced run splits it
  // between untraced and traced rounds to measure tracing overhead.
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  int rounds = 0;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    SpanRecorder* rec = phase == 1 ? &recorder : nullptr;
    int64_t phase_start = NowNs();
    int phase_rounds = 0;
    while (phase_rounds < kMinRounds ||
           (NowNs() - phase_start) / 1e9 < window_s) {
      RoundResult r = round(rec, phase_rounds % kSaveEvery == 0);
      ++phase_rounds;
      (phase == 1 ? traced_dtq : untraced_dtq).push_back(r.data_to_query_s);
      e2e.setup_s.push_back(r.setup_s);
      e2e.data_to_query_s.push_back(r.data_to_query_s);
      e2e.first_query_ms.push_back(r.first_ms);
      e2e.recovered_first_query_ms.push_back(r.recovered_ms);
      e2e.aux_bytes = r.aux_bytes;
      e2e.throughput_qps.push_back((sequence.size() + 1) / r.wait_s);
    }
    rounds += phase_rounds;
  }
  report->Info("rounds", std::to_string(rounds) + " x (" +
                             std::to_string(sequence.size()) +
                             " cold queries + save + recover + 1 query)");

  for (size_t i = 0; i < sequence.size(); ++i) {
    report->Extra("latency_p50_ms.q" + std::to_string(i), Median(per_query_ms[i]), "ms",
                  "p99 " + std::to_string(Quantile(per_query_ms[i], 0.99)) + " ms: " +
                      sequence[i].substr(0, 60));
  }

  if (options.trace) {
    // Replay the sequence cold through the public entry points, promote
    // what it made hot, then probe the io, SIMD and CSV layers over the
    // same bytes.
    Replayer replayer(catalog, config, &recorder);
    for (size_t i = 0; i < sequence.size(); ++i) {
      CheckAnswer("replay: " + sequence[i], replayer.Replay(sequence[i]), expected[i],
                  report);
    }
    replayer.Promote();
    ProbeSimdIndex(path, &recorder);
    ProbeCsv(path, *FactSchema(), &recorder);
    layer.end = RegistryMark::Now();
    layer.snapshot_bytes = static_cast<double>(FileSize(
        nodb::persist::SnapshotPathFor(Must(catalog.GetTable("t"), "t"),
                                       config.snapshot_path)));
    layer.store_scan_ns = replayer.store_scan_ns();
    layer.store_scan_rows = replayer.store_scan_rows();
    layer.trace_overhead = Median(traced_dtq) / Median(untraced_dtq) - 1;
    AddLayerMetrics(recorder, layer, report);
    std::string trace_path = options.out_dir + "/trace-cold_explore-" +
                             std::to_string(options.seed) + ".jsonl";
    recorder.WriteJsonl(trace_path);
    report->Info("trace_file", trace_path);
  }
  AddEndToEnd(e2e, !options.trace, report);
}

}  // namespace perfbench
