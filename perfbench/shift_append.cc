// shift_append: a working set larger than the program's own caches.
// The positional map, cache and store budgets are a quarter of the
// parsed bytes of the columns the workload touches. In-process
// sessions, taking turns, run epochs that each query a different
// attribute window, and between epochs, with no query in flight, rows
// are appended to the raw file.

#include <algorithm>
#include <memory>

#include "engines/nodb_engine.h"
#include "engines/query_session.h"
#include "persist/snapshot.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 24000;        // ~2.2 MB of raw CSV at start
constexpr uint64_t kAppendRows = 120;    // per epoch, ~0.5% growth
/// Sessions take turns from one thread rather than running on a thread
/// each. Concurrent sessions made latency_p50_ms and throughput_qps
/// swing by up to 0.67 and 0.38 (interquartile range over median, 10
/// runs on a 4-vCPU virtual machine) whenever the host was busy, while
/// serial metrics moved by 0.15: a descheduled virtual CPU holding an
/// engine lock stalls every other session.
constexpr size_t kSessions = 4;
constexpr int kQueriesPerSession = 10;   // per epoch
constexpr int kStartProbes = 3;
constexpr int kMinEpochs = 4;

/// Attribute windows: two numeric/date columns and a group key each.
/// Consecutive windows share no column, so a shift evicts.
struct Window {
  const char* a;  // aggregated
  const char* b;  // filtered (int, range [0, 1e6) scaled by `b_max`)
  int64_t b_max;
  const char* g;  // grouped
};
constexpr Window kWindows[] = {
    {"c2", "c1", 1000000, "c3"},
    {"c7", "c8", kDimRows, "c10"},
    {"c4", "c11", 1000000000, "c3"},
    {"c9", "c5", 100, "c10"},
};
constexpr size_t kNumWindows = sizeof(kWindows) / sizeof(kWindows[0]);

/// Parsed bytes per value: 8-byte ints, doubles and dates plus a
/// validity byte; strings about 9 bytes of text plus a 4-byte offset.
double ParsedBytesPerRow() {
  double bytes = 0;
  const std::shared_ptr<nodb::Schema> schema = FactSchema();
  for (const nodb::Field& f : schema->fields()) {
    bool touched = false;
    for (const Window& w : kWindows) {
      touched |= f.name == w.a || f.name == w.b || f.name == w.g;
    }
    if (touched) bytes += f.type == nodb::DataType::kString ? 14 : 9;
  }
  return bytes;
}

std::string Query(const Window& w, int template_id, Rng* rng) {
  std::string a = w.a, b = w.b, g = w.g;
  auto cut = [&](double frac) {
    return std::to_string(static_cast<int64_t>(w.b_max * frac));
  };
  switch (template_id) {
    case 0:  // full-scan aggregate
      return "SELECT COUNT(*) AS n, MIN(" + a + ") AS lo, MAX(" + a +
             ") AS hi FROM t WHERE " + b + " < " + cut(0.48 + 0.04 * rng->Unit());
    case 1:  // grouped aggregate over a range
      return "SELECT " + g + ", COUNT(*) AS n, MAX(" + a + ") AS m FROM t WHERE " +
             b + " >= " + cut(0.3 + 0.04 * rng->Unit()) + " GROUP BY " + g;
    case 2:  // top-N
      return "SELECT c0, " + a + " FROM t WHERE " + b + " < " +
             cut(0.2 + 0.04 * rng->Unit()) + " ORDER BY " + a + " DESC, c0 LIMIT 5";
    default:  // peek
      return "SELECT c0, " + a + ", " + g + " FROM t WHERE " + b + " >= " +
             cut(0.5 * rng->Unit()) + " LIMIT 10";
  }
}

/// One epoch's queries: the append-visible probe (previous window), the
/// epoch-first probe (this window), and each session's list.
struct EpochPlan {
  std::string after_append;
  std::string first;
  std::vector<std::vector<std::string>> sessions;
  std::vector<std::string> All() const {
    std::vector<std::string> all = {after_append, first};
    for (const auto& s : sessions) all.insert(all.end(), s.begin(), s.end());
    return all;
  }
};

EpochPlan PlanEpoch(uint64_t seed, uint64_t epoch, size_t num_sessions) {
  Rng rng(seed * 31 + epoch * 7919 + 3);
  const Window& w = kWindows[epoch % kNumWindows];
  const Window& prev = kWindows[(epoch + kNumWindows - 1) % kNumWindows];
  EpochPlan plan;
  plan.after_append = "SELECT COUNT(*) AS n, SUM(" + std::string(prev.b) +
                      ") AS s, MAX(c0) AS last FROM t";
  plan.first = Query(w, 0, &rng);
  plan.sessions.resize(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    for (int q = 0; q < kQueriesPerSession; ++q) {
      plan.sessions[s].push_back(Query(w, (q + static_cast<int>(s)) % 4, &rng));
    }
  }
  return plan;
}

}  // namespace

void RunShiftAppend(const Options& options, Report* report) {
  RunDir dir(options);
  const std::string path = dir.File("t.csv");
  const uint64_t base_bytes = WriteFactRows(path, options.seed, 0, kRows, false);

  nodb::NoDbConfig config;
  config.snapshot_mode = nodb::SnapshotMode::kManual;
  const size_t budget = static_cast<size_t>(ParsedBytesPerRow() * kRows / 4);
  config.positional_map_budget = budget;
  config.cache_budget = budget;
  config.store_budget = budget;
  const nodb::Catalog catalog = MakeCatalog(path);
  report->Info("raw_bytes.t", std::to_string(base_bytes) + " at start (" +
                                  std::to_string(kRows) + " rows, +" +
                                  std::to_string(kAppendRows) + " rows per epoch)");
  report->Info("budgets",
               "map = cache = store = " + std::to_string(budget) +
                   " B, a quarter of the " +
                   std::to_string(static_cast<uint64_t>(ParsedBytesPerRow() * kRows)) +
                   " parsed bytes of the touched columns");
  report->Info("load", std::to_string(kSessions) + " sessions x " +
                           std::to_string(kQueriesPerSession) +
                           " queries per epoch, taking turns; windows of 3 columns");

  EndToEnd e2e;
  SpanRecorder recorder;
  LayerInputs layer;

  const EpochPlan opening = PlanEpoch(options.seed, 0, kSessions);
  std::vector<std::string> opening_sqls = opening.All();
  std::vector<Expected> opening_expected =
      OracleAnswers(dir.path(), path, "", opening_sqls);
  const std::string base_path = dir.File("base.csv");
  WriteFactRows(base_path, options.seed, 0, kRows, false);
  const nodb::Catalog base_catalog = MakeCatalog(base_path);

  // Construction plus the opening epoch (serial, with think time) on a
  // fresh engine: one sample each of setup_s and data_to_query_s.
  auto set_up = [&](const nodb::Catalog& tables) {
    int64_t t0 = NowNs();
    auto fresh = std::make_unique<nodb::NoDbEngine>(tables, config);
    double answer_s = (NowNs() - t0) / 1e9;
    for (size_t i = 1; i < opening_sqls.size(); ++i) {
      int64_t q0 = NowNs();
      nodb::QueryOutcome out = Must(fresh->Execute(opening_sqls[i]), "opening");
      answer_s += (NowNs() - q0) / 1e9;
      CheckAnswer(opening_sqls[i], AnswerOf(out.result), opening_expected[i], report);
      fresh->WaitForPromotions();  // think time, as in cold_explore
    }
    e2e.data_to_query_s.push_back(answer_s);
    e2e.setup_s.push_back((NowNs() - t0) / 1e9);
    return fresh;
  };
  // The first set-up runs over `base.csv`, a copy of the base file that
  // is never appended to, and saves the snapshot the recovery probes
  // below start from; the second builds the engine the epochs run on.
  {
    std::unique_ptr<nodb::NoDbEngine> first = set_up(base_catalog);
    ScopedSpan span(options.trace ? &recorder : nullptr, "persist.save", 0);
    MustOk(first->SaveSnapshot("t"), "shift_append save");
  }
  std::unique_ptr<nodb::NoDbEngine> engine = set_up(catalog);
  layer.snapshot_bytes = static_cast<double>(FileSize(nodb::persist::SnapshotPathFor(
      Must(base_catalog.GetTable("t"), "t"), config.snapshot_path)));

  // Over the unchanging base file: the opening epoch's first query on a
  // fresh engine, on a fresh engine that recovered the set-up snapshot,
  // and a whole set-up. Probes run at the start and whenever the windows
  // come round again, so their samples span the run.
  auto probe = [&](SpanRecorder* rec) {
    set_up(base_catalog);
    {
      nodb::NoDbEngine fresh(base_catalog, config);
      int64_t q0 = NowNs();
      nodb::QueryOutcome out = Must(fresh.Execute(opening.first), "first query");
      e2e.first_query_ms.push_back((NowNs() - q0) / 1e6);
      CheckAnswer(opening.first, AnswerOf(out.result), opening_expected[1], report);
    }
    nodb::NoDbEngine recovered(base_catalog, config);
    {
      ScopedSpan span(rec, "persist.load", 0);
      nodb::persist::RecoveryReport rr =
          Must(recovered.LoadSnapshot("t"), "shift_append recovery");
      if (!rr.any_recovered()) Fail("self-check: snapshot not recovered: " + rr.detail);
    }
    int64_t q0 = NowNs();
    nodb::QueryOutcome out = Must(recovered.Execute(opening.first), "recovered");
    e2e.recovered_first_query_ms.push_back((NowNs() - q0) / 1e6);
    CheckAnswer(opening.first, AnswerOf(out.result), opening_expected[1], report);
  };
  for (int p = 0; p < kStartProbes; ++p) probe(options.trace ? &recorder : nullptr);

  std::vector<std::unique_ptr<nodb::QuerySession>> sessions;
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<nodb::QuerySession>(
        engine.get(), "session-" + std::to_string(s)));
  }
  std::unique_ptr<Replayer> replayer;
  if (options.trace) replayer = std::make_unique<Replayer>(catalog, config, nullptr);

  std::vector<double> epoch_first_ms, append_visible_ms;
  std::vector<double> epoch_aux_bytes, epoch_raw_bytes;
  // The adaptive structures once an epoch's promotions have settled.
  // Which entries survive eviction depends on how the sessions
  // interleaved, so a single end-of-run reading swings between runs;
  // the medians over epoch ends do not.
  auto sample_structures = [&](uint64_t raw_bytes) {
    engine->WaitForPromotions();
    epoch_aux_bytes.push_back(ReadStructures(*engine, {"t"}).aux_bytes());
    epoch_raw_bytes.push_back(static_cast<double>(raw_bytes));
  };
  std::vector<double> plain_latencies, traced_latencies;
  uint64_t rows = kRows;
  uint64_t epochs = 0;
  layer.begin = RegistryMark::Now();
  const int64_t start = NowNs();
  for (uint64_t epoch = 1;; ++epoch) {
    double elapsed = (NowNs() - start) / 1e9;
    // Stop only before window 0 comes round again, so every run covers
    // whole cycles of windows and its per-epoch medians compare.
    if (epochs >= static_cast<uint64_t>(kMinEpochs) && elapsed >= options.seconds &&
        epoch % kNumWindows == 0) {
      break;
    }
    if (epoch % kNumWindows == 0) probe(options.trace ? &recorder : nullptr);
    // Traced runs trace the second half of their epochs.
    SpanRecorder* rec =
        options.trace && elapsed >= options.seconds / 2 ? &recorder : nullptr;

    // Append with no query in flight, then the reference for the new
    // file generation. The previous epoch's promotions run meanwhile;
    // its structures are sampled once they have settled.
    const uint64_t previous_bytes = FileSize(path);
    WriteFactRows(path, options.seed, rows, kAppendRows, true);
    rows += kAppendRows;
    const EpochPlan plan = PlanEpoch(options.seed, epoch, kSessions);
    const std::vector<std::string> sqls = plan.All();
    const std::vector<Expected> expected = OracleAnswers(dir.path(), path, "", sqls);
    if (epochs > 0) sample_structures(previous_bytes);

    // Every append must be detected as one, so the epoch re-parses only
    // the frontier block rather than dropping every adaptive structure.
    // The check runs before the first query, and its time counts toward
    // append_visible_ms.
    int64_t epoch_start = NowNs();
    {
      ScopedSpan span(rec, "engine.refresh_table", 0);
      nodb::FileChange change = Must(engine->RefreshTable("t"), "refresh");
      if (change != nodb::FileChange::kAppended) {
        Fail("self-check: shift_append's append of epoch " + std::to_string(epoch) +
             " was detected as " + std::string(nodb::FileChangeToString(change)) +
             ", not as an append");
      }
    }
    const double refresh_ms = (NowNs() - epoch_start) / 1e6;
    std::vector<double>& latencies = rec != nullptr ? traced_latencies : plain_latencies;
    auto timed = [&](const std::string& sql, size_t index, nodb::QuerySession* session) {
      uint64_t request = rec == nullptr ? 0 : rec->NextRequest();
      int64_t q0 = NowNs();
      ScopedSpan span(rec, "engine.execute", request);
      nodb::QueryOutcome out = Must(session->Execute(sql), "shift_append query");
      span.Close();
      double ms = (NowNs() - q0) / 1e6;
      CheckAnswer(sql, AnswerOf(out.result), expected[index], report);
      return std::make_pair(ms, out.metrics);
    };
    auto [visible_ms, visible_metrics] = timed(plan.after_append, 0, sessions[0].get());
    append_visible_ms.push_back(refresh_ms + visible_ms);
    latencies.push_back(visible_ms);
    layer.counts.Count(visible_metrics);
    auto [first_ms, first_metrics] = timed(plan.first, 1, sessions[0].get());
    epoch_first_ms.push_back(first_ms);
    latencies.push_back(first_ms);
    layer.counts.Count(first_metrics);

    // The sessions take turns; session s answers
    // sqls[2 + s * kQueriesPerSession + q].
    for (size_t q = 0; q < kQueriesPerSession; ++q) {
      for (size_t s = 0; s < kSessions; ++s) {
        auto [ms, metrics] = timed(plan.sessions[s][q], 2 + s * kQueriesPerSession + q,
                                   sessions[s].get());
        latencies.push_back(ms);
        layer.counts.Count(metrics);
      }
    }
    e2e.throughput_qps.push_back((2 + kSessions * kQueriesPerSession) /
                                 ((NowNs() - epoch_start) / 1e9));
    ++epochs;

    if (rec != nullptr) {
      // Replay this epoch's distinct queries over the benchmark's own
      // state, which sees the same appends.
      replayer->set_recorder(nullptr);
      replayer->CheckForUpdates();
      replayer->set_recorder(rec);
      for (size_t i = 0; i < sqls.size(); ++i) {
        CheckAnswer("replay: " + sqls[i], replayer->Replay(sqls[i]), expected[i],
                    report);
      }
      replayer->Promote();
    } else if (replayer != nullptr) {
      replayer->CheckForUpdates();
    }
  }
  sample_structures(FileSize(path));
  StructureState structures = ReadStructures(*engine, {"t"});
  if (structures.map_evictions == 0 || structures.cache_evictions == 0) {
    Fail("self-check: shift_append must evict from the positional map and the "
         "cache (map evictions " + std::to_string(structures.map_evictions) +
         ", cache evictions " + std::to_string(structures.cache_evictions) + ")");
  }
  const uint64_t raw_bytes = FileSize(path);
  e2e.raw_bytes = Median(epoch_raw_bytes);
  e2e.aux_bytes = Median(epoch_aux_bytes);
  e2e.latencies_ms = plain_latencies;
  report->Info("epochs", std::to_string(epochs) + ", final raw bytes " +
                             std::to_string(raw_bytes));
  report->Extra("epoch_first_ms", Median(epoch_first_ms), "ms",
                "median of n=" + std::to_string(epoch_first_ms.size()));
  report->Extra("append_visible_ms", Median(append_visible_ms), "ms",
                "median of n=" + std::to_string(append_visible_ms.size()));

  sessions.clear();
  engine.reset();

  if (options.trace) {
    layer.end = RegistryMark::Now();
    layer.structures = structures;
    layer.raw_bytes = static_cast<double>(base_bytes);
    layer.store_scan_ns = replayer->store_scan_ns();
    layer.store_scan_rows = replayer->store_scan_rows();
    layer.trace_overhead = Median(traced_latencies) / Median(plain_latencies) - 1;
    ProbeSimdIndex(path, &recorder);
    ProbeCsv(path, *FactSchema(), &recorder);
    AddLayerMetrics(recorder, layer, report);
    std::string trace_path = options.out_dir + "/trace-shift_append-" +
                             std::to_string(options.seed) + ".jsonl";
    recorder.WriteJsonl(trace_path);
    report->Info("trace_file", trace_path);
  }
  AddEndToEnd(e2e, !options.trace, report);
}

}  // namespace perfbench
