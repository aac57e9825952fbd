// Experiment E9 — warm restarts: cold first-query cost vs a first
// query recovered from a persisted adaptive-state snapshot.
//
// The paper notes the positional map "can also be written to disk" so
// its benefit survives restarts; persist/ extends that to all four
// adaptive structures. This driver measures exactly that claim:
//
//   cold     a fresh engine's first query — pays full first-touch
//            tokenize/parse over the raw file
//   save     freezing the warmed state into the .nodbmeta sidecar
//   recover  a *new* engine validating + thawing the sidecar
//   warm     the recovered engine's first query — served from the
//            recovered shadow store / positional map
//
// Every warm run's rows are verified byte-identical to the cold run,
// and the warm first query must show zero tokenized/converted fields
// and zero raw-tier rows (no phase-1 parsing at all) with recovered
// provenance counters set — exits non-zero otherwise. At
// representative scale (>= 50000 tuples) two timing gates apply: the
// warm first query must be >= 3x faster than cold, and recovery must
// pay for itself — recover + warm first query must take less time
// than the cold first query. Below that scale the fixed per-query
// overhead dominates and both are reported but not gated.
//
// Usage: restart [tuples] [attrs]   (default 200000 x 8; CI passes
// 60000)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "monitor/panel.h"
#include "persist/snapshot.h"
#include "util/stopwatch.h"

using namespace nodb;
using namespace nodb::bench;

int main(int argc, char** argv) {
  PrintHeader("E9 / cold start vs snapshot-recovered restart");
  uint64_t tuples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  uint32_t attrs =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 8;
  if (tuples < 1000) tuples = 1000;
  if (attrs < 3) attrs = 3;

  Workload w = MakeIntWorkload("t", tuples, attrs);
  const std::string sql =
      "SELECT attr0, attr1, attr2 FROM t WHERE attr1 >= 0";
  const std::string sidecar = persist::DefaultSnapshotPath(w.path);

  NoDbConfig config;  // defaults: everything on, snapshots manual

  // ---- cold: fresh process state, first query pays first-touch.
  std::vector<std::string> reference;
  int64_t cold_ns = 0;
  int64_t save_ns = 0;
  {
    NoDbEngine engine(w.catalog, config);
    Stopwatch watch;
    auto outcome = CheckOk(engine.Execute(sql), "cold query");
    cold_ns = watch.ElapsedNanos();
    reference = outcome.result.CanonicalRows();
    // Second touch crosses the promotion heat threshold; the sidecar
    // then holds a fully materialized store of the queried columns.
    CheckOk(engine.Execute(sql).status(), "second query");
    Stopwatch save_watch;
    CheckOk(engine.SaveSnapshot("t"), "save snapshot");
    save_ns = save_watch.ElapsedNanos();
  }
  uint64_t sidecar_bytes = CheckOk(GetFileSize(sidecar), "sidecar size");

  // ---- restart: a new engine recovers the sidecar, then queries.
  Stopwatch recover_watch;
  NoDbEngine engine(w.catalog, config);
  auto report = CheckOk(engine.LoadSnapshot("t"), "load snapshot");
  int64_t recover_ns = recover_watch.ElapsedNanos();
  if (!report.any_recovered()) {
    std::fprintf(stderr, "FAIL: nothing recovered (%s)\n",
                 report.detail.c_str());
    return 1;
  }

  Stopwatch warm_watch;
  auto warm = CheckOk(engine.Execute(sql), "warm query");
  int64_t warm_ns = warm_watch.ElapsedNanos();

  // ---- verification gates.
  if (warm.result.CanonicalRows() != reference) {
    std::fprintf(stderr, "FAIL: warm restart rows differ from cold run\n");
    return 1;
  }
  const ScanMetrics& s = warm.metrics.scan;
  if (s.fields_tokenized != 0 || s.fields_converted != 0 ||
      s.rows_from_raw != 0) {
    std::fprintf(stderr,
                 "FAIL: warm first query parsed raw data "
                 "(tokenized %llu, converted %llu, raw rows %llu)\n",
                 static_cast<unsigned long long>(s.fields_tokenized),
                 static_cast<unsigned long long>(s.fields_converted),
                 static_cast<unsigned long long>(s.rows_from_raw));
    return 1;
  }
  if (s.scans_using_recovered_map == 0 ||
      s.scans_using_recovered_store == 0) {
    std::fprintf(stderr,
                 "FAIL: recovered-provenance counters not set\n");
    return 1;
  }
  double speedup = warm_ns > 0
                       ? static_cast<double>(cold_ns) /
                             static_cast<double>(warm_ns)
                       : 0.0;
  if (tuples >= 50000 && speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: warm restart only %.2fx faster than cold "
                 "(>= 3x required at this scale)\n",
                 speedup);
    return 1;
  }
  if (tuples >= 50000 && recover_ns + warm_ns >= cold_ns) {
    std::fprintf(stderr,
                 "FAIL: recovery does not pay for itself: recover %s + "
                 "warm %s >= cold %s\n",
                 FormatNanos(recover_ns).c_str(),
                 FormatNanos(warm_ns).c_str(),
                 FormatNanos(cold_ns).c_str());
    return 1;
  }

  // ---- report.
  std::printf("fixture: %llu tuples x %u attrs, %s raw, %s sidecar\n",
              static_cast<unsigned long long>(tuples), attrs,
              FormatBytes(w.file_bytes).c_str(),
              FormatBytes(sidecar_bytes).c_str());
  std::printf(
      "recovered: %llu rows, %llu map chunks, %llu zone entries, "
      "%llu store segments%s\n",
      static_cast<unsigned long long>(report.rows_recovered),
      static_cast<unsigned long long>(report.chunks_recovered),
      static_cast<unsigned long long>(report.zone_entries_recovered),
      static_cast<unsigned long long>(report.store_segments_recovered),
      report.stats_recovered ? ", stats" : "");
  std::printf("\nphase,nanos\n");
  std::printf("cold_first_query,%lld\n", static_cast<long long>(cold_ns));
  std::printf("snapshot_save,%lld\n", static_cast<long long>(save_ns));
  std::printf("snapshot_recover,%lld\n",
              static_cast<long long>(recover_ns));
  std::printf("warm_first_query,%lld\n", static_cast<long long>(warm_ns));
  std::printf("\nwarm restart speedup: %.2fx (%s cold -> %s warm)\n",
              speedup, FormatNanos(cold_ns).c_str(),
              FormatNanos(warm_ns).c_str());
  std::printf("recover + warm: %s vs %s cold; recovery %.0f MB/s of "
              "sidecar\n",
              FormatNanos(recover_ns + warm_ns).c_str(),
              FormatNanos(cold_ns).c_str(),
              recover_ns > 0 ? static_cast<double>(sidecar_bytes) * 1e3 /
                                   static_cast<double>(recover_ns)
                             : 0.0);
  std::printf("rows byte-identical: yes; warm raw parsing: none\n");
  std::printf("%s",
              MonitorPanel::RenderStorageTiers(*engine.table_state("t"))
                  .c_str());
  return 0;
}
