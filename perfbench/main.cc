// nodb_perfbench: the repository benchmark program.
//
//   nodb_perfbench --workload cold_explore|warm_serve|shift_append
//                  --seed N --seconds S --trace 0|1
//                  [--source-digest HEX] [--git-sha SHA]
//
// Generates the workload's inputs from the seed, runs it against the
// engine's public surface for about S seconds, checks every answer
// against a load-first reference, and prints one line per metric
// followed by a one-line JSON result. --trace 0 reports the
// end-to-end metrics; --trace 1 re-runs the workload with spans around
// every layer call and reports the per-layer metrics instead.
// perfbench/run.py builds this binary and is the documented entry
// point.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

void AddEndToEnd(const EndToEnd& e2e, bool gated, Report* report) {
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
    if (gated) {
      report->Metric(name, value, unit, note);
    } else {
      report->Extra(name, value, unit, note + " (traced run)");
    }
  };
  auto n = [](const std::vector<double>& v) {
    return "median of n=" + std::to_string(v.size());
  };
  Summary lat = Summarize(e2e.latencies_ms);
  emit("setup_s", Median(e2e.setup_s), "s", n(e2e.setup_s));
  emit("data_to_query_s", Median(e2e.data_to_query_s), "s",
       n(e2e.data_to_query_s));
  emit("first_query_ms", Median(e2e.first_query_ms), "ms",
       n(e2e.first_query_ms));
  emit("recovered_first_query_ms", Median(e2e.recovered_first_query_ms), "ms",
       n(e2e.recovered_first_query_ms));
  emit("latency_p50_ms", lat.median, "ms", "n=" + std::to_string(lat.n));
  // Printed, not gated: its run-to-run spread on a shared virtual
  // machine exceeded the largest bound a gated metric may have.
  report->Extra("latency_p99_ms", lat.p99, "ms",
                "n=" + std::to_string(lat.n) +
                    "; highest percentile with >=10 samples beyond it: p" +
                    std::to_string(lat.tail_q).substr(0, 4) + " = " +
                    std::to_string(lat.tail) + " ms" +
                    (gated ? "" : " (traced run)"));
  emit("throughput_qps", Median(e2e.throughput_qps), "1/s", n(e2e.throughput_qps));
  emit("peak_rss_mb", PeakRssMb(), "MB", "getrusage high-water mark");
  emit("aux_bytes_per_raw_byte",
       e2e.raw_bytes > 0 ? e2e.aux_bytes / e2e.raw_bytes : 0, "ratio",
       "map+cache+store " + std::to_string(static_cast<uint64_t>(e2e.aux_bytes)) +
           " B / raw " + std::to_string(static_cast<uint64_t>(e2e.raw_bytes)) +
           " B");
}

namespace {
std::mutex g_check_mu;
}  // namespace

void CheckAnswer(const std::string& sql, const Answer& got, const Expected& want,
                 Report* report) {
  if (!want.Accepts(got)) {
    CountFailure("answer mismatch against the load-first reference: " + sql, report);
    return;
  }
  std::lock_guard<std::mutex> lock(g_check_mu);
  ++report->attempted;
}

void CountFailure(const std::string& what, Report* report) {
  std::lock_guard<std::mutex> lock(g_check_mu);
  ++report->attempted;
  ++report->failed;
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: nodb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--source-digest HEX] [--git-sha SHA]\n"
               "workloads: cold_explore warm_serve shift_append\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 4 && std::strcmp(argv[1], "--oracle") == 0) {
    return RunOracleChild(argv[2], argv[3]);
  }
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--source-digest") {
      options.source_digest = value;
    } else if (key == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();
  Report report;
  try {
    AddProvenance(options, &report);
    if (options.workload == "cold_explore") {
      RunColdExplore(options, &report);
    } else if (options.workload == "warm_serve") {
      RunWarmServe(options, &report);
    } else if (options.workload == "shift_append") {
      RunShiftAppend(options, &report);
    } else {
      return Usage();
    }
  } catch (const BenchFailure& failure) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.message.c_str());
    return 1;
  }
  report.Extra("error_rate",
               report.attempted > 0
                   ? static_cast<double>(report.failed) / report.attempted
                   : 0,
               "ratio",
               std::to_string(report.failed) + " of " +
                   std::to_string(report.attempted) +
                   " failed, rejected or mismatched");
  report.Print(report.failed == 0 && report.attempted > 0);
  return 0;
}
