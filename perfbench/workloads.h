// The three workloads and the end-to-end metrics they share.
#ifndef NODB_PERFBENCH_WORKLOADS_H_
#define NODB_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Raw end-to-end observations of one run, turned into metrics by
/// AddEndToEnd. Every workload fills every field: "the opening
/// sequence" is the workload's first fixed query sequence on a freshly
/// constructed engine.
struct EndToEnd {
  std::vector<double> setup_s;          ///< one sample per set-up
  std::vector<double> data_to_query_s;  ///< construction -> last answer of
                                        ///< the opening sequence
  std::vector<double> first_query_ms;   ///< first query on a cold engine
  std::vector<double> recovered_first_query_ms;  ///< after snapshot recovery
  std::vector<double> latencies_ms;     ///< every measured query
  std::vector<double> throughput_qps;   ///< queries answered per second of
                                        ///< wall time, one sample per round,
                                        ///< epoch or closed-loop window
  double aux_bytes = 0;                 ///< map + cache + store at the end
  double raw_bytes = 0;                 ///< raw file bytes at the end
};

/// Emits the gated end-to-end metrics (as Extra lines in a traced run,
/// whose numbers include tracing cost).
void AddEndToEnd(const EndToEnd& e2e, bool gated, Report* report);

/// Records one answer's check against the oracle; a mismatch is
/// reported on stderr and counted as failed.
void CheckAnswer(const std::string& sql, const Answer& got, const Expected& want,
                 Report* report);
/// Records an attempted query that failed outright (an error or a
/// REJECTED reply): reported on stderr and counted as failed.
void CountFailure(const std::string& what, Report* report);

void RunColdExplore(const Options& options, Report* report);
void RunWarmServe(const Options& options, Report* report);
void RunShiftAppend(const Options& options, Report* report);

}  // namespace perfbench

#endif  // NODB_PERFBENCH_WORKLOADS_H_
