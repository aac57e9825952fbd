// The traced run's layer instruments: the replay of a query through
// the public parse -> plan -> drain -> wire entry points over a
// benchmark-owned table state, stand-alone probes of the SIMD and CSV
// layers over a workload's bytes, the per-query counters the engine
// already returns, and the one place that turns all of them into the
// per-layer metrics every workload reports.
#ifndef NODB_PERFBENCH_PROBES_H_
#define NODB_PERFBENCH_PROBES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engines/nodb_engine.h"
#include "obs/metrics.h"
#include "raw/table_state.h"

namespace perfbench {

/// Sums of the engine's own per-query counters (QueryMetrics and the
/// ScanMetrics inside it), plus client-side observations.
struct LayerCounts {
  nodb::ScanMetrics scan;
  uint64_t queries = 0;
  std::vector<double> glue_us;          ///< total - parse - plan - drain
  std::vector<double> wire_overhead_us; ///< client latency - total_ns
  std::vector<double> generator_lag_ms; ///< open-loop send lateness

  void Count(const nodb::QueryMetrics& metrics);
  void Merge(const LayerCounts& other);
};

/// End-of-workload sizes and counters of the adaptive structures,
/// summed over the given table states.
struct StructureState {
  double map_bytes = 0;
  double map_evictions = 0;
  double cache_bytes = 0;
  double cache_evictions = 0;
  double store_bytes = 0;
  double store_evictions = 0;
  double store_promotions = 0;
  void Add(const nodb::RawTableState* state);
  double aux_bytes() const { return map_bytes + cache_bytes + store_bytes; }
};
StructureState ReadStructures(const nodb::NoDbEngine& engine,
                              const std::vector<std::string>& tables);

/// Global-registry histogram totals read at the workload's boundaries
/// (promoter passes, server admission waits).
struct RegistryMark {
  nodb::obs::HistogramSnapshot promoter_pass;
  nodb::obs::HistogramSnapshot queue_wait;
  static RegistryMark Now();
};

/// Replays queries through ParseSelect -> PlanSelect -> operator drain
/// -> EncodeBatchRows/DecodeBatchInto over its own RawTableStates (one
/// per table, built with the engine's config), recording a span per
/// step. Not thread-safe: replay from one thread.
class Replayer {
 public:
  Replayer(nodb::Catalog catalog, const nodb::NoDbConfig& config,
           SpanRecorder* recorder);
  ~Replayer();

  /// Spans go to `recorder` from now on (null = replay unrecorded,
  /// e.g. while warming the replayer's own state).
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }

  /// Re-checks every owned table's raw file (after an append).
  void CheckForUpdates();

  /// Promotes every owned table's hot columns into its store now
  /// (`PromoteHotColumns`, the engine's background pass, run inline).
  void Promote();

  /// Replays `sql` as one request and returns the answer as decoded
  /// from the wire.
  Answer Replay(const std::string& sql);

  /// Time and rows of scans whose every row came from the store.
  double store_scan_ns() const { return store_scan_ns_; }
  double store_scan_rows() const { return store_scan_rows_; }

 private:
  class Factory;
  nodb::RawTableState* State(const std::string& table);

  nodb::Catalog catalog_;
  nodb::NoDbConfig config_;
  SpanRecorder* recorder_;
  std::map<std::string, std::unique_ptr<nodb::RawTableState>> states_;
  double store_scan_ns_ = 0;
  double store_scan_rows_ = 0;
};

/// Stage-1 structural indexing of the file's bytes in read-buffer
/// slabs, one span per pass ("simd.index", rows = bytes). The file is
/// read through the io layer's RandomAccessFile ("io.read").
void ProbeSimdIndex(const std::string& path, SpanRecorder* recorder);

/// Tokenizes the file's rows and converts every field by type, one span
/// per pass ("csv.tokenize", "csv.convert.<type>", rows = fields).
void ProbeCsv(const std::string& path, const nodb::Schema& schema,
              SpanRecorder* recorder);

/// Everything the per-layer report needs besides the spans.
struct LayerInputs {
  LayerCounts counts;
  StructureState structures;
  RegistryMark begin;
  RegistryMark end;
  double raw_bytes = 0;
  double snapshot_bytes = 0;
  double rejected = 0;
  double store_scan_ns = 0;
  double store_scan_rows = 0;
  double trace_overhead = 0;  ///< traced / untraced latency - 1
};

/// Emits every per-layer metric (0 where the workload leaves a layer
/// idle), derived from the recorder's spans and `inputs`.
void AddLayerMetrics(const SpanRecorder& recorder, const LayerInputs& inputs,
                     Report* report);

}  // namespace perfbench

#endif  // NODB_PERFBENCH_PROBES_H_
