#ifndef NODB_PERSIST_IMAGE_H_
#define NODB_PERSIST_IMAGE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "io/file_signature.h"
#include "raw/positional_map.h"
#include "raw/stats_collector.h"
#include "store/segment_store.h"

namespace nodb::persist {

/// One table's frozen adaptive state: the in-memory images of the four
/// structures the snapshot subsystem persists. Each member is optional
/// on the thaw side — a stale, truncated or corrupt sidecar section
/// simply leaves its structure absent, and the engine rebuilds that
/// structure cold while the rest recover (graceful per-section
/// degradation, never an error and never a wrong answer).
struct AdaptiveImage {
  std::optional<PositionalMap::Image> map;
  std::optional<StatsCollector::Image> stats;
  std::optional<ZoneMaps::Image> zones;
  std::optional<SegmentStore::Image> store;
};

/// What a recovery attempt actually restored vs left to be rebuilt —
/// the recovered-vs-rebuilt accounting surfaced by MonitorPanel and
/// asserted by the restart bench.
struct RecoveryReport {
  /// A sidecar existed and validated against the live raw file (an
  /// unchanged file, or a clean append of new rows). False means cold
  /// start: no sidecar, stale signature, bad header, or warm state.
  bool attempted = false;

  /// How the raw file relates to the snapshot: kUnchanged (full
  /// recovery) or kAppended (prefix recovered, tail first-touched).
  FileChange change = FileChange::kUnchanged;

  bool map_recovered = false;    ///< row index + chunks restored
  bool stats_recovered = false;  ///< samples + heat restored
  bool zones_recovered = false;  ///< zone-map summaries restored
  bool store_recovered = false;  ///< shadow-store segments restored

  uint64_t rows_recovered = 0;      ///< row-index entries restored
  uint64_t chunks_recovered = 0;    ///< positional-map chunks admitted
  uint64_t zone_entries_recovered = 0;
  uint64_t store_segments_recovered = 0;

  /// Human-readable reason when nothing (or less than everything) was
  /// recovered — "no snapshot", "raw file rewritten", "section
  /// 'store' checksum mismatch", ...
  std::string detail;

  bool any_recovered() const {
    return map_recovered || stats_recovered || zones_recovered ||
           store_recovered;
  }
};

}  // namespace nodb::persist

#endif  // NODB_PERSIST_IMAGE_H_
