#ifndef NODB_RAW_NODB_CONFIG_H_
#define NODB_RAW_NODB_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace nodb {

/// Snapshot persistence policy (persist/snapshot.h).
enum class SnapshotMode {
  kOff,     ///< no persistence; Save/LoadSnapshot refuse
  kManual,  ///< explicit NoDbEngine::SaveSnapshot / LoadSnapshot only
  kAuto,    ///< also recover on table open and save on engine teardown
};

/// Per-query trace-span collection policy (obs/trace.h).
enum class TraceMode {
  kOff,  ///< no spans recorded; the hot path pays one relaxed load
  kOn,   ///< every query records spans into the engine's Tracer
};

/// Runtime knobs of the NoDB layer — the parameters the demo GUI
/// exposes ("the user can enable or disable the NoDB components of
/// PostgresRaw and specify the amount of storage space which is devoted
/// to internal indexes and caches").
struct NoDbConfig {
  /// Adaptive positional map (paper §3.1).
  bool enable_positional_map = true;
  size_t positional_map_budget = 64u << 20;  // bytes

  /// Binary raw-data cache (paper §3.2): the cache-tier SegmentStore
  /// (store/segment_store.h) of recently parsed segments.
  bool enable_cache = true;
  size_t cache_budget = 256u << 20;  // bytes

  /// On-the-fly statistics (paper §3.3).
  bool enable_statistics = true;

  /// Predicate pushdown: eligible single-table WHERE conjuncts are
  /// evaluated inside RawScanOperator in two phases — per block, only
  /// the predicate columns are tokenized and parsed first, the
  /// predicate is vectorized over that partial batch, and the
  /// remaining projection columns are parsed only for qualifying rows
  /// (selective parsing and selective tuple formation taken all the
  /// way into the scan).
  bool enable_pushdown = true;

  /// Per-block zone maps: min/max per (attribute, row-block), collected
  /// whenever a scan or first-touch pass parses a full block. A block
  /// provably disjoint from a pushed range/equality predicate is
  /// skipped without locating a single row. Skipping requires the
  /// positional map (the scan must be able to resume at the next
  /// block); NULL-bearing blocks are never skipped.
  bool enable_zone_maps = true;

  /// Shadow column store (store/segment_store.h): heat-driven background
  /// materialization of hot columns — the paper's adaptive-loading end
  /// state where frequently accessed raw data gradually becomes loaded
  /// data. Serving from the store requires the positional map (the
  /// hybrid plan's raw residue needs it to locate rows).
  bool enable_store = true;
  size_t store_budget = 256u << 20;  // bytes

  /// Heat threshold: an attribute is promotable once this many scans
  /// have requested it. The scan that crosses the threshold hands its
  /// parsed (or cache-resident) segments to the store as it goes
  /// (piggybacked promotion); a background pass on the engine's shared
  /// pool fills whatever that scan did not cover.
  uint32_t promote_after_accesses = 2;

  /// Row-block granularity shared by the map and cache. One chunk /
  /// cached column segment covers this many consecutive tuples.
  uint32_t rows_per_block = 4096;

  /// Distance policy (paper §3.1 "Adaptive Behavior"): a query's
  /// attribute combination is indexed as a new chunk when covering it
  /// would need more than this many existing chunks.
  uint32_t max_covering_chunks = 1;

  /// Persistent adaptive-state snapshots (persist/snapshot.h): the
  /// positional map, statistics, zone maps and shadow store of a table
  /// can be frozen into a crash-safe sidecar (`<data>.nodbmeta`) and
  /// recovered on a later process start, so a restart skips the
  /// first-touch tokenize/parse cost instead of re-paying it. kManual
  /// enables the explicit engine entry points; kAuto additionally
  /// recovers at table open and saves at engine teardown. Recovery
  /// validates the sidecar against the raw file's content signature
  /// and degrades per section — stale or corrupt state is rebuilt
  /// cold, never trusted.
  SnapshotMode snapshot_mode = SnapshotMode::kManual;

  /// Where sidecars live: empty = next to each raw file; otherwise a
  /// directory receiving `<basename>.nodbmeta` files (raw data on
  /// read-only media).
  std::string snapshot_path;

  /// Per-query trace spans (obs/trace.h): parse/plan/drain phases,
  /// scan phase aggregates and per-operator times, collected into the
  /// engine's Tracer and optionally streamed to trace_path as Chrome
  /// trace-viewer-compatible JSON lines. Runtime-togglable via
  /// NoDbEngine::tracer().SetEnabled.
  TraceMode trace_mode = TraceMode::kOff;

  /// When non-empty, every finished trace is appended here as JSONL
  /// ("" = retain in memory only; see Tracer::WriteChromeTrace).
  std::string trace_path;

  /// I/O buffer for the raw-file reader.
  size_t read_buffer_bytes = 1u << 20;

  /// ---- Server front end (server/server.h) ----------------------------
  /// Knobs below only matter when a Server is constructed around the
  /// engine; a purely in-process engine never reads them.

  /// TCP port the listener binds on 127.0.0.1 (0 = kernel-assigned
  /// ephemeral port, reported by Server::port() — tests and benches).
  uint16_t server_port = 0;

  /// Accepted connections beyond this are closed immediately.
  uint32_t server_max_connections = 64;

  /// Global ceiling on queries executing at once across every
  /// connection (0 = one per hardware core).
  uint32_t server_max_in_flight = 0;

  /// Per-tenant ceiling on concurrently executing queries.
  uint32_t server_tenant_max_concurrent = 4;

  /// Per-tenant scan-memory budget: each executing query reserves
  /// server_query_memory_reserve bytes against its tenant's budget for
  /// its lifetime, bounding how much cache/store churn one tenant can
  /// drive at a time.
  size_t server_tenant_memory_budget = 256u << 20;
  size_t server_query_memory_reserve = 16u << 20;

  /// How long an admission-blocked query waits for a slot before the
  /// server answers REJECTED.
  uint32_t server_queue_timeout_ms = 1000;

  /// Graceful drain: in-flight queries get this long to finish after
  /// shutdown is requested; stragglers are then cancelled at their
  /// next batch boundary.
  uint32_t server_drain_timeout_ms = 5000;

  /// Frames longer than this are a protocol error (caps allocation
  /// from a hostile or corrupt length prefix).
  size_t server_max_frame_bytes = 16u << 20;

  /// Row granularity of RESULT_BATCH frames streamed to clients.
  uint32_t server_result_batch_rows = 4096;

  /// Whether a remote SHUTDOWN frame (shell `\shutdown`) may drain the
  /// server; SIGTERM always works regardless.
  bool server_allow_remote_shutdown = true;

  /// Returns the paper's "Baseline" configuration: plain external-files
  /// behaviour with every NoDB structure disabled.
  static NoDbConfig Baseline() {
    NoDbConfig config;
    config.enable_positional_map = false;
    config.enable_cache = false;
    config.enable_statistics = false;
    config.enable_store = false;
    config.enable_pushdown = false;
    config.enable_zone_maps = false;
    config.snapshot_mode = SnapshotMode::kOff;
    return config;
  }

  /// Approximates a load-first system without a load phase: every
  /// column is promoted to the shadow store on first touch under an
  /// effectively unlimited budget, so repeated queries run against
  /// fully materialized binary columns.
  static NoDbConfig FullyMaterialized() {
    NoDbConfig config;
    config.promote_after_accesses = 1;
    config.store_budget = size_t{8} << 30;
    config.cache_budget = size_t{1} << 30;
    return config;
  }
};

}  // namespace nodb

#endif  // NODB_RAW_NODB_CONFIG_H_
