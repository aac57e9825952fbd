#ifndef NODB_ENGINES_QUERY_SESSION_H_
#define NODB_ENGINES_QUERY_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.h"
#include "exec/cancel.h"

namespace nodb {

/// One client's handle onto a shared engine: delegates execution and
/// keeps that client's running totals, so a many-client deployment can
/// attribute cost per session while the engine's adaptive state stays
/// shared underneath.
///
/// A session is single-threaded by design (one per client/worker);
/// cross-session concurrency is the engine's job.
class QuerySession {
 public:
  QuerySession(Engine* engine, std::string client_id)
      : engine_(engine), client_id_(std::move(client_id)) {}

  /// Runs `sql` on the shared engine and folds the outcome into this
  /// session's totals.
  Result<QueryOutcome> Execute(std::string_view sql);

  /// Server-shaped execution: batches stream to `sink` (null = fully
  /// materialize, as Execute), and `cancel` (null = uncancellable) is
  /// installed on the executing thread so the drain can be abandoned
  /// at any batch boundary. Cancelled queries are not folded into this
  /// session's totals — they produced no answer.
  Result<QueryOutcome> ExecuteStreaming(std::string_view sql,
                                        BatchSink* sink,
                                        const QueryCancelFlag* cancel);

  const std::string& client_id() const { return client_id_; }
  const EngineTotals& totals() const { return totals_; }

 private:
  Engine* engine_;
  std::string client_id_;
  EngineTotals totals_;
};

/// What one query of a concurrent batch did, stamped against the
/// batch's starting shot so overlap (queries in flight) is computable.
struct ConcurrentQueryReport {
  size_t index = 0;      ///< position in the submitted batch
  std::string client;    ///< session that ran it, e.g. "client-2"
  std::string sql;
  Status status = Status::OK();
  QueryResult result;    ///< empty when status is not OK
  QueryMetrics metrics;
  int64_t start_ns = 0;  ///< relative to the batch starting shot
  int64_t finish_ns = 0;
};

/// The outcome of NoDbEngine::ExecuteConcurrent: per-query reports in
/// input order plus batch-level aggregates.
struct ConcurrentBatchOutcome {
  std::vector<ConcurrentQueryReport> reports;
  uint32_t clients = 0;
  int64_t wall_ns = 0;

  uint64_t failures() const;
  double queries_per_second() const;

  /// Largest number of queries whose [start, finish) intervals
  /// overlapped — direct evidence of concurrent serving.
  uint32_t peak_in_flight() const;
};

}  // namespace nodb

#endif  // NODB_ENGINES_QUERY_SESSION_H_
