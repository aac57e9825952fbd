#include "engines/query_session.h"

#include <algorithm>

#include "obs/trace.h"

namespace nodb {

Result<QueryOutcome> QuerySession::Execute(std::string_view sql) {
  return ExecuteStreaming(sql, nullptr, nullptr);
}

Result<QueryOutcome> QuerySession::ExecuteStreaming(
    std::string_view sql, BatchSink* sink, const QueryCancelFlag* cancel) {
  // Tags the thread so the engine's tracer attributes the query's
  // spans to this client without widening Engine::Execute, and
  // installs the cancel flag for the drain loop to poll.
  obs::ScopedSessionLabel label(client_id_);
  ScopedQueryCancel cancel_scope(cancel);
  Result<QueryOutcome> outcome = engine_->ExecuteStreaming(sql, sink);
  if (outcome.ok()) totals_.AddQuery(outcome->metrics);
  return outcome;
}

uint64_t ConcurrentBatchOutcome::failures() const {
  uint64_t n = 0;
  for (const ConcurrentQueryReport& r : reports) {
    if (!r.status.ok()) ++n;
  }
  return n;
}

double ConcurrentBatchOutcome::queries_per_second() const {
  if (wall_ns <= 0) return 0.0;
  return static_cast<double>(reports.size()) * 1e9 /
         static_cast<double>(wall_ns);
}

uint32_t ConcurrentBatchOutcome::peak_in_flight() const {
  // Sweep start/finish events in time order; ties resolve finishes
  // first so back-to-back queries on one client do not count as
  // overlapping.
  std::vector<std::pair<int64_t, int>> events;
  events.reserve(reports.size() * 2);
  for (const ConcurrentQueryReport& r : reports) {
    events.emplace_back(r.start_ns, +1);
    events.emplace_back(r.finish_ns, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  int in_flight = 0;
  int peak = 0;
  for (const auto& [at, delta] : events) {
    in_flight += delta;
    peak = std::max(peak, in_flight);
  }
  return static_cast<uint32_t>(peak);
}

}  // namespace nodb
