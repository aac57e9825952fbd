#ifndef NODB_EXEC_CANCEL_H_
#define NODB_EXEC_CANCEL_H_

#include <atomic>

#include "util/status.h"

namespace nodb {

/// Cooperative per-query cancellation.
///
/// A QueryCancelFlag is owned by whoever can abandon a query — a
/// server connection whose client hung up, a drain deadline, a test.
/// The executing thread installs it with ScopedQueryCancel for the
/// duration of one query; QueryResult::Drain polls it at every batch
/// boundary and aborts with Status::Cancelled. Cancellation is
/// strictly cooperative: a batch in flight finishes — the drain loop
/// is the single check point, which keeps the hot path at one
/// relaxed-ish load per batch.
class QueryCancelFlag {
 public:
  QueryCancelFlag() = default;
  QueryCancelFlag(const QueryCancelFlag&) = delete;
  QueryCancelFlag& operator=(const QueryCancelFlag&) = delete;

  /// Requests cancellation; safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Installs `flag` as the current thread's active cancel flag for the
/// scope's lifetime (nullptr = uncancellable, the default). Nests: the
/// previous flag is restored on destruction, mirroring
/// obs::ScopedSessionLabel.
class ScopedQueryCancel {
 public:
  explicit ScopedQueryCancel(const QueryCancelFlag* flag);
  ~ScopedQueryCancel();

  ScopedQueryCancel(const ScopedQueryCancel&) = delete;
  ScopedQueryCancel& operator=(const ScopedQueryCancel&) = delete;

  /// The flag installed on the calling thread, or nullptr.
  static const QueryCancelFlag* Current();

 private:
  const QueryCancelFlag* previous_;
};

/// OK unless the calling thread's installed flag has fired.
Status CheckQueryNotCancelled();

}  // namespace nodb

#endif  // NODB_EXEC_CANCEL_H_
