// Shared machinery of the repository benchmark: seeded data
// generation, the load-first correctness oracle, sample statistics,
// the in-memory span recorder of the traced run, and the report that
// prints every metric by name and unit.
#ifndef NODB_PERFBENCH_COMMON_H_
#define NODB_PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engines/engine.h"

namespace perfbench {

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // relative to the checkout root
  std::string source_digest = "unknown";
  std::string git_sha = "unknown";
};

/// Thrown by a workload when a correctness check or a self-check fails;
/// main() prints the message and exits non-zero without a result line.
struct BenchFailure {
  std::string message;
};
[[noreturn]] void Fail(const std::string& message);

/// Unwraps a Result/Status from the engine or fails the run.
template <typename T>
T Must(nodb::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}
void MustOk(const nodb::Status& status, const std::string& what);

/// Runs body(0) .. body(n - 1) on n threads and joins them all; a
/// BenchFailure thrown on any of them is rethrown here after the join.
void RunThreads(size_t n, const std::function<void(size_t)>& body);

// --------------------------------------------------------------- time

/// Steady-clock nanoseconds (one timebase for samples and spans).
int64_t NowNs();

// ---------------------------------------------------------------- rng

/// splitmix64: small, fast and identical on every platform, so one
/// seed gives the same files and query parameters everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {  // [lo, hi]
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

// --------------------------------------------------------------- data

/// The fact table every workload queries: 12 columns cycling through
/// int, double, string and date, ~100 bytes a row.
///   c0 int row id (ascending)      c6 string random letters
///   c1 int [0, 1e6)                c7 double [-500, 500)
///   c2 double [0, 1000)            c8 int [0, kDimRows) join key
///   c3 string one of 16 words      c9 date 2000..2019
///   c4 date 2000..2019             c10 string one of 64 words
///   c5 int [0, 100)                c11 int [0, 1e9)
std::shared_ptr<nodb::Schema> FactSchema();
/// The dimension table of warm_serve's join: k int, g string, w double.
std::shared_ptr<nodb::Schema> DimSchema();
constexpr uint64_t kDimRows = 2000;
constexpr uint32_t kFactColumns = 12;

/// Writes rows [first_row, first_row + rows) of the fact table
/// (append = true adds them to an existing file). Row values depend on
/// (seed, row id) only, so an appended tail is the same no matter how
/// the file was grown. Returns the bytes written.
uint64_t WriteFactRows(const std::string& path, uint64_t seed,
                       uint64_t first_row, uint64_t rows, bool append);
uint64_t WriteDimTable(const std::string& path, uint64_t seed);

/// "DATE 'yyyy-mm-dd'" for days since 1970-01-01.
std::string DateLiteral(int64_t days);
/// Days since epoch of 2000-01-01 and the span of generated dates.
constexpr int64_t kDateBase = 10957;
constexpr int64_t kDateSpan = 7305;  // 20 years

uint64_t FileSize(const std::string& path);

/// Registers the fact table (and the dimension table when `dim_path`
/// is not empty) in a fresh catalog.
nodb::Catalog MakeCatalog(const std::string& fact_path,
                          const std::string& dim_path = "");

// ------------------------------------------------------------- oracle

/// An answer as the oracle check sees it: an order-insensitive digest
/// of the whole result (FNV-1a over CanonicalRows()) and the hash of
/// every canonical row, sorted.
struct Answer {
  uint64_t digest = 0;
  std::vector<uint64_t> rows;
};
Answer AnswerOf(const nodb::QueryResult& result);

/// What the load-first reference says one query must return. Which rows
/// a LIMIT without ORDER BY returns is unspecified, so such a peek
/// (`limit` > 0) accepts any min(limit, |rows|) rows of the unlimited
/// answer, whose sorted row hashes `rows` holds; every other query must
/// match `digest` exactly.
struct Expected {
  uint64_t digest = 0;
  uint64_t limit = 0;
  std::vector<uint64_t> rows;
  bool Accepts(const Answer& got) const;
};

/// Answers `sqls` with a LoadFirstEngine over the given files, in a
/// child process so the reference's loaded copy of the data never
/// counts toward the measured program's memory. One Expected per SQL;
/// the request and answer files live in `dir`.
std::vector<Expected> OracleAnswers(const std::string& dir,
                                    const std::string& fact_path,
                                    const std::string& dim_path,
                                    const std::vector<std::string>& sqls);

/// The child side of OracleAnswers (`nodb_perfbench --oracle REQ OUT`).
int RunOracleChild(const std::string& request_path,
                   const std::string& output_path);

// -------------------------------------------------------------- stats

struct Summary {
  size_t n = 0;
  double median = 0;
  double p99 = 0;     ///< 99th percentile (nearest rank)
  double tail = 0;    ///< highest percentile with >= 10 samples beyond
  double tail_q = 0;  ///< that percentile, e.g. 99 or 95
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);
double Quantile(std::vector<double> samples, double q);

/// Peak resident set of this process in MiB (getrusage high-water).
double PeakRssMb();

// ------------------------------------------------------------- report

/// Collects metrics and provenance; prints a human-readable block and
/// the one-line JSON result the harness reads.
class Report {
 public:
  /// A metric that goes into the final JSON line.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A metric printed for the reader only (workload-specific, or not
  /// part of this mode's gated set).
  void Extra(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  void Info(const std::string& key, const std::string& value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints the block and, last, the JSON line. `correct` is false
  /// when any answer mismatched.
  void Print(bool correct) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool gated;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Seed, source revision, cores, SIMD level and build type.
void AddProvenance(const Options& options, Report* report);

// -------------------------------------------------------------- spans

/// One recorded span. `parent` is the id of the enclosing span (0 =
/// root); spans of one query share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double rows = 0;   ///< work count carried by the span (rows, bytes...)
  bool synthetic = false;  ///< laid out from a measured duration
};

/// In-memory span store of the traced run. Each thread keeps its own
/// open-span stack, so nesting follows the calling thread; spans are
/// appended under a mutex when they close and written out at the end.
class SpanRecorder {
 public:
  /// Opens a span under the calling thread's innermost open span.
  uint64_t Open(const std::string& name, uint64_t request);
  void Close(uint64_t id, double rows = 0);
  /// Records a span measured elsewhere under `parent` (marked
  /// synthetic: its interval is laid out, not observed).
  uint64_t Emit(const std::string& name, uint64_t parent, uint64_t request,
                int64_t start_ns, int64_t end_ns, double rows = 0);
  uint64_t NextRequest();

  std::vector<Span> Spans() const;
  /// Per span id: duration minus the union of its children's
  /// intervals (clipped to the parent).
  std::map<uint64_t, int64_t> SelfTimes() const;
  /// Writes Chrome-trace JSON lines ("[" then one event per line, the
  /// shape obs::Tracer streams): ph "X", ts/dur in microseconds,
  /// tid = request, args carry span id, parent and self time.
  void WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> closed_;
  std::map<uint64_t, Span> open_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;
};

/// RAII span over a possibly-null recorder (null = untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t request)
      : recorder_(recorder),
        id_(recorder == nullptr ? 0 : recorder->Open(name, request)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Close(double rows = 0) {
    if (recorder_ != nullptr) recorder_->Close(id_, rows);
    recorder_ = nullptr;
  }
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

// ------------------------------------------------------ run directory

/// A per-run scratch directory under the checkout's .bench_out/,
/// removed with its contents on destruction.
class RunDir {
 public:
  RunDir(const Options& options);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace perfbench

#endif  // NODB_PERFBENCH_COMMON_H_
