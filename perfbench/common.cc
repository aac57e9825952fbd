#include "common.h"

#include <dirent.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "engines/load_first_engine.h"
#include "simd/simd.h"
#include "types/date_util.h"

extern char** environ;

namespace perfbench {

using nodb::DataType;

void Fail(const std::string& message) { throw BenchFailure{message}; }

void MustOk(const nodb::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

void RunThreads(size_t n, const std::function<void(size_t)>& body) {
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (const BenchFailure& failure) {
        errors[i] = failure.message;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) Fail(error);
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- data

std::shared_ptr<nodb::Schema> FactSchema() {
  return nodb::Schema::Make({{"c0", DataType::kInt64},
                             {"c1", DataType::kInt64},
                             {"c2", DataType::kDouble},
                             {"c3", DataType::kString},
                             {"c4", DataType::kDate},
                             {"c5", DataType::kInt64},
                             {"c6", DataType::kString},
                             {"c7", DataType::kDouble},
                             {"c8", DataType::kInt64},
                             {"c9", DataType::kDate},
                             {"c10", DataType::kString},
                             {"c11", DataType::kInt64}});
}

std::shared_ptr<nodb::Schema> DimSchema() {
  return nodb::Schema::Make({{"k", DataType::kInt64},
                             {"g", DataType::kString},
                             {"w", DataType::kDouble}});
}

namespace {

const char* const kWords[] = {
    "alpha", "bravo",  "charlie", "delta", "echo",   "foxtrot",
    "golf",  "hotel",  "india",   "juliet", "kilo",  "lima",
    "mike",  "november", "oscar", "papa"};

std::FILE* OpenOrFail(const std::string& path, const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) Fail("cannot open " + path + ": " + std::strerror(errno));
  return f;
}

}  // namespace

uint64_t WriteFactRows(const std::string& path, uint64_t seed,
                       uint64_t first_row, uint64_t rows, bool append) {
  std::FILE* f = OpenOrFail(path, append ? "ab" : "wb");
  std::string line;
  uint64_t written = 0;
  char buf[64];
  for (uint64_t r = first_row; r < first_row + rows; ++r) {
    Rng rng(seed ^ (r * 0xD1B54A32D192ED03ull));
    line.clear();
    line += std::to_string(r);
    line += ',';
    line += std::to_string(rng.Uniform(1000000));
    std::snprintf(buf, sizeof(buf), ",%.2f,", rng.Unit() * 1000.0);
    line += buf;
    line += kWords[rng.Uniform(16)];
    line += ',';
    line += nodb::FormatDate(kDateBase + static_cast<int64_t>(rng.Uniform(kDateSpan)));
    line += ',';
    line += std::to_string(rng.Uniform(100));
    line += ',';
    uint64_t len = 6 + rng.Uniform(9);
    for (uint64_t i = 0; i < len; ++i) {
      line += static_cast<char>('a' + rng.Uniform(26));
    }
    std::snprintf(buf, sizeof(buf), ",%.3f,", rng.Unit() * 1000.0 - 500.0);
    line += buf;
    line += std::to_string(rng.Uniform(kDimRows));
    line += ',';
    line += nodb::FormatDate(kDateBase + static_cast<int64_t>(rng.Uniform(kDateSpan)));
    line += ',';
    uint64_t w = rng.Uniform(64);
    line += kWords[w % 16];
    line += std::to_string(w / 16);
    line += ',';
    line += std::to_string(rng.Uniform(1000000000));
    line += '\n';
    written += std::fwrite(line.data(), 1, line.size(), f);
  }
  if (std::fclose(f) != 0) Fail("cannot write " + path);
  return written;
}

uint64_t WriteDimTable(const std::string& path, uint64_t seed) {
  std::FILE* f = OpenOrFail(path, "wb");
  Rng rng(seed ^ 0xA5A5A5A5ull);
  uint64_t written = 0;
  char buf[96];
  for (uint64_t k = 0; k < kDimRows; ++k) {
    int n = std::snprintf(buf, sizeof(buf), "%" PRIu64 ",g%" PRIu64 ",%.2f\n",
                          k, rng.Uniform(8), rng.Unit() * 10.0);
    written += std::fwrite(buf, 1, static_cast<size_t>(n), f);
  }
  if (std::fclose(f) != 0) Fail("cannot write " + path);
  return written;
}

std::string DateLiteral(int64_t days) {
  return "DATE '" + nodb::FormatDate(days) + "'";
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

nodb::Catalog MakeCatalog(const std::string& fact_path,
                          const std::string& dim_path) {
  nodb::Catalog catalog;
  MustOk(catalog.RegisterTable({"t", fact_path, FactSchema(), {}}),
         "register t");
  if (!dim_path.empty()) {
    MustOk(catalog.RegisterTable({"d", dim_path, DimSchema(), {}}),
           "register d");
  }
  return catalog;
}

// -------------------------------------------------------------- oracle

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// Folds one string and a terminator into an FNV-1a hash.
void Fnv(const std::string& s, uint64_t* h) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  *h ^= 0xFF;
  *h *= 1099511628211ull;
}

/// For "... LIMIT n" without ORDER BY, returns n and sets `*unlimited`
/// to the statement without its LIMIT clause; 0 for any other SQL.
uint64_t PeekLimit(const std::string& sql, std::string* unlimited) {
  size_t at = sql.rfind(" LIMIT ");
  if (at == std::string::npos || sql.find("ORDER BY") != std::string::npos) {
    return 0;
  }
  *unlimited = sql.substr(0, at);
  return std::stoull(sql.substr(at + 7));
}

}  // namespace

Answer AnswerOf(const nodb::QueryResult& result) {
  Answer answer;
  answer.digest = kFnvBasis;
  for (const std::string& row : result.CanonicalRows()) {
    Fnv(row, &answer.digest);
    uint64_t h = kFnvBasis;
    Fnv(row, &h);
    answer.rows.push_back(h);
  }
  Fnv(std::to_string(result.num_rows()), &answer.digest);
  std::sort(answer.rows.begin(), answer.rows.end());
  return answer;
}

bool Expected::Accepts(const Answer& got) const {
  if (limit == 0) return got.digest == digest;
  if (got.rows.size() != std::min<uint64_t>(limit, rows.size())) return false;
  // Both sorted: every returned row, counted with multiplicity, is a
  // row of the unlimited answer.
  return std::includes(rows.begin(), rows.end(), got.rows.begin(), got.rows.end());
}

std::vector<Expected> OracleAnswers(const std::string& dir,
                                    const std::string& fact_path,
                                    const std::string& dim_path,
                                    const std::vector<std::string>& sqls) {
  static uint64_t counter = 0;
  std::string base = dir + "/oracle-" + std::to_string(counter++);
  std::string request = base + ".req";
  std::string response = base + ".out";
  std::vector<Expected> expected(sqls.size());
  {
    // "D sql" asks for the digest, "R sql" for the row hashes as well.
    std::ofstream out(request);
    out << fact_path << "\n" << (dim_path.empty() ? "-" : dim_path) << "\n";
    for (size_t i = 0; i < sqls.size(); ++i) {
      std::string unlimited;
      expected[i].limit = PeekLimit(sqls[i], &unlimited);
      if (expected[i].limit > 0) {
        out << "R " << unlimited << "\n";
      } else {
        out << "D " << sqls[i] << "\n";
      }
    }
    if (!out) Fail("cannot write oracle request " + request);
  }
  char exe[4096];
  ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) Fail("cannot locate the benchmark binary for the oracle");
  exe[len] = '\0';
  std::vector<std::string> args = {exe, "--oracle", request, response};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (::posix_spawn(&pid, exe, nullptr, nullptr, argv.data(), environ) != 0) {
    Fail("cannot start the oracle process");
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) Fail("waitpid on the oracle failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("oracle process failed (status " + std::to_string(status) + ")");
  }
  std::ifstream in(response);
  std::string line;
  size_t answered = 0;
  for (; answered < sqls.size() && std::getline(in, line); ++answered) {
    if (line.rfind("ERR ", 0) == 0) Fail("oracle: " + line.substr(4));
    std::istringstream fields(line);
    std::string hex;
    fields >> hex;
    expected[answered].digest = std::stoull(hex, nullptr, 16);
    while (fields >> hex) expected[answered].rows.push_back(std::stoull(hex, nullptr, 16));
  }
  std::remove(request.c_str());
  std::remove(response.c_str());
  if (answered != sqls.size()) Fail("oracle answered too few queries");
  return expected;
}

int RunOracleChild(const std::string& request_path,
                   const std::string& output_path) {
  std::ifstream in(request_path);
  std::string fact, dim, line;
  std::getline(in, fact);
  std::getline(in, dim);
  nodb::LoadFirstEngine engine(MakeCatalog(fact, dim == "-" ? "" : dim),
                               nodb::LoadProfile::kPostgres);
  std::ofstream out(output_path);
  if (!engine.Initialize().ok()) {
    out << "ERR load failed\n";
    return 0;
  }
  while (std::getline(in, line)) {
    const bool rows = line.rfind("R ", 0) == 0;
    const std::string sql = line.substr(2);
    auto outcome = engine.Execute(sql);
    if (!outcome.ok()) {
      out << "ERR " << sql << ": " << outcome.status().ToString() << "\n";
      continue;
    }
    Answer answer = AnswerOf(outcome->result);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, answer.digest);
    out << buf;
    if (rows) {
      for (uint64_t h : answer.rows) {
        std::snprintf(buf, sizeof(buf), " %016" PRIx64, h);
        out << buf;
      }
    }
    out << "\n";
  }
  return out ? 0 : 1;
}

// --------------------------------------------------------------- stats

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the data at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.median = Median(samples);
  s.p99 = Quantile(samples, 0.99);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(s.n) * (1 - q) >= 10 - 1e-9 || q == 0.5) {
      s.tail_q = q * 100;
      s.tail = Quantile(samples, q);
      break;
    }
  }
  return s;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------- report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  entries_.push_back({name, value, unit, note, true});
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  entries_.push_back({name, value, unit, note, false});
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print(bool correct) const {
  for (const auto& [key, value] : info_) {
    std::printf("info   %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const Entry& e : entries_) {
    std::printf("%s %-34s %14.6g %-8s %s\n", e.gated ? "metric" : "extra ",
                e.name.c_str(), e.value, e.unit.c_str(), e.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.gated) continue;
    if (!first) json += ", ";
    first = false;
    json += JsonString(e.name) + ": {\"value\": " + JsonNumber(e.value) +
            ", \"unit\": " + JsonString(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void AddProvenance(const Options& options, Report* report) {
  report->Info("workload", options.workload);
  report->Info("seed", std::to_string(options.seed));
  report->Info("seconds", JsonNumber(options.seconds));
  report->Info("trace", options.trace ? "1" : "0");
  report->Info("git_sha", options.git_sha);
  report->Info("source_digest", options.source_digest);
  report->Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Info("simd_level",
               nodb::simd::LevelName(nodb::simd::ActiveLevel()));
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
}

// --------------------------------------------------------------- spans

namespace {
thread_local std::vector<uint64_t> t_open_stack;
}  // namespace

uint64_t SpanRecorder::Open(const std::string& name, uint64_t request) {
  Span span;
  span.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  span.request = request;
  span.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  span.start_ns = NowNs();
  open_[span.id] = span;
  t_open_stack.push_back(span.id);
  return span.id;
}

void SpanRecorder::Close(uint64_t id, double rows) {
  int64_t end = NowNs();
  auto it = std::find(t_open_stack.begin(), t_open_stack.end(), id);
  if (it != t_open_stack.end()) t_open_stack.erase(it);
  std::lock_guard<std::mutex> lock(mu_);
  auto open = open_.find(id);
  if (open == open_.end()) return;
  open->second.end_ns = end;
  open->second.rows = rows;
  closed_.push_back(std::move(open->second));
  open_.erase(open);
}

uint64_t SpanRecorder::Emit(const std::string& name, uint64_t parent,
                            uint64_t request, int64_t start_ns,
                            int64_t end_ns, double rows) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.rows = rows;
  span.synthetic = true;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  closed_.push_back(span);
  return span.id;
}

uint64_t SpanRecorder::NextRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::map<uint64_t, int64_t> SpanRecorder::SelfTimes() const {
  std::vector<Span> spans = Spans();
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_start = 0, cur_end = 0;
      bool have = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (have && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (have) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          have = true;
        }
      }
      if (have) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void SpanRecorder::WriteJsonl(const std::string& path) const {
  std::vector<Span> spans = Spans();
  std::map<uint64_t, int64_t> self = SelfTimes();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write trace " + path);
  std::fprintf(f, "[\n");
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu64
                 ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"self_us\":%.3f,\"rows\":%.0f,\"synthetic\":%s}},\n",
                 JsonString(s.name).c_str(), (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.request, s.id, s.parent,
                 self[s.id] / 1e3, s.rows, s.synthetic ? "true" : "false");
  }
  std::fclose(f);
}

// ------------------------------------------------------- run directory

RunDir::RunDir(const Options& options) {
  ::mkdir(options.out_dir.c_str(), 0755);
  path_ = options.out_dir + "/run-" + options.workload + "-" +
          std::to_string(options.seed) + "-" + std::to_string(::getpid());
  if (::mkdir(path_.c_str(), 0755) != 0 && errno != EEXIST) {
    Fail("cannot create " + path_);
  }
}

RunDir::~RunDir() {
  // Flat directory: data files, sidecars and snapshot temporaries.
  if (DIR* dir = ::opendir(path_.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") ::unlink(File(name).c_str());
    }
    ::closedir(dir);
  }
  ::rmdir(path_.c_str());
}

}  // namespace perfbench
