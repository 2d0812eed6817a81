#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.h"
#include "tocttou/common/state_hash.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Timings time_jobs(double seconds, const std::function<void()>& setup,
                  const std::function<void()>& job) {
  Timings t;
  const auto start = Clock::now();
  do {
    auto t0 = Clock::now();
    setup();
    t.setup_s.push_back(seconds_since(t0));
    const double c0 = process_cpu_s();
    t0 = Clock::now();
    job();
    t.job_s.push_back(seconds_since(t0));
    t.cpu_s.push_back(process_cpu_s() - c0);
    if (t.job_s.size() == 1) t.first_rss_mb = peak_rss_mb();
  } while (seconds_since(start) < seconds);
  return t;
}

void set_end_to_end(const Timings& t, double work_per_job, Result* r) {
  const double job = quantile(t.job_s, 0.0);
  r->metrics["rounds_per_s"] = work_per_job / job;
  r->metrics["job_s"] = job;
  r->metrics["cpu_s"] = quantile(t.cpu_s, 0.0);
  r->metrics["setup_s"] = median(t.setup_s);
  r->metrics["peak_rss_mb"] = t.first_rss_mb;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "jobs: n=%zu job_s min=%.4f p25=%.4f p50=%.4f max=%.4f",
                t.job_s.size(), job, quantile(t.job_s, 0.25), median(t.job_s),
                quantile(t.job_s, 1.0));
  r->notes.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "setups: n=%zu setup_s min=%.4f p25=%.4f p50=%.4f",
                t.setup_s.size(), quantile(t.setup_s, 0.0),
                quantile(t.setup_s, 0.25), median(t.setup_s));
  r->notes.emplace_back(buf);
}

int explore_jobs() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

std::string digest_hex(const std::string& text) {
  tocttou::StateHasher h;
  h.str(text);
  const auto d = h.digest();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "%016" PRIx64, d.hi, d.lo);
  return buf;
}

// --- expectations -------------------------------------------------------

// expected.txt holds one line per (workload, seed):
//   <workload> <seed|*> key=value key=value ...
// A line for the run's own seed wins over a "*" line. '#' starts a
// comment line.
Expectation load_expectation(const std::string& path,
                             const std::string& workload, std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expectations " + path);
  const std::string want = std::to_string(seed);
  Expectation exact, any;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string name, key, kv;
    words >> name >> key;
    if (name != workload || (key != want && key != "*")) continue;
    Expectation& e = key == "*" ? any : exact;
    e.found = true;
    e.key = key;
    while (words >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      e.fields[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  return exact.found ? exact : any;
}

void check_expectation(const Fields& actual, const Expectation& e,
                       std::uint64_t seed, std::vector<std::string>* out) {
  if (!e.found) return;
  for (const auto& [key, value] : actual) {
    const auto it = e.fields.find(key);
    if (it == e.fields.end()) {
      out->push_back("expectation has no field " + key);
      continue;
    }
    std::string want = it->second;
    const auto at = want.find("{seed}");
    if (at != std::string::npos) want.replace(at, 6, std::to_string(seed));
    if (want != value) {
      out->push_back(key + "=" + value + " but expected " + want);
    }
  }
}

std::string fields_line(const std::string& workload, const std::string& key,
                        const Fields& f) {
  std::string line = workload + " " + key;
  for (const auto& [k, v] : f) line += " " + k + "=" + v;
  return line;
}

// --- spans --------------------------------------------------------------

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::add(const char* name, int parent, std::uint64_t group,
                 Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, parent, group, ns_between(origin_, start),
                    ns_between(origin_, end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::string> SpanLog::self_time_table() const {
  // Children overlap their parent's interval at most once each; a child
  // that runs after its parent (an outside re-call) covers nothing.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    ++r.count;
    r.total += d;
    r.self += d - covered[i];
  }
  std::vector<std::string> out;
  for (const auto& [name, r] : rows) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "span %-22s count=%-8" PRIu64 " total_ms=%.3f self_ms=%.3f",
                  name.c_str(), r.count, static_cast<double>(r.total) * 1e-6,
                  static_cast<double>(r.self) * 1e-6);
    out.emplace_back(buf);
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"parent\":%d,\"group\":%" PRIu64
                 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 i, s.name, s.parent, s.group, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
