// Shared pieces of the repository benchmark: host clocks, the result a
// workload run reports, committed expectations, and the in-memory span
// log of the traced run.
//
// The benchmark measures the simulator from outside: every timing is a
// host clock read around a call into a module's public API (campaigns,
// RoundRun, the detector, the explorer). Nothing here reaches into the
// simulator's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
std::int64_t ns_between(Clock::time_point a, Clock::time_point b);
/// User + system CPU seconds of the whole process so far.
double process_cpu_s();
/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Explore worker threads the sweep uses: 4, clamped to the host.
int explore_jobs();
/// Hex digest of `text` (the repository's 128-bit StateHasher).
std::string digest_hex(const std::string& text);

/// What one invocation was asked to do.
struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_path;
  std::string spans_path;
  /// Print the workload's expectation line instead of measuring.
  bool emit_expected = false;
};

/// Deterministic outputs of one job, as ordered key=value pairs. The
/// same pairs make an expectation line.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// One committed expectation line (see expected.txt).
struct Expectation {
  bool found = false;
  /// The seed column that matched: the seed itself or "*".
  std::string key;
  std::map<std::string, std::string> fields;
};

Expectation load_expectation(const std::string& path,
                             const std::string& workload, std::uint64_t seed);

/// Compares `actual` with the expectation (every actual key must be
/// present and equal; "{seed}" in an expected value stands for the
/// run's seed) and appends a message per mismatch.
void check_expectation(const Fields& actual, const Expectation& e,
                       std::uint64_t seed, std::vector<std::string>* out);

std::string fields_line(const std::string& workload, const std::string& key,
                        const Fields& f);

/// What a workload run reports.
struct Result {
  std::vector<std::string> mismatches;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value; main() attaches units and order.
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;
  /// emit_expected: the expectation line.
  std::string expectation;
};

/// Host timings of a measured run.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<double> cpu_s;
  /// Peak RSS through the first set-up and job. Later jobs reuse the
  /// same memory (or fragment it), so this does not depend on the run's
  /// length.
  double first_rss_mb = 0;
};

/// Alternates set-up and job until `seconds` have passed (at least one
/// of each), timing both; each job runs on the set-up just before it.
Timings time_jobs(double seconds, const std::function<void()>& setup,
                  const std::function<void()>& job);

/// The end-to-end metrics of a measured run; `work_per_job` is the
/// rounds (schedules, for the sweep) one job completes.
void set_end_to_end(const Timings& t, double work_per_job, Result* r);

/// Spans of the traced run, kept in memory and written out at the end.
/// A span's parent is the span that caused it; spans of one round or
/// one sweep share a group id.
class SpanLog {
 public:
  SpanLog();
  int add(const char* name, int parent, std::uint64_t group,
          Clock::time_point start, Clock::time_point end);
  /// Per-name count, total and self time (duration minus the part of
  /// its interval covered by child spans).
  std::vector<std::string> self_time_table() const;
  /// Writes one JSON object per line; false if the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t group;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

Result run_campaign_workload(const Run& run);
Result run_sweep_workload(const Run& run);
bool is_campaign_workload(const std::string& name);

}  // namespace perfbench
