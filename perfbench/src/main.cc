// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected perfbench/expected.txt [--spans FILE]
//   perfbench --workload NAME --seed N --emit-expected
//
// Prints human-readable lines (environment, scenario, accuracy, every
// metric with its unit, any correctness mismatch) and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of the traced run. Exit status 0 only when every
// correctness check passed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.h"

namespace {

using perfbench::Result;
using perfbench::Run;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"rounds_per_s", "1/s"}, {"job_s", "s"},        {"cpu_s", "s"},
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.events_per_round", "count"},
    {"core.step_ns_per_event", "ns"},
    {"core.stage_us_per_round", "us"},
    {"core.finish_us_per_round", "us"},
    {"core.round_ms_p50", "ms"},
    {"core.round_ms_tail", "ms"},
    {"core.round_ms_tail_pct", "%"},
    {"core.span_coverage_pct", "%"},
    {"core.fork_us", "us"},
    {"core.hash_us", "us"},
    {"core.analyze_window_us_per_round", "us"},
    {"detect.analyze_us_per_round", "us"},
    {"detect.windows_per_round", "count"},
    {"detect.sync_events_per_round", "count"},
    {"trace.journal_records_per_round", "count"},
    {"sim.syscalls_per_round", "count"},
    {"sim.stat_per_round", "count"},
    {"sim.processes_max", "count"},
    {"sched.context_switches_per_round", "count"},
    {"sched.preemptions_per_round", "count"},
    {"fs.path_walk_components_per_round", "count"},
    {"explore.rounds_executed", "count"},
    {"explore.schedules", "count"},
    {"explore.leaves_executed", "count"},
    {"explore.hash_merges", "count"},
    {"explore.forks", "count"},
    {"explore.cache_hits", "count"},
    {"explore.degraded_groups", "count"},
    {"explore.useful_share", "ratio"},
    {"explore.batches", "count"},
    {"explore.batch_ms_p50", "ms"},
    {"explore.cpu_per_wall", "ratio"},
    {"perfbench.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE [--spans FILE] "
               "[--emit-expected]\n",
               why);
  std::exit(2);
}

Run parse_args(int argc, char** argv) {
  Run run;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--emit-expected") {
      run.emit_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      run.workload = v;
    } else if (a == "--seed") {
      run.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != 0) usage("--seed takes an integer");
    } else if (a == "--seconds") {
      run.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != 0 || !(run.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      run.trace = v == "1";
    } else if (a == "--expected") {
      run.expected_path = v;
    } else if (a == "--spans") {
      run.spans_path = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (run.workload.empty()) usage("--workload is required");
  if (run.expected_path.empty() && !run.emit_expected) {
    usage("--expected is required");
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const Run run = parse_args(argc, argv);
  const bool sweep = run.workload == "sweep_up_vi";
  if (!sweep && !perfbench::is_campaign_workload(run.workload)) {
    usage(("unknown workload " + run.workload).c_str());
  }

  Result res;
  try {
    res = sweep ? perfbench::run_sweep_workload(run)
                : perfbench::run_campaign_workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (run.emit_expected) {
    std::printf("%s\n", res.expectation.c_str());
    return res.mismatches.empty() ? 0 : 1;
  }

  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              run.workload.c_str(), run.seed, run.seconds, run.trace ? 1 : 0);
  std::printf("env: hardware_threads=%u compiler=\"%s\" build_type=%s "
              "explore_jobs=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, perfbench::explore_jobs());
  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());

  const bool correct = res.mismatches.empty() && res.attempted > 0;
  for (const std::string& m : res.mismatches) {
    std::printf("MISMATCH: %s\n", m.c_str());
  }
  std::printf("failed_share = %.6g (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              res.attempted == 0 ? 0.0
                                 : static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted),
              res.failed, res.attempted);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& m) {
    const auto it = res.metrics.find(m.name);
    const double v = it == res.metrics.end() ? 0.0 : it->second;
    std::printf("metric %-36s %.6g %s\n", m.name, v, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (run.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
