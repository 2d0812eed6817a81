// The three campaign workloads: fixed-size core::run_campaign jobs at
// jobs=1, repeated for the run's measuring time.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.h"
#include "rounds.h"
#include "tocttou/common/rng.h"
#include "tocttou/core/harness.h"
#include "tocttou/programs/testbeds.h"

namespace perfbench {

namespace core = tocttou::core;
namespace programs = tocttou::programs;

namespace {

struct CampaignWorkload {
  const char* name;
  bool uniprocessor;  // else the SMP testbed
  bool detect;
  bool measure_ld;
  const char* background;  // BackgroundSpec text, "" = none
  /// Rounds per job, warm-up rounds per set-up.
  int rounds_per_job;
  int warmup_rounds;
  /// The paper's success rate for this scenario.
  const char* paper_ref;
};

// Job sizes keep one job between ~0.25 and ~0.8 s on a 4-thread x86
// host, so a 20 s run times twenty or more jobs.
constexpr CampaignWorkload kWorkloads[] = {
    {"campaign_up_vi", true, false, false, "", 200, 8,
     "~1.5% (Fig. 6, uniprocessor vi at small file sizes)"},
    {"campaign_smp_detect", false, true, true, "", 4000, 64,
     "100% (Sec. 5, SMP vi)"},
    {"tenancy_staged", false, false, false, "procs=1024,inodes=100000", 4, 1,
     "no reference (unvalidated)"},
};

const CampaignWorkload* find_workload(const std::string& name) {
  for (const CampaignWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::ScenarioConfig make_config(const CampaignWorkload& w,
                                 std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.profile = w.uniprocessor ? programs::testbed_uniprocessor_xeon()
                               : programs::testbed_smp_dual_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.file_bytes = 100 * 1024;
  cfg.seed = seed;
  cfg.detect = w.detect;
  std::string err;
  if (!programs::BackgroundSpec::parse(w.background, &cfg.background, &err)) {
    throw std::runtime_error("bad background spec: " + err);
  }
  return cfg;
}

/// What run_block would accumulate for one job, compared bit-for-bit.
struct Outcome {
  std::size_t successes = 0;
  std::size_t rounds = 0;
  std::uint64_t events = 0;
  int anomalies = 0;
  int incomplete = 0;
  std::uint64_t races = 0;
  std::uint64_t windows = 0;
  std::string detect = "-";  // digest of the detector summary

  bool operator==(const Outcome&) const = default;

  std::uint64_t failed() const {
    return static_cast<std::uint64_t>(anomalies + incomplete);
  }

  Fields fields() const {
    return {{"success", std::to_string(successes)},
            {"rounds", std::to_string(rounds)},
            {"events", std::to_string(events)},
            {"anomalies", std::to_string(anomalies)},
            {"incomplete", std::to_string(incomplete)},
            {"races", std::to_string(races)},
            {"windows", std::to_string(windows)},
            {"detect", detect}};
  }
};

Outcome outcome_of(const core::CampaignStats& s) {
  Outcome o;
  o.successes = s.success.successes();
  o.rounds = s.success.trials() + static_cast<std::size_t>(s.failed_rounds);
  o.events = s.total_events;
  o.anomalies = s.anomalies;
  o.incomplete = s.victim_incomplete;
  o.races = s.detect.races;
  o.windows = s.detect.windows;
  if (!s.detect.empty()) o.detect = digest_hex(s.detect.summary());
  return o;
}

core::CampaignStats one_job(const CampaignWorkload& w,
                            const core::ScenarioConfig& cfg, int jobs = 1) {
  return core::run_campaign(cfg, w.rounds_per_job, w.measure_ld, jobs);
}

/// Deterministic per-layer counts: a collect_metrics job, run twice.
core::CampaignStats count_job(const CampaignWorkload& w,
                              core::ScenarioConfig cfg,
                              std::vector<std::string>* mismatches) {
  cfg.collect_metrics = true;
  core::CampaignStats a = one_job(w, cfg);
  const core::CampaignStats b = one_job(w, cfg);
  if (a.metrics.to_json() != b.metrics.to_json()) {
    mismatches->push_back("per-layer counts differ between two runs");
  }
  return a;
}

/// One job's rounds driven through core::RoundRun with the campaign's
/// own round seeds and context reuse, accumulated as run_block does.
Outcome traced_job(const CampaignWorkload& w, const core::ScenarioConfig& cfg,
                   SpanLog* log, std::uint64_t first_group, RoundTiming* t,
                   std::vector<std::string>* mismatches) {
  core::CampaignStats s;
  core::RoundContext ctx;
  for (int i = 0; i < w.rounds_per_job; ++i) {
    core::ScenarioConfig rc = cfg;
    rc.seed = tocttou::mix_seed(cfg.seed, static_cast<std::uint64_t>(i));
    rc.record_journal = w.measure_ld;
    rc.record_events = false;
    core::RoundResult r;
    try {
      r = traced_round(rc, &ctx, log, first_group + static_cast<unsigned>(i),
                       t, mismatches);
    } catch (const std::exception&) {
      ++s.failed_rounds;
      ++s.anomalies;
      continue;
    }
    s.success.record(r.success);
    s.total_events += r.events;
    s.detect.merge(r.detect);
    if (r.hit_time_limit) ++s.anomalies;
    if (!r.victim_completed && !r.hit_time_limit) ++s.victim_incomplete;
  }
  return outcome_of(s);
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

Result run_campaign_workload(const Run& run) {
  const CampaignWorkload& w = *find_workload(run.workload);
  Result res;
  res.notes.push_back(
      std::string("scenario: testbed=") + (w.uniprocessor ? "up" : "smp") +
      " victim=vi attacker=naive file=100KB background=" +
      (*w.background != 0 ? w.background : "none") +
      " detect=" + (w.detect ? "on" : "off") + " measure_ld=" +
      (w.measure_ld ? "on" : "off") + " rounds_per_job=" +
      std::to_string(w.rounds_per_job) + " campaign_jobs=1");

  if (run.emit_expected) {
    const core::ScenarioConfig cfg = make_config(w, run.seed);
    Fields f = outcome_of(one_job(w, cfg)).fields();
    f.emplace_back(
        "counts",
        digest_hex(count_job(w, cfg, &res.mismatches).metrics.to_json()));
    res.expectation = fields_line(w.name, std::to_string(run.seed), f);
    return res;
  }
  const Expectation expect =
      load_expectation(run.expected_path, w.name, run.seed);

  // Set-up: generate the config (testbed profile, background spec) and
  // run the warm-up rounds, which build the round context and touch the
  // staged world once.
  core::ScenarioConfig cfg;
  const auto setup = [&] {
    cfg = make_config(w, run.seed);
    core::run_campaign(cfg, w.warmup_rounds, w.measure_ld, 1);
  };

  Outcome first;
  if (!run.trace) {
    const Timings t = time_jobs(run.seconds, setup, [&] {
      const Outcome o = outcome_of(one_job(w, cfg));
      if (res.attempted == 0) {
        first = o;
      } else if (!(o == first)) {
        res.mismatches.push_back("a job differs from the first job");
      }
      res.attempted += o.rounds;
      res.failed += o.failed();
    });
    set_end_to_end(t, w.rounds_per_job, &res);
  } else {
    // Traced run: alternate an untraced job with the same job driven
    // round by round through RoundRun under spans.
    SpanLog log;
    RoundTiming timing;
    std::vector<double> job_s, traced_s;
    std::uint64_t group = 0;
    setup();
    const auto t_start = Clock::now();
    do {
      const auto t0 = Clock::now();
      first = outcome_of(one_job(w, cfg));
      job_s.push_back(seconds_since(t0));
      const std::int64_t before = timing.round_ns;
      const Outcome o =
          traced_job(w, cfg, &log, group, &timing, &res.mismatches);
      group += static_cast<unsigned>(w.rounds_per_job);
      traced_s.push_back(static_cast<double>(timing.round_ns - before) * 1e-9);
      if (!(o == first)) {
        res.mismatches.push_back(
            "rounds driven through RoundRun differ from run_campaign");
      }
      res.attempted += o.rounds;
      res.failed += o.failed();
    } while (seconds_since(t_start) < run.seconds);

    set_round_metrics(timing, &res);
    const core::CampaignStats counts = count_job(w, cfg, &res.mismatches);
    set_count_metrics(counts.metrics,
                      static_cast<std::uint64_t>(w.rounds_per_job), &res);
    const double rounds = static_cast<double>(w.rounds_per_job);
    res.metrics["detect.windows_per_round"] =
        static_cast<double>(counts.detect.windows) / rounds;
    res.metrics["detect.sync_events_per_round"] =
        static_cast<double>(counts.detect.sync_events) / rounds;
    core::ScenarioConfig probe_cfg = cfg;
    probe_cfg.seed = tocttou::mix_seed(cfg.seed, 0);
    const ForkHashTimes fh = probe_fork_hash(probe_cfg, kProbeEvent, &log);
    res.metrics["core.fork_us"] = fh.fork_us;
    res.metrics["core.hash_us"] = fh.hash_us;
    res.metrics["perfbench.trace_overhead_pct"] =
        100.0 * (quantile(traced_s, 0.0) / quantile(job_s, 0.0) - 1.0);

    check_expectation({{"counts", digest_hex(counts.metrics.to_json())}}, expect,
                      run.seed, &res.mismatches);
    for (std::string& line : log.self_time_table()) {
      res.notes.push_back(std::move(line));
    }
    if (!run.spans_path.empty() && !log.write(run.spans_path)) {
      res.notes.push_back("warning: could not write spans to " +
                          run.spans_path);
    }
  }

  // Correctness gate: every job must match the committed expectation
  // for this seed and a reference job at several campaign workers.
  Fields f = first.fields();
  check_expectation(f, expect, run.seed, &res.mismatches);
  const int workers =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  if (!(outcome_of(one_job(w, cfg, workers)) == first)) {
    res.mismatches.push_back("job at " + std::to_string(workers) +
                             " campaign workers differs from jobs=1");
  }
  res.notes.push_back(
      expect.found ? "expectations: committed line for seed " + expect.key
                   : "expectations: none committed for seed " +
                         std::to_string(run.seed) +
                         "; gate = repeat + worker-count invariance only");

  char accuracy[256];
  std::snprintf(accuracy, sizeof accuracy,
                "accuracy: simulated success %.2f%% (%zu/%zu rounds of a job); "
                "paper: %s",
                100.0 * static_cast<double>(first.successes) /
                    static_cast<double>(std::max<std::size_t>(first.rounds, 1)),
                first.successes, first.rounds, w.paper_ref);
  res.notes.emplace_back(accuracy);
  return res;
}

}  // namespace perfbench
