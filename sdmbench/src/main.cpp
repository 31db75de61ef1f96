// sdm_bench — the SDM serving benchmark (see ../README.md).
//
//   sdm_bench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Builds the workload (timed cold set-up), serves one round on each of
// three sub-seeds of the seed (each on a fresh instance; two of them also
// bisect the SLO rate), replays sub-seeds until the rounds have taken S seconds,
// checks outputs and invariants, and prints one JSON object as the last
// line of stdout: end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1 (the replays then run traced). Exits 1 when a check
// fails, 2 on bad arguments.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "agg.h"
#include "bench.h"
#include "common/logging.h"

using namespace sdmbench;

namespace {

// Taken during static initialization: set-up time counts from process start.
const Clock::time_point kProcessStart = Clock::now();

/// Sub-seeds simulated per run. Seed-to-seed differences (which rows and
/// blocks are hot) dominate the virtual metrics' spread; averaging over
/// several sub-seeds per run keeps every run's figures steady.
constexpr size_t kSubSeeds = 3;
/// Sub-seeds whose instance also bisects qps_at_slo. The probes cost about
/// three times a round's serving, so two of the three keep a run's wall
/// time in bounds.
constexpr size_t kSloSubSeeds = 2;

struct Round {
  size_t sub = 0;       ///< sub-seed index
  bool traced = false;  ///< obs switched on
  RoundResult result;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kLayerMetrics[] = {
    {"event_loop.events_per_query", "count"},
    {"event_loop.events_per_wall_s", "1/s"},
    {"sched.singleflight_hits_per_query", "count"},
    {"sched.merges_per_query", "count"},
    {"sched.sqes_per_doorbell", "count"},
    {"io.throttle_wait_us_per_query", "us"},
    {"io.sm_iops", "1/s"},
    {"device.read_p50_us", "us"},
    {"device.read_p99_us", "us"},
    {"device.read_amplification", "ratio"},
    {"cache.row_hit_rate", "ratio"},
    {"cache.pooled_hit_rate", "ratio"},
    {"core.lookup_p50_us", "us"},
    {"core.lookup_p99_us", "us"},
    {"core.sm_rows_per_query", "count"},
    {"serving.user_path_p99_us", "us"},
    {"serving.item_path_p99_us", "us"},
    {"fabric.bytes_per_query", "B"},
    {"fabric.queue_us_per_query", "us"},
    {"tenant.cross_host_hits_per_query", "count"},
    {"tenant.dedup_ratio", "ratio"},
    {"sharded.windows", "count"},
    {"sharded.events_per_window", "count"},
    {"load.build_s", "s"},
    {"load.sm_write_ms", "ms"},
    {"trace.gen_s_per_kquery", "s"},
    {"refresh.wall_s", "s"},
    {"refresh.write_ms", "ms"},
    {"refresh.query_p99_after_us", "us"},
    {"refresh.row_hit_rate_after", "ratio"},
    {"trace_overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "sdm_bench: %s\nusage: sdm_bench --workload disagg16|disagg16-sharded|"
               "host-nand-refresh --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteFile(const std::filesystem::path& p, const std::string& text) {
  std::ofstream f(p);
  f << text;
}

/// Invariants every workload's round must satisfy. `gate_cross_host`:
/// whether cross-host hits <= single-flight hits is checked here; on
/// disagg16-sharded it is a counted failed operation of every round
/// instead (see disagg.cpp, ReportConsistencyOp).
void CheckProperties(const VirtualResult& v, bool gate_cross_host,
                     std::vector<std::string>* fail) {
  auto require = [fail](bool ok, const char* what) {
    if (!ok) fail->push_back(what);
  };
  require(v.requested >= 1, "no query requested");
  uint64_t served = 0;
  for (const uint64_t s : v.served_per_host) served += s;
  require(served == v.requested, "per-host served counts do not sum to the queries requested");
  require(v.completed >= v.degraded && v.completed - v.degraded + v.failed == v.requested,
          "completed + failed != queries requested");
  require(v.failed == 0, "some queries failed or completed degraded");
  // sm_rows == 0: the workload's reports do not show SM rows; the traced
  // run checks reads against the obs export instead.
  if (v.sm_rows > 0) require(v.device_reads <= v.sm_rows, "more device reads than SM rows requested");
  if (gate_cross_host) {
    require(v.cross_host_hits <= v.singleflight_hits,
            "more cross-host hits than single-flight hits");
  }
  if (v.sm_logical_bytes > 0) {
    require(v.sm_unique_bytes <= v.sm_logical_bytes, "unique SM bytes exceed logical bytes");
  }
  require(v.bus_bytes >= v.device_reads * v.min_read_bytes,
          "bus bytes below reads x minimum read size");
  require(v.p50_us > 0 && v.p50_us <= v.p99_us, "query p50 not in (0, p99]");
  require(v.device_reads > 0, "no SM device read");
  // Poisson arrivals: the realized arrival span of N queries deviates by
  // about 1/sqrt(N) from N / rate, so allow a few percent of slack.
  require(v.achieved_qps > 0 && v.achieved_qps <= v.offered_qps * 1.05,
          "achieved qps exceeds the offered rate");
}

}  // namespace

namespace sdmbench {

std::unique_ptr<Instance> MakeInstance(const Options& opts, bool traced, WallSpans& spans,
                                       std::string* error) {
  if (opts.workload == "disagg16") return MakeDisaggInstance(opts, false, traced, spans, error);
  if (opts.workload == "disagg16-sharded") {
    return MakeDisaggInstance(opts, true, traced, spans, error);
  }
  return MakeHostRefreshInstance(opts, traced, spans, error);
}

}  // namespace sdmbench

int main(int argc, char** argv) {
  sdm::SetLogLevel(sdm::LogLevel::kWarn);
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string val = argv[++i];
    if (a == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = val == "1";
    } else if (a == "--out-dir") {
      opts.out_dir = val;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (opts.workload != "disagg16" && opts.workload != "disagg16-sharded" &&
      opts.workload != "host-nand-refresh") {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");

  WallSpans spans(kProcessStart);
  std::string error;
  auto make = [&](size_t sub, bool obs_on) {
    Options o = opts;
    o.seed = SubSeed(opts.seed, 1000 + sub);
    std::unique_ptr<Instance> inst = MakeInstance(o, obs_on, spans, &error);
    if (inst == nullptr) {
      std::fprintf(stderr, "sdm_bench: %s\n", error.c_str());
      std::exit(1);
    }
    return inst;
  };

  // ---- Cold set-up: process start to a loaded, servable instance ----
  std::unique_ptr<Instance> inst = make(0, false);
  const double setup_s = SecondsSince(kProcessStart);

  // ---- One round per sub-seed; the first kSloSubSeeds also bisect the SLO rate ----
  std::vector<std::string> failures;
  std::vector<Round> rounds;
  std::vector<double> qps_at_slo;
  double gen_s_per_kquery = 0;
  double rounds_wall_s = 0;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    const auto t0 = Clock::now();
    if (k > 0) inst = make(k, false);
    rounds.push_back({k, false, inst->Serve(spans)});
    rounds_wall_s += SecondsSince(t0);
    if (!opts.trace && k < kSloSubSeeds) qps_at_slo.push_back(inst->QpsAtSlo(spans, &failures));
    if (k == 0) {
      if (opts.trace) gen_s_per_kquery = inst->QueryGenSecondsPerKilo(spans);
      for (const std::string& f : inst->ExtraChecks(spans)) failures.push_back(f);
    }
  }
  inst.reset();

  // ---- Replays of the sub-seeds until the run length is spent; with
  //      --trace 1 they are traced (at least one) ----
  for (size_t j = 0; rounds_wall_s < opts.seconds || (opts.trace && j == 0); ++j) {
    const auto t0 = Clock::now();
    const size_t k = j % kSubSeeds;
    rounds.push_back({k, opts.trace, make(k, opts.trace)->Serve(spans)});
    rounds_wall_s += SecondsSince(t0);
  }

  // ---- Checks: outputs, invariants, exact replay ----
  for (const Round& r : rounds) {
    failures.insert(failures.end(), r.result.failures.begin(), r.result.failures.end());
    if (!(r.result.v == rounds[r.sub].result.v)) {
      failures.push_back(r.traced ? "a traced round's virtual results differ from the untraced"
                                  : "virtual results differ between replays of one seed");
    }
  }
  std::map<std::string, double> layer;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    const VirtualResult& v = rounds[k].result.v;
    CheckProperties(v, opts.workload != "disagg16-sharded", &failures);
    for (const auto& [name, value] : v.layer) layer[name] += value / kSubSeeds;
  }
  const Round* traced = opts.trace ? &rounds[kSubSeeds] : nullptr;
  if (traced != nullptr) {
    // Figures only the program's obs exports show, from the first traced round.
    const VirtualResult& v = rounds[traced->sub].result.v;
    if (v.sm_rows == 0) {
      const auto sm_rows = static_cast<uint64_t>(
          SumCounterSeries(traced->result.obs_metrics_json, "/lookup/sm_rows"));
      if (v.device_reads > sm_rows) failures.push_back("more device reads than SM rows requested");
      layer["core.sm_rows_per_query"] = PerQuery(static_cast<double>(sm_rows), v.completed);
    }
    if (layer.count("core.lookup_p50_us") == 0) {
      const std::vector<double> lk = SpanDurationsUs(traced->result.obs_trace_json, "lookup");
      layer["core.lookup_p50_us"] = Quantile(lk, 0.5);
      layer["core.lookup_p99_us"] = TailSupported(lk.size(), 0.99) ? Quantile(lk, 0.99) : 0;
    }
  }

  // ---- Aggregation: virtual figures over the sub-seeds, wall figures
  //      over every untraced round ----
  double p50 = 0, p99 = 0, achieved = 0, events = 0;
  uint64_t completed = 0, reads = 0, bus = 0;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    const VirtualResult& v = rounds[k].result.v;
    p50 += v.p50_us / kSubSeeds;
    p99 += v.p99_us / kSubSeeds;
    achieved += v.achieved_qps / kSubSeeds;
    events += static_cast<double>(v.events) / kSubSeeds;
    completed += v.completed;
    reads += v.device_reads;
    bus += v.bus_bytes;
  }
  std::vector<double> sim_qps;
  std::vector<double> plain_wall;
  std::vector<double> overhead_pct;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Round& r : rounds) {
    attempted += r.result.v.requested + r.result.known_fault_ops;
    failed += r.result.v.failed + r.result.known_fault_ops_failed;
    if (r.traced) {
      overhead_pct.push_back(
          PercentChange(rounds[r.sub].result.serve_wall_s, r.result.serve_wall_s));
    } else {
      plain_wall.push_back(r.result.serve_wall_s);
      sim_qps.push_back(static_cast<double>(r.result.v.completed) / r.result.serve_wall_s);
    }
  }

  // ---- Human-readable summary (stdout, before the JSON line) ----
  std::printf("workload %s seed %llu: %zu rounds over %zu sub-seeds, %.1f s, nproc %u\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), rounds.size(),
              kSubSeeds, rounds_wall_s, std::thread::hardware_concurrency());
  for (size_t k = 0; k < kSubSeeds; ++k) {
    const VirtualResult& v = rounds[k].result.v;
    std::printf("  sub-seed %zu: %llu queries requested, %llu completed; p50 %.1f us, p99 %.1f us "
                "over %llu samples; %llu device reads; served in %.2f wall s\n",
                k, static_cast<unsigned long long>(v.requested),
                static_cast<unsigned long long>(v.completed), v.p50_us, v.p99_us,
                static_cast<unsigned long long>(v.completed),
                static_cast<unsigned long long>(v.device_reads), rounds[k].result.serve_wall_s);
    std::printf("    %llu cross-host hits, %llu single-flight hits reported\n",
                static_cast<unsigned long long>(v.cross_host_hits),
                static_cast<unsigned long long>(v.singleflight_hits));
  }
  uint64_t fault_ops = 0;
  uint64_t fault_ops_failed = 0;
  for (const Round& r : rounds) {
    fault_ops += r.result.known_fault_ops;
    fault_ops_failed += r.result.known_fault_ops_failed;
  }
  if (fault_ops > 0) {
    std::printf("  known fault, counted in failed: %llu of %llu operations failed; %s\n",
                static_cast<unsigned long long>(fault_ops_failed),
                static_cast<unsigned long long>(fault_ops), rounds[0].result.known_fault_note.c_str());
  }
  for (const std::string& f : failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" + unit + "\"}";
  };
  if (!opts.trace) {
    double qps_mean = 0;
    for (const double q : qps_at_slo) qps_mean += q / static_cast<double>(qps_at_slo.size());
    add("query_p50_us", p50, "us");
    add("query_p99_us", p99, "us");
    add("achieved_qps", achieved, "1/s");
    add("qps_at_slo", qps_mean, "1/s");
    add("device_reads_per_query", PerQuery(static_cast<double>(reads), completed), "count");
    add("bus_bytes_per_query", PerQuery(static_cast<double>(bus), completed), "B");
    add("sim_queries_per_s", Median(sim_qps), "1/s");
    add("setup_s", setup_s, "s");
    add("peak_rss_mib", PeakRssMib(), "MiB");
  } else {
    layer["event_loop.events_per_wall_s"] = events / Median(plain_wall);
    layer["load.build_s"] = rounds[0].result.build_wall_s;
    layer["trace.gen_s_per_kquery"] = gen_s_per_kquery;
    layer["refresh.wall_s"] = rounds[0].result.refresh_wall_s;
    layer["trace_overhead_pct"] = Median(overhead_pct);
    for (const MetricSpec& m : kLayerMetrics) {
      const auto it = layer.find(m.name);
      add(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
    }
    if (!opts.out_dir.empty()) {
      const std::filesystem::path dir =
          std::filesystem::path(opts.out_dir) /
          (opts.workload + "-seed" + std::to_string(opts.seed));
      std::filesystem::create_directories(dir);
      WriteFile(dir / "obs_metrics.json", traced->result.obs_metrics_json);
      WriteFile(dir / "obs_trace.json", traced->result.obs_trace_json);
      WriteFile(dir / "obs_slo.json", traced->result.obs_slo_json);
      WriteFile(dir / "bench_spans.json", spans.ChromeJson());
      std::printf("  traced artifacts in %s\n", dir.string().c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failures.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}
