// Workloads `disagg16` and `disagg16-sharded`: 16 hosts, each serving a
// replica of one model, share one fabric-attached 2-Optane SM stack (rtt
// 20us, 200us batch window, row cache off, user-sticky routing), driven by
// open-loop Poisson arrivals at 4000 qps per host. The sharded twin runs
// the same cluster, seeds and arrivals on the parallel runtime.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agg.h"
#include "bench.h"
#include "dlrm/model_zoo.h"
#include "pooled_check.h"
#include "serving/cluster.h"
#include "serving/sharded_cluster.h"

namespace sdmbench {

using namespace sdm;

namespace {

constexpr size_t kHosts = 16;
constexpr double kQpsPerHost = 4000;
constexpr uint64_t kQueriesPerHost = 2500;
/// p99 SLO of the disaggregated cluster (every host's p99 counts).
constexpr double kSloUs = 2000;
/// User-sticky routing spreads a probe unevenly (hosts get about 0.75x to
/// 1.3x the mean), so 1600 per host keeps every host's p99 on at least
/// ten samples beyond it; each probe checks that it does.
constexpr uint64_t kProbeQueriesPerHost = 1600;
constexpr double kProbeLo = 1000;
constexpr double kProbeHi = 7000;
constexpr int kProbeIters = 3;
/// Worker threads asked of the sharded runtime; it clamps them to the
/// machine's cores - 1, and results are identical for every count >= 2.
constexpr size_t kShards = 4;
constexpr uint64_t kTwinQueriesPerHost = 250;
/// The sharded report-consistency operation (see ReportConsistencyOp): a
/// fixed seed, independent of the run's, and a load at which the sharded
/// report's cross-host hits are about twice its single-flight hits.
constexpr uint64_t kConsistencySeed = 0x5eed;
constexpr double kConsistencyQpsPerHost = 2000;
constexpr uint64_t kConsistencyQueriesPerHost = 250;

ModelConfig DisaggModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // the item table stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

HostSimConfig DisaggBase(uint64_t seed, bool traced) {
  HostSimConfig base;
  base.host = MakeHwFAO(2);
  base.fm_capacity = 1 * kMiB;
  base.sm_backing_per_device = 64 * kMiB;
  base.workload.num_users = 2000;
  base.workload.seed = SubSeed(seed, 1);
  base.loader.seed = SubSeed(seed, 2);
  base.seed = SubSeed(seed, 3);
  base.tuning.max_batch_delay = Micros(200);
  base.tuning.sub_block_reads = false;
  base.tuning.enable_row_cache = false;
  base.tuning.fabric_latency = Micros(10);  // rtt 20us
  base.tuning.fabric_bandwidth_bytes_per_sec = 25e9;
  base.tuning.fabric_queueing = true;
  if (traced) {
    base.tuning.obs.enable_metrics = true;
    base.tuning.obs.enable_tracing = true;
    base.tuning.obs.trace_sample_every = 8;
    base.tuning.obs.trace_max_spans = size_t{1} << 18;
  }
  return base;
}

std::unique_ptr<ClusterSimulation> MakeCluster(const HostSimConfig& base, bool sharded) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  dc.num_shards = sharded ? kShards : 1;
  return std::make_unique<ClusterSimulation>(kHosts, base, RoutingPolicy::kUserSticky, dc);
}

/// Query-weighted mean of the hosts' percentiles (the report carries
/// per-host histogram percentiles, not the merged distribution).
double HostWeighted(const DisaggregatedRunReport& r, bool p99) {
  std::vector<Segment> segs;
  for (const auto& h : r.hosts) {
    segs.push_back({(p99 ? h.run.p99 : h.run.p50).micros(), h.run.queries_completed});
  }
  return WeightedMean(segs);
}

class DisaggInstance : public Instance {
 public:
  DisaggInstance(const Options& opts, bool sharded, bool traced)
      : opts_(opts), sharded_(sharded), base_(DisaggBase(opts.seed, traced)) {}

  Status Load(WallSpans& spans) {
    WallSpans::Scope s(&spans, "load");
    cluster_ = MakeCluster(base_, sharded_);
    const Status st = cluster_->LoadModel(model_);
    build_wall_s_ = s.elapsed_s();
    return st;
  }

  RoundResult Serve(WallSpans& spans) override {
    RoundResult out;
    out.build_wall_s = build_wall_s_;
    const Snapshot before = Take();
    DisaggregatedRunReport r;
    {
      WallSpans::Scope s(&spans, "serve");
      r = cluster_->RunDisaggregated(kQpsPerHost * kHosts, kQueriesPerHost * kHosts);
      out.serve_wall_s = s.elapsed_s();
    }
    const Snapshot after = Take();
    Fill(r, before, after, &out);
    if (sharded_) ReportConsistencyOp(spans, &out);
    if (base_.tuning.obs.enabled()) {
      out.obs_metrics_json = cluster_->ObsMetricsJson();
      out.obs_trace_json = cluster_->ObsTraceJson();
      out.obs_slo_json = cluster_->ObsSloJson();
    }
    if (!sharded_) {
      WallSpans::Scope s(&spans, "check.pooled");
      CheckPooled(&out.failures);
    }
    return out;
  }

  double QpsAtSlo(WallSpans& spans, std::vector<std::string>* failures) override {
    WallSpans::Scope s(&spans, "qps_at_slo");
    bool thin_tail = false;
    const double qps = BisectQps(kProbeLo, kProbeHi, kProbeIters, kSloUs, [&](double rate) {
      const DisaggregatedRunReport r =
          cluster_->RunDisaggregated(rate * kHosts, kProbeQueriesPerHost * kHosts);
      for (const auto& h : r.hosts) thin_tail |= !TailSupported(h.run.queries_completed, 0.99);
      return HostWeighted(r, /*p99=*/true);
    });
    if (thin_tail) {
      failures->push_back("an SLO probe's host p99 has fewer than ten samples beyond it");
    }
    return qps;
  }

  std::vector<std::string> ExtraChecks(WallSpans& spans) override {
    // Routing does not depend on timing, so both runtimes must send every
    // host the same queries: compare per-host served counts of a short run
    // of each on the same seeds.
    WallSpans::Scope s(&spans, "check.served_twin");
    std::vector<std::string> failures;
    std::vector<uint64_t> served[2];
    for (int mode = 0; mode < 2; ++mode) {
      auto c = MakeCluster(DisaggBase(opts_.seed, false), mode == 1);
      if (Status st = c->LoadModel(model_); !st.ok()) {
        failures.push_back("twin load failed: " + st.ToString());
        return failures;
      }
      const DisaggregatedRunReport r =
          c->RunDisaggregated(kQpsPerHost * kHosts, kTwinQueriesPerHost * kHosts);
      for (const auto& h : r.hosts) served[mode].push_back(h.run.queries_served);
    }
    if (served[0] != served[1]) {
      failures.push_back("per-host served counts differ between the single-loop and "
                         "sharded runtimes");
    }
    return failures;
  }

  double QueryGenSecondsPerKilo(WallSpans& spans) override {
    WallSpans::Scope s(&spans, "query_gen");
    QueryGenerator gen(model_, base_.workload);
    constexpr int kQueries = 20'000;
    uint64_t sink = 0;
    for (int i = 0; i < kQueries; ++i) sink += gen.Next().indices.size();
    if (sink == 0) return 0;
    return s.elapsed_s() * 1000.0 / kQueries;
  }

 private:
  struct Snapshot {
    uint64_t events = 0;
    uint64_t windows = 0;
    uint64_t bus_bytes = 0;
    uint64_t useful_bytes = 0;
  };

  SharedDeviceService& device_stack() {
    return sharded_ ? cluster_->sharded_runtime()->device_stack()
                    : cluster_->fabric_service()->device_service();
  }

  Snapshot Take() {
    Snapshot s;
    if (sharded_) {
      s.events = cluster_->sharded_runtime()->runtime().events_run();
      s.windows = cluster_->sharded_runtime()->runtime().windows();
    } else {
      s.events = cluster_->host_store(0).loop()->events_run();
    }
    SharedDeviceService& dev = device_stack();
    for (size_t d = 0; d < dev.device_count(); ++d) {
      s.bus_bytes += dev.device(d).stats().CounterValue("bus_bytes");
      s.useful_bytes += dev.device(d).stats().CounterValue("useful_bytes");
    }
    return s;
  }

  /// The check "cross-host hits <= single-flight hits" on the sharded
  /// runtime, run as one operation of every round on a fresh cluster with
  /// a fixed seed. It fails every time: the sharded report counts the
  /// device endpoint's joins in cross_host_hits but not in
  /// io.singleflight_hits (see README, known faults). On the round's own
  /// seeded report the two counts lie within a few percent of each other,
  /// so the outcome there depends on the seed; it is printed, not gated.
  void ReportConsistencyOp(WallSpans& spans, RoundResult* out) {
    WallSpans::Scope s(&spans, "check.report_consistency");
    ++out->known_fault_ops;
    auto c = MakeCluster(DisaggBase(kConsistencySeed, false), /*sharded=*/true);
    if (Status st = c->LoadModel(model_); !st.ok()) {
      out->failures.push_back("consistency cluster load failed: " + st.ToString());
      return;
    }
    const DisaggregatedRunReport r = c->RunDisaggregated(
        kConsistencyQpsPerHost * kHosts, kConsistencyQueriesPerHost * kHosts);
    if (r.cross_host_hits > r.io.singleflight_hits) ++out->known_fault_ops_failed;
    char note[160];
    std::snprintf(note, sizeof(note),
                  "sharded report consistency (fixed seed): %llu cross-host hits vs %llu "
                  "single-flight hits",
                  static_cast<unsigned long long>(r.cross_host_hits),
                  static_cast<unsigned long long>(r.io.singleflight_hits));
    out->known_fault_note = note;
  }

  void Fill(const DisaggregatedRunReport& r, const Snapshot& a, const Snapshot& b,
            RoundResult* out) {
    VirtualResult& v = out->v;
    SimDuration throttle_wait;
    uint64_t served = 0;
    v.requested = kQueriesPerHost * kHosts;
    for (const auto& h : r.hosts) {
      served += h.run.queries_served;
      v.completed += h.run.queries_completed;
      v.served_per_host.push_back(h.run.queries_served);
      throttle_wait += h.throttle_queue_time;
      if (!TailSupported(h.run.queries_completed, 0.99)) {
        out->failures.push_back("a host's p99 has fewer than ten samples beyond it");
      }
    }
    v.degraded = r.queries_degraded;
    v.failed = (served > v.completed ? served - v.completed : 0) + r.queries_degraded;
    v.offered_qps = kQpsPerHost * kHosts;
    v.achieved_qps = r.aggregate_qps;
    v.p50_us = HostWeighted(r, false);
    v.p99_us = HostWeighted(r, true);
    v.device_reads = r.sm_device_reads;
    v.bus_bytes = b.bus_bytes - a.bus_bytes;
    v.useful_bytes = b.useful_bytes - a.useful_bytes;
    v.min_read_bytes = kBlockSize;  // block reads: sub_block_reads is off
    v.singleflight_hits = r.io.singleflight_hits;
    v.cross_host_hits = r.cross_host_hits;
    v.sm_unique_bytes = r.sm_unique_bytes;
    v.sm_logical_bytes = r.sm_logical_bytes;
    v.events = b.events - a.events;

    Histogram reads;
    SharedDeviceService& dev = device_stack();
    for (size_t d = 0; d < dev.device_count(); ++d) reads.Merge(dev.device(d).read_latency());
    SimDuration load_write;
    for (size_t i = 0; i < kHosts; ++i) load_write += cluster_->host_store(i).load_write_time();

    const uint64_t c = v.completed;
    const double span_s = r.aggregate_qps > 0 ? static_cast<double>(c) / r.aggregate_qps : 0;
    const uint64_t windows = b.windows - a.windows;
    auto& L = v.layer;
    L["event_loop.events_per_query"] = PerQuery(static_cast<double>(v.events), c);
    L["sched.singleflight_hits_per_query"] = PerQuery(static_cast<double>(r.io.singleflight_hits), c);
    L["sched.merges_per_query"] = PerQuery(static_cast<double>(r.io.cross_request_merges), c);
    L["sched.sqes_per_doorbell"] = r.io.BatchOccupancy();
    L["io.throttle_wait_us_per_query"] = PerQuery(throttle_wait.micros(), c);
    L["io.sm_iops"] = span_s > 0 ? static_cast<double>(v.device_reads) / span_s : 0;
    L["device.read_p50_us"] = static_cast<double>(reads.P50()) / 1e3;
    L["device.read_p99_us"] = static_cast<double>(reads.P99()) / 1e3;
    L["device.read_amplification"] =
        v.useful_bytes == 0 ? 0
                            : static_cast<double>(v.bus_bytes) / static_cast<double>(v.useful_bytes);
    L["cache.row_hit_rate"] = r.mean_hit_rate;
    L["cache.pooled_hit_rate"] = 0;  // the disaggregated report carries none
    L["fabric.bytes_per_query"] =
        PerQuery(static_cast<double>(r.fabric.request_bytes + r.fabric.response_bytes), c);
    L["fabric.queue_us_per_query"] = PerQuery(r.fabric.queue_time.micros(), c);
    L["tenant.cross_host_hits_per_query"] = PerQuery(static_cast<double>(r.cross_host_hits), c);
    L["tenant.dedup_ratio"] =
        r.sm_unique_bytes == 0 ? 0
                               : static_cast<double>(r.sm_logical_bytes) /
                                     static_cast<double>(r.sm_unique_bytes);
    L["sharded.windows"] = static_cast<double>(windows);
    L["sharded.events_per_window"] =
        windows == 0 ? 0 : static_cast<double>(v.events) / static_cast<double>(windows);
    L["load.sm_write_ms"] = load_write.millis();
  }

  /// Lookups driven on four hosts at one instant: the same user-table
  /// requests on every host (cross-host single-flight on the shared stack)
  /// plus an FM-direct item lookup, checked against generated images.
  void CheckPooled(std::vector<std::string>* failures) {
    std::vector<std::unique_ptr<LookupEngine>> engines;
    for (size_t h = 0; h < 4; ++h) {
      engines.push_back(std::make_unique<LookupEngine>(&cluster_->host_store(h)));
    }
    Rng rng(SubSeed(opts_.seed, 77));
    std::vector<LookupCase> cases;
    for (size_t t = 0; t < model_.tables.size(); ++t) {
      const TableConfig& cfg = model_.tables[t];
      std::vector<RowIndex> rows;
      for (int k = 0; k < 8; ++k) rows.push_back(rng.NextBounded(cfg.num_rows));
      const std::vector<float> expected = PooledSum(cfg.dim, rows, [&](RowIndex row) {
        return GeneratedRow(cfg, base_.loader.seed, t, row);
      });
      const size_t fanout = cfg.role == TableRole::kUser ? engines.size() : 1;
      for (size_t h = 0; h < fanout; ++h) {
        LookupCase c;
        c.engine = engines[h].get();
        c.request.table = MakeTableId(static_cast<uint32_t>(t));
        c.request.indices = rows;
        c.expected = expected;
        cases.push_back(std::move(c));
      }
    }
    CheckTally tally;
    RunCases(cases, cluster_->host_store(0).loop(), "disagg", &tally);
    failures->insert(failures->end(), tally.failures.begin(), tally.failures.end());
    if (tally.rows_sm == 0) failures->push_back("pooled check read no SM rows");
    if (tally.rows_fm == 0) failures->push_back("pooled check read no FM rows");
    if (tally.singleflight_hits == 0) {
      failures->push_back("pooled check exercised no cross-request shared read");
    }
  }

  Options opts_;
  bool sharded_;
  HostSimConfig base_;
  ModelConfig model_ = DisaggModel();
  std::unique_ptr<ClusterSimulation> cluster_;
  double build_wall_s_ = 0;
};

}  // namespace

std::unique_ptr<Instance> MakeDisaggInstance(const Options& opts, bool sharded, bool traced,
                                             WallSpans& spans, std::string* error) {
  auto inst = std::make_unique<DisaggInstance>(opts, sharded, traced);
  if (Status s = inst->Load(spans); !s.ok()) {
    *error = "cluster load failed: " + s.ToString();
    return nullptr;
  }
  return inst;
}

}  // namespace sdmbench
