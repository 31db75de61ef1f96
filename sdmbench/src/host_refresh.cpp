// Workload `host-nand-refresh`: one accelerator host with 2 Nand SSDs
// (HW-AN) serving an M2-shaped model whose user tables exceed FM. The row
// cache is on and warmed before timing; open-loop Poisson load
// below the Nand knee; between the two measured serving phases an online
// incremental ModelUpdater refresh rewrites about 20% of every table's rows.
#include <algorithm>
#include <iterator>
#include <memory>

#include "agg.h"
#include "bench.h"
#include "core/model_updater.h"
#include "pooled_check.h"
#include "serving/host.h"

namespace sdmbench {

using namespace sdm;

namespace {

/// Well below the Nand knee (about 14k qps). Closer to it the transient
/// after the refresh dominates the tail: at 8k the p99 of the two phases
/// spread 19% over seeds, at 10k the post-refresh p99 alone ranged 5.6 to
/// 9.2 ms.
constexpr double kQps = 6'000;
constexpr uint64_t kWarmupQueries = 6'000;
constexpr uint64_t kPhaseQueries = 3'000;
constexpr double kRefreshFraction = 0.2;
/// p99 SLO of the host (both phases' p99 combine into the metric).
constexpr double kSloUs = 5000;
constexpr uint64_t kProbeQueries = 1'500;
constexpr double kProbeLo = 8'000;
constexpr double kProbeHi = 16'000;
constexpr int kProbeIters = 3;
/// Rows per table scanned for refreshed rows by the post-refresh check.
constexpr RowIndex kRefreshScanRows = 4'000;

/// M2-shaped model at benchmark scale: 30 user tables (48 MB stored, over
/// the 24 MiB FM) and 15 item tables; about 2,000 indices per query.
ModelConfig M2Shaped() {
  ModelConfig model;
  model.name = "m2-bench";
  model.item_batch_size = 30;
  model.user_batch_size = 1;
  model.num_mlp_layers = 43;
  model.avg_mlp_width = 735;
  Rng rng(0x92);
  for (int i = 0; i < 30; ++i) {
    TableConfig t;
    t.name = "m2.user." + std::to_string(i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 56;  // 64B stored rows
    t.num_rows = 25'000;
    t.avg_pooling_factor = 8;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 15; ++i) {
    TableConfig t;
    t.name = "m2.item." + std::to_string(i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 32;
    t.num_rows = 3'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

HostSimConfig HostConfig(uint64_t seed, bool traced) {
  HostSimConfig cfg;
  cfg.host = MakeHwAN();
  cfg.fm_capacity = 24 * kMiB;
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.workload.num_users = 6000;
  cfg.workload.user_index_churn = 0.05;
  cfg.workload.seed = SubSeed(seed, 1);
  cfg.loader.seed = SubSeed(seed, 2);
  cfg.seed = SubSeed(seed, 3);
  if (traced) {
    cfg.tuning.obs.enable_metrics = true;
    cfg.tuning.obs.enable_tracing = true;
    cfg.tuning.obs.trace_sample_every = 64;
    cfg.tuning.obs.trace_max_spans = size_t{1} << 18;
  }
  return cfg;
}

/// Counters the serving phases are measured by (all cumulative).
struct Counters {
  uint64_t events = 0;
  uint64_t reads = 0;
  uint64_t bus_bytes = 0;
  uint64_t useful_bytes = 0;
  uint64_t sm_rows = 0;
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;
  uint64_t pooled_hits = 0;
  uint64_t pooled_total = 0;
  SimDuration throttle_wait;
  CrossRequestIoStats io;
};

/// One open-loop serving phase, every query's latency kept exactly.
struct Phase {
  std::vector<double> latency_us;  ///< completed queries
  uint64_t submitted = 0;  ///< arrivals handed to the engine
  uint64_t finished = 0;   ///< completion callbacks, OK or not
  uint64_t degraded = 0;
  double span_s = 0;  ///< virtual time from the phase start to its last completion
};

class HostRefreshInstance : public Instance {
 public:
  HostRefreshInstance(const Options& opts, bool traced)
      : opts_(opts), cfg_(HostConfig(opts.seed, traced)), sim_(cfg_) {}

  Status Load(WallSpans& spans) {
    WallSpans::Scope s(&spans, "load");
    const Status st = sim_.LoadModel(model_);
    build_wall_s_ = s.elapsed_s();
    return st;
  }

  RoundResult Serve(WallSpans& spans) override {
    RoundResult out;
    out.build_wall_s = build_wall_s_;
    {
      WallSpans::Scope s(&spans, "warmup");
      (void)Drive(kQps, kWarmupQueries);
    }
    const Counters c0 = Take();
    Phase p1;
    {
      WallSpans::Scope s(&spans, "serve");
      p1 = Drive(kQps, kPhaseQueries);
      out.serve_wall_s += s.elapsed_s();
    }
    const Counters c1 = Take();
    {
      WallSpans::Scope s(&spans, "check.pooled");
      CheckLoaded(&out.failures);
    }
    UpdateReport update;
    {
      WallSpans::Scope s(&spans, "refresh");
      ModelUpdater updater(&sim_.store());
      UpdateOptions uo;
      uo.row_fraction = kRefreshFraction;
      uo.online = true;
      uo.seed = SubSeed(opts_.seed, 4);
      auto res = updater.Update(uo);
      if (!res.ok()) {
        out.failures.push_back("refresh failed: " + res.status().ToString());
      } else {
        update = res.value();
      }
      out.refresh_wall_s = s.elapsed_s();
    }
    const Counters c2 = Take();
    Phase p2;
    {
      WallSpans::Scope s(&spans, "serve");
      p2 = Drive(kQps, kPhaseQueries);
      out.serve_wall_s += s.elapsed_s();
    }
    const Counters c3 = Take();
    {
      WallSpans::Scope s(&spans, "check.pooled");
      CheckRefreshed(&out.failures);
    }
    Fill(p1, p2, c0, c1, c2, c3, update, &out);
    if (cfg_.tuning.obs.enabled()) {
      out.obs_metrics_json = sim_.ObsMetricsJson();
      out.obs_trace_json = sim_.ObsTraceJson();
      out.obs_slo_json = sim_.ObsSloJson();
    }
    return out;
  }

  double QpsAtSlo(WallSpans& spans, std::vector<std::string>* failures) override {
    WallSpans::Scope s(&spans, "qps_at_slo");
    bool thin_tail = false;
    const double qps = BisectQps(kProbeLo, kProbeHi, kProbeIters, kSloUs, [&](double rate) {
      const Phase p = Drive(rate, kProbeQueries);
      thin_tail |= !TailSupported(p.latency_us.size(), 0.99);
      return Quantile(p.latency_us, 0.99);
    });
    if (thin_tail) failures->push_back("an SLO probe's p99 has fewer than ten samples beyond it");
    return qps;
  }

  double QueryGenSecondsPerKilo(WallSpans& spans) override {
    WallSpans::Scope s(&spans, "query_gen");
    QueryGenerator gen(model_, cfg_.workload);
    constexpr int kQueries = 2'000;
    uint64_t sink = 0;
    for (int i = 0; i < kQueries; ++i) sink += gen.Next().indices.size();
    if (sink == 0) return 0;
    return s.elapsed_s() * 1000.0 / kQueries;
  }

 private:
  /// Poisson arrivals at `qps` into the host's InferenceEngine (the same
  /// open loop HostSimulation::Run drives, keeping every latency instead
  /// of a bucketed histogram). Each phase draws its own arrival stream.
  Phase Drive(double qps, uint64_t n) {
    EventLoop& loop = sim_.loop();
    Rng arrivals(SubSeed(opts_.seed, 100 + phases_++));
    Phase p;
    p.latency_us.reserve(n);
    const SimTime begin = loop.Now();
    SimTime next = begin;
    for (uint64_t i = 0; i < n; ++i) {
      next += Seconds(arrivals.NextExponential(1.0 / qps));
      loop.ScheduleAt(next, [this, &p] {
        ++p.submitted;
        sim_.engine().Submit(sim_.workload().Next(), [&p](Status st, const QueryTrace& trace) {
          ++p.finished;
          if (!st.ok()) return;
          p.latency_us.push_back(trace.total.micros());
          if (trace.degraded) ++p.degraded;
        });
      });
    }
    loop.RunUntilIdle();
    p.span_s = (loop.Now() - begin).seconds();
    return p;
  }

  Counters Take() {
    SdmStore& st = sim_.store();
    Counters c;
    c.events = sim_.loop().events_run();
    for (size_t d = 0; d < st.sm_device_count(); ++d) {
      c.reads += st.sm_device(d).stats().CounterValue("reads");
      c.bus_bytes += st.sm_device(d).stats().CounterValue("bus_bytes");
      c.useful_bytes += st.sm_device(d).stats().CounterValue("useful_bytes");
    }
    c.sm_rows = sim_.engine().lookups().stats().CounterValue("rows_sm_read");
    if (st.row_cache() != nullptr) {
      c.row_hits = st.row_cache()->stats().hits;
      c.row_misses = st.row_cache()->stats().misses;
    }
    if (st.pooled_cache() != nullptr) {
      const auto& ps = st.pooled_cache()->stats();
      c.pooled_hits = ps.hits;
      c.pooled_total = ps.hits + ps.misses + ps.uncacheable;
    }
    c.throttle_wait = st.throttle().QueueTime(st.tenant_id());
    c.io = st.cross_request_io_stats();
    return c;
  }

  /// Smallest device read the store can issue: one DWORD-rounded row on
  /// the sub-block path, one 4KB block otherwise.
  uint64_t MinReadBytes() {
    SdmStore& st = sim_.store();
    const bool sub_block = cfg_.tuning.sub_block_reads && st.sm_device_count() > 0 &&
                           st.sm_device(0).spec().supports_sub_block;
    if (!sub_block) return kBlockSize;
    uint64_t min_row = kBlockSize;
    for (size_t t = 0; t < st.table_count(); ++t) {
      const TableRuntime& tr = st.table(MakeTableId(static_cast<uint32_t>(t)));
      if (tr.tier != MemoryTier::kSm) continue;
      const Bytes rb = (tr.config.row_bytes() + kDwordBytes - 1) / kDwordBytes * kDwordBytes;
      min_row = std::min<uint64_t>(min_row, rb);
    }
    return min_row;
  }

  void Fill(const Phase& p1, const Phase& p2, const Counters& c0,
            const Counters& c1, const Counters& c2, const Counters& c3,
            const UpdateReport& update, RoundResult* out) {
    VirtualResult& v = out->v;
    // The two serving phases; the refresh between them is not serving.
    auto phase = [](const Counters& a, const Counters& b, auto field) {
      return field(b) - field(a);
    };
    auto sum = [&](auto field) { return phase(c0, c1, field) + phase(c2, c3, field); };
    std::vector<double> latency = p1.latency_us;
    latency.insert(latency.end(), p2.latency_us.begin(), p2.latency_us.end());
    const uint64_t served = p1.submitted + p2.submitted;
    v.requested = 2 * kPhaseQueries;
    v.completed = latency.size();
    v.degraded = p1.degraded + p2.degraded;
    v.failed = (served > v.completed ? served - v.completed : 0) + v.degraded;
    v.served_per_host = {served};
    if (p1.finished + p2.finished != served) {
      out->failures.push_back("a submitted query never finished");
    }
    v.offered_qps = kQps;
    const double span_s = p1.span_s + p2.span_s;
    v.achieved_qps = span_s > 0 ? static_cast<double>(v.completed) / span_s : 0;
    v.p50_us = Quantile(latency, 0.5);
    v.p99_us = Quantile(latency, 0.99);
    if (!TailSupported(latency.size(), 0.99)) {
      out->failures.push_back("the p99 has fewer than ten samples beyond it");
    }
    v.device_reads = sum([](const Counters& c) { return c.reads; });
    v.bus_bytes = sum([](const Counters& c) { return c.bus_bytes; });
    v.useful_bytes = sum([](const Counters& c) { return c.useful_bytes; });
    v.min_read_bytes = MinReadBytes();
    const CrossRequestIoStats io1 = c1.io.Since(c0.io);
    const CrossRequestIoStats io2 = c3.io.Since(c2.io);
    v.singleflight_hits = io1.singleflight_hits + io2.singleflight_hits;
    // sm_unique_bytes / sm_logical_bytes stay 0: one host shares no SM bytes.
    v.sm_rows = sum([](const Counters& c) { return c.sm_rows; });
    v.events = sum([](const Counters& c) { return c.events; });

    const uint64_t row_hits = sum([](const Counters& c) { return c.row_hits; });
    const uint64_t row_total = row_hits + sum([](const Counters& c) { return c.row_misses; });
    const uint64_t pooled_hits = sum([](const Counters& c) { return c.pooled_hits; });
    const uint64_t pooled_total = sum([](const Counters& c) { return c.pooled_total; });
    const uint64_t flushes = io1.flushes + io2.flushes;
    const uint64_t sqes = io1.device_reads + io1.background_reads + io1.prefetch_reads +
                          io2.device_reads + io2.background_reads + io2.prefetch_reads;
    const double throttle_us =
        ((c1.throttle_wait - c0.throttle_wait) + (c3.throttle_wait - c2.throttle_wait)).micros();
    Histogram reads;
    for (size_t d = 0; d < sim_.store().sm_device_count(); ++d) {
      reads.Merge(sim_.store().sm_device(d).read_latency());
    }
    const Histogram& lookups = sim_.engine().lookups().latency();

    const uint64_t c = v.completed;
    auto& L = v.layer;
    L["event_loop.events_per_query"] = PerQuery(static_cast<double>(v.events), c);
    L["sched.singleflight_hits_per_query"] = PerQuery(static_cast<double>(v.singleflight_hits), c);
    L["sched.merges_per_query"] =
        PerQuery(static_cast<double>(io1.cross_request_merges + io2.cross_request_merges), c);
    L["sched.sqes_per_doorbell"] =
        flushes == 0 ? 0 : static_cast<double>(sqes) / static_cast<double>(flushes);
    L["io.throttle_wait_us_per_query"] = PerQuery(throttle_us, c);
    L["io.sm_iops"] = span_s > 0 ? static_cast<double>(v.device_reads) / span_s : 0;
    L["device.read_p50_us"] = static_cast<double>(reads.P50()) / 1e3;
    L["device.read_p99_us"] = static_cast<double>(reads.P99()) / 1e3;
    L["device.read_amplification"] =
        v.useful_bytes == 0 ? 0
                            : static_cast<double>(v.bus_bytes) / static_cast<double>(v.useful_bytes);
    L["cache.row_hit_rate"] =
        row_total == 0 ? 0 : static_cast<double>(row_hits) / static_cast<double>(row_total);
    L["cache.pooled_hit_rate"] =
        pooled_total == 0 ? 0 : static_cast<double>(pooled_hits) / static_cast<double>(pooled_total);
    L["core.lookup_p50_us"] = static_cast<double>(lookups.P50()) / 1e3;
    L["core.lookup_p99_us"] = static_cast<double>(lookups.P99()) / 1e3;
    L["core.sm_rows_per_query"] = PerQuery(static_cast<double>(v.sm_rows), c);
    L["serving.user_path_p99_us"] =
        static_cast<double>(sim_.engine().user_path_latency().P99()) / 1e3;
    L["serving.item_path_p99_us"] =
        static_cast<double>(sim_.engine().item_path_latency().P99()) / 1e3;
    L["tenant.dedup_ratio"] = 1;
    L["load.sm_write_ms"] = sim_.load_report().sm_write_time.millis();
    L["refresh.write_ms"] = update.write_time.millis();
    L["refresh.query_p99_after_us"] = Quantile(p2.latency_us, 0.99);
    const uint64_t hits2 = c3.row_hits - c2.row_hits;
    const uint64_t total2 = hits2 + (c3.row_misses - c2.row_misses);
    L["refresh.row_hit_rate_after"] =
        total2 == 0 ? 0 : static_cast<double>(hits2) / static_cast<double>(total2);
  }

  LookupRequest Request(size_t table, std::vector<RowIndex> rows) {
    LookupRequest req;
    req.table = MakeTableId(static_cast<uint32_t>(table));
    req.indices = std::move(rows);
    return req;
  }

  /// Pre-refresh: the sample reads SM rows, re-reads them from the row
  /// cache, and issues duplicate concurrent requests (single-flight), all
  /// checked against generated table images.
  void CheckLoaded(std::vector<std::string>* failures) {
    LookupEngine& engine = sim_.engine().lookups();
    Rng rng(SubSeed(opts_.seed, 78));
    const size_t tables[] = {0, 1, 30};  // two SM user tables, one FM item table
    auto expect = [&](size_t t, const std::vector<RowIndex>& rows) {
      const TableConfig& cfg = model_.tables[t];
      return PooledSum(cfg.dim, rows, [&](RowIndex row) {
        return GeneratedRow(cfg, cfg_.loader.seed, t, row);
      });
    };
    auto random_rows = [&](size_t t, int n) {
      std::vector<RowIndex> rows;
      for (int k = 0; k < n; ++k) rows.push_back(rng.NextBounded(model_.tables[t].num_rows));
      return rows;
    };
    CheckTally tally;
    std::vector<std::vector<RowIndex>> first(std::size(tables));
    std::vector<LookupCase> batch1;
    for (size_t i = 0; i < std::size(tables); ++i) {
      first[i] = random_rows(tables[i], 8);
      batch1.push_back({&engine, Request(tables[i], first[i]), expect(tables[i], first[i])});
    }
    RunCases(batch1, &sim_.loop(), "loaded", &tally);
    std::vector<LookupCase> batch2;
    for (size_t i = 0; i < std::size(tables); ++i) {
      std::vector<RowIndex> again = first[i];
      again.push_back(rng.NextBounded(model_.tables[tables[i]].num_rows));  // a new pooled key
      batch2.push_back({&engine, Request(tables[i], again), expect(tables[i], again)});
      const std::vector<RowIndex> twice = random_rows(tables[i], 8);
      for (int k = 0; k < 2; ++k) {
        batch2.push_back({&engine, Request(tables[i], twice), expect(tables[i], twice)});
      }
    }
    RunCases(batch2, &sim_.loop(), "loaded", &tally);
    Require(tally, failures, "pre-refresh");
  }

  /// Post-refresh: refreshed rows (bytes on the tier differ from the
  /// generated image) are looked up both from the row cache the refresh
  /// wrote through and from SM, checked against the tier's bytes.
  void CheckRefreshed(std::vector<std::string>* failures) {
    LookupEngine& engine = sim_.engine().lookups();
    SdmStore& store = sim_.store();
    Rng rng(SubSeed(opts_.seed, 79));
    CheckTally tally;
    std::vector<LookupCase> batch;
    uint64_t refreshed_seen = 0;
    for (const size_t t : {size_t{0}, size_t{1}, size_t{30}}) {
      const TableConfig& cfg = model_.tables[t];
      const TableId id = MakeTableId(static_cast<uint32_t>(t));
      std::vector<RowIndex> cached;
      std::vector<RowIndex> uncached;
      for (RowIndex row = 0; row < std::min<RowIndex>(kRefreshScanRows, cfg.num_rows); ++row) {
        if (TierRow(store, t, row) == GeneratedRow(cfg, cfg_.loader.seed, t, row)) continue;
        ++refreshed_seen;
        const bool in_cache =
            store.row_cache() != nullptr && store.row_cache()->Contains(RowKey{id, row});
        std::vector<RowIndex>& dst = in_cache ? cached : uncached;
        if (dst.size() < 8) dst.push_back(row);
      }
      auto expect = [&](const std::vector<RowIndex>& rows) {
        return PooledSum(cfg.dim, rows, [&](RowIndex row) { return TierRow(store, t, row); });
      };
      for (const auto* rows : {&cached, &uncached}) {
        if (!rows->empty()) batch.push_back({&engine, Request(t, *rows), expect(*rows)});
      }
      std::vector<RowIndex> twice;
      for (int k = 0; k < 8; ++k) twice.push_back(rng.NextBounded(cfg.num_rows));
      for (int k = 0; k < 2; ++k) batch.push_back({&engine, Request(t, twice), expect(twice)});
    }
    RunCases(batch, &sim_.loop(), "refreshed", &tally);
    if (refreshed_seen == 0) failures->push_back("the refresh changed no scanned row");
    Require(tally, failures, "post-refresh");
  }

  static void Require(const CheckTally& tally, std::vector<std::string>* failures,
                      const std::string& label) {
    failures->insert(failures->end(), tally.failures.begin(), tally.failures.end());
    if (tally.rows_sm == 0) failures->push_back(label + " pooled check read no SM rows");
    if (tally.rows_cache == 0) failures->push_back(label + " pooled check hit no cached rows");
    if (tally.rows_fm == 0) failures->push_back(label + " pooled check read no FM rows");
    if (tally.singleflight_hits == 0) {
      failures->push_back(label + " pooled check exercised no cross-request shared read");
    }
  }

  Options opts_;
  HostSimConfig cfg_;
  ModelConfig model_ = M2Shaped();
  HostSimulation sim_;
  uint64_t phases_ = 0;  ///< arrival streams drawn so far
  double build_wall_s_ = 0;
};

}  // namespace

std::unique_ptr<Instance> MakeHostRefreshInstance(const Options& opts, bool traced,
                                                  WallSpans& spans, std::string* error) {
  auto inst = std::make_unique<HostRefreshInstance>(opts, traced);
  if (Status s = inst->Load(spans); !s.ok()) {
    *error = "host load failed: " + s.ToString();
    return nullptr;
  }
  return inst;
}

}  // namespace sdmbench
