// Shared declarations of the SDM serving benchmark (see ../README.md).
//
// A run builds one workload instance per ROUND; a round serves one
// sub-seed of the run's seed. A replay of a sub-seed must repeat its
// virtual figures exactly; only the wall time of its serving phases
// differs. The first round runs on the instance whose construction is the
// timed cold set-up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace_io.h"

namespace sdmbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< traced artifacts (empty = none written)
};

/// Deterministic (virtual-time or count) figures of one round. Compared
/// with == across rounds and between traced and untraced instances.
struct VirtualResult {
  uint64_t requested = 0;  ///< queries the benchmark offered in the measured phases
  uint64_t completed = 0;  ///< finished OK (degraded ones included)
  /// Served (per the program's counts) but not completed OK, plus
  /// completed degraded (zero-filled rows).
  uint64_t failed = 0;
  uint64_t degraded = 0;
  double offered_qps = 0;   ///< whole workload (all hosts)
  double achieved_qps = 0;  ///< completed / virtual span, summed over hosts
  double p50_us = 0;
  double p99_us = 0;
  uint64_t device_reads = 0;  ///< physical SM device reads
  uint64_t bus_bytes = 0;     ///< SM device bus bytes (block amplification incl.)
  uint64_t useful_bytes = 0;
  uint64_t min_read_bytes = 0;  ///< smallest possible device read
  uint64_t singleflight_hits = 0;
  uint64_t cross_host_hits = 0;
  uint64_t sm_unique_bytes = 0;
  uint64_t sm_logical_bytes = 0;  ///< 0 = not applicable (no SM sharing)
  uint64_t sm_rows = 0;  ///< SM rows the lookups requested (0 = not observable)
  uint64_t events = 0;   ///< simulator events executed by the serving phases
  /// Queries each host admitted, as the program counts them.
  std::vector<uint64_t> served_per_host;
  /// Virtual per-layer figures (see README's layer table).
  std::map<std::string, double> layer;

  bool operator==(const VirtualResult&) const = default;
};

struct RoundResult {
  VirtualResult v;
  double serve_wall_s = 0;  ///< wall time inside the measured serving calls
  double build_wall_s = 0;  ///< wall time of the model-load call
  double refresh_wall_s = 0;  ///< wall time of the model refresh (0 = none)
  std::vector<std::string> failures;  ///< correctness-check failures
  /// Operations besides the queries that the round attempts and that fail
  /// every time from a known program fault (see README, known faults).
  /// They count in the run's `attempted` and `failed`, not in `failures`.
  uint64_t known_fault_ops = 0;
  uint64_t known_fault_ops_failed = 0;
  std::string known_fault_note;  ///< what the known-fault operation saw
  std::string obs_metrics_json;  ///< traced instances only
  std::string obs_trace_json;
  std::string obs_slo_json;
};

/// One freshly built workload instance (a cluster or a host).
class Instance {
 public:
  virtual ~Instance() = default;
  /// The measured serving phases plus the round's in-simulation checks.
  virtual RoundResult Serve(WallSpans& spans) = 0;
  /// Highest per-host offered rate whose p99 meets the workload SLO,
  /// bisected over short probes on this (already served) instance. A probe
  /// whose p99 rests on fewer than ten samples beyond it adds a failure.
  virtual double QpsAtSlo(WallSpans& spans, std::vector<std::string>* failures) = 0;
  /// Correctness checks that need a second simulation (run once per run).
  virtual std::vector<std::string> ExtraChecks(WallSpans& spans) { (void)spans; return {}; }
  /// Wall seconds of a standalone QueryGenerator making 1000 queries of
  /// this workload's model and seed.
  virtual double QueryGenSecondsPerKilo(WallSpans& spans) = 0;
};

/// Builds the named workload's instance (model load included; the name is
/// validated by the caller). `traced` switches on the program's src/obs
/// metrics and spans. Null + `error` on a failed load.
std::unique_ptr<Instance> MakeInstance(const Options& opts, bool traced, WallSpans& spans,
                                       std::string* error);

std::unique_ptr<Instance> MakeDisaggInstance(const Options& opts, bool sharded, bool traced,
                                             WallSpans& spans, std::string* error);
std::unique_ptr<Instance> MakeHostRefreshInstance(const Options& opts, bool traced,
                                                  WallSpans& spans, std::string* error);

/// Highest offered rate in [lo, hi] whose probe p99 (us) is within
/// `slo_us`: bisection for `iters` steps, then linear interpolation of the
/// p99 between the last passing and failing rates, so the result moves
/// continuously with the system instead of in bisection-sized steps.
/// 0 when even `lo` misses; `hi` when `hi` meets the SLO.
template <typename ProbeFn>
double BisectQps(double lo, double hi, int iters, double slo_us, ProbeFn&& probe_p99_us) {
  double p_lo = probe_p99_us(lo);
  if (p_lo > slo_us) return 0;
  double p_hi = probe_p99_us(hi);
  if (p_hi <= slo_us) return hi;
  for (int i = 0; i < iters; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double p = probe_p99_us(mid);
    if (p <= slo_us) {
      lo = mid;
      p_lo = p;
    } else {
      hi = mid;
      p_hi = p;
    }
  }
  return lo + (hi - lo) * (slo_us - p_lo) / (p_hi - p_lo);
}

/// Derives an independent sub-seed (splitmix64 finalizer).
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace sdmbench
