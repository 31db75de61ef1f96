// Self-tests of the benchmark's aggregation and trace-scanning helpers.
// Plain checks that survive NDEBUG; exits 1 on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "agg.h"
#include "trace_io.h"

using namespace sdmbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  Expect(Near(Median({3, 1, 2}), 2), "median of odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median interpolates an even count");
  Expect(Near(Quantile({}, 0.5), 0), "empty input gives 0");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  Expect(Near(Quantile(v, 0.99), 100), "p99 of 1..101");
  Expect(Near(Quantile(v, 0.0), 1) && Near(Quantile(v, 1.0), 101), "quantile ends");
}

void TestTailRule() {
  // The reported tail percentile needs at least ten samples beyond it.
  Expect(!TailSupported(999, 0.99), "999 samples do not support p99");
  Expect(TailSupported(1000, 0.99), "1000 samples support p99");
  Expect(SamplesBeyond(2500, 0.99) == 25, "2500 samples leave 25 beyond p99");
}

void TestPerQuery() {
  // Ratios divide by completed queries, never attempted ones.
  Expect(Near(PerQuery(300, 100), 3), "per-query ratio");
  Expect(Near(PerQuery(300, 0), 0), "no completed query gives 0");
  const Segment segs[] = {{100, 1}, {200, 3}};
  Expect(Near(WeightedMean(segs), 175), "sample-weighted mean of segment percentiles");
  Expect(Near(PercentChange(2, 3), 50), "percent change");
}

void TestScanners() {
  const std::string metrics =
      "{\"interval_ns\":1000000,\"series\":["
      "{\"name\":\"host0/lookup/sm_rows\",\"kind\":\"counter\",\"points\":[[0,5],[1000000,7]]},"
      "{\"name\":\"host0/lookup/latency_ns\",\"kind\":\"hist\",\"points\":[[0,1,2,3,4,5,6]]},"
      "{\"name\":\"host1/lookup/sm_rows\",\"kind\":\"counter\",\"points\":[[0,11]]}]}";
  Expect(Near(SumCounterSeries(metrics, "/lookup/sm_rows"), 23), "counter series summed over hosts");
  Expect(Near(SumCounterSeries(metrics, "/lookup/latency_ns"), 0), "histograms are not counters");
  const std::string trace =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"b\",\"cat\":\"sdm\",\"id\":\"0x1\",\"pid\":1,\"tid\":1,\"ts\":10.000,"
      "\"name\":\"lookup\",\"args\":{\"rows\":3}},"
      "{\"ph\":\"b\",\"cat\":\"sdm\",\"id\":\"0x2\",\"pid\":1,\"tid\":2,\"ts\":11.000,\"name\":\"query\"},"
      "{\"ph\":\"e\",\"cat\":\"sdm\",\"id\":\"0x1\",\"pid\":1,\"tid\":1,\"ts\":12.500,\"name\":\"lookup\"},"
      "{\"ph\":\"e\",\"cat\":\"sdm\",\"id\":\"0x2\",\"pid\":1,\"tid\":2,\"ts\":20.000,\"name\":\"query\"}]}";
  const std::vector<double> lk = SpanDurationsUs(trace, "lookup");
  Expect(lk.size() == 1 && Near(lk[0], 2.5), "lookup span duration");
  const std::vector<double> q = SpanDurationsUs(trace, "query");
  Expect(q.size() == 1 && Near(q[0], 9), "query span duration");
}

}  // namespace

int main() {
  TestQuantiles();
  TestTailRule();
  TestPerQuery();
  TestScanners();
  if (g_failures == 0) std::printf("sdmbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
