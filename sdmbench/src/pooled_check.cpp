#include "pooled_check.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "embedding/embedding_table.h"
#include "embedding/quantization.h"

namespace sdmbench {

using namespace sdm;

std::vector<float> GeneratedRow(const TableConfig& config, uint64_t loader_seed, size_t index,
                                RowIndex row) {
  // ModelLoader's per-table image seed.
  const uint64_t table_seed = loader_seed ^ (0xabcdef12345678ULL * (index + 1));
  const std::vector<float> values =
      EmbeddingTableImage::ReferenceRowValues(config, table_seed, row);
  std::vector<uint8_t> stored(config.row_bytes());
  QuantizeRow(config.dtype, values, stored);
  std::vector<float> out(config.dim);
  DequantizeRow(config.dtype, stored, out);
  return out;
}

std::vector<float> TierRow(SdmStore& store, size_t index, RowIndex row) {
  const TableRuntime& t = store.table(MakeTableId(static_cast<uint32_t>(index)));
  const Bytes rb = t.config.row_bytes();
  const Bytes off = t.offset + row * rb;
  std::span<const uint8_t> bytes;
  if (t.tier == MemoryTier::kSm) {
    bytes = store.sm_device(t.sm_device).backing().subspan(off, rb);
  } else {
    auto view = store.fm().View(off, rb);
    if (view.ok()) bytes = view.value();
  }
  std::vector<float> out(t.config.dim, 0.0f);
  if (bytes.size() == rb) DequantizeRow(t.config.dtype, bytes, out);
  return out;
}

void RunCases(std::vector<LookupCase>& cases, EventLoop* loop, const std::string& label,
              CheckTally* tally) {
  struct Outcome {
    bool done = false;
    Status status;
    std::vector<float> pooled;
    LookupTrace trace;
  };
  auto outcomes = std::make_shared<std::vector<Outcome>>(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    cases[i].engine->Lookup(cases[i].request,
                            [outcomes, i](Status s, std::vector<float> pooled,
                                          const LookupTrace& trace) {
                              Outcome& o = (*outcomes)[i];
                              o.done = true;
                              o.status = std::move(s);
                              o.pooled = std::move(pooled);
                              o.trace = trace;
                            });
  }
  loop->RunUntilIdle();
  for (size_t i = 0; i < cases.size(); ++i) {
    const Outcome& o = (*outcomes)[i];
    char where[96];
    std::snprintf(where, sizeof(where), "%s lookup %zu (table %u)", label.c_str(), i,
                  static_cast<unsigned>(Raw(cases[i].request.table)));
    ++tally->lookups;
    if (!o.done || !o.status.ok()) {
      tally->failures.push_back(std::string(where) + ": did not complete OK");
      continue;
    }
    if (o.trace.degraded || o.trace.rows_failed > 0) {
      tally->failures.push_back(std::string(where) + ": completed degraded");
    }
    tally->rows_sm += o.trace.rows_from_sm;
    tally->rows_cache += o.trace.rows_from_cache;
    tally->rows_fm += o.trace.rows_from_fm_direct;
    tally->singleflight_hits += o.trace.singleflight_hits;
    const std::vector<float>& want = cases[i].expected;
    if (o.pooled.size() != want.size()) {
      tally->failures.push_back(std::string(where) + ": pooled width differs");
      continue;
    }
    for (size_t d = 0; d < want.size(); ++d) {
      if (std::fabs(o.pooled[d] - want[d]) > 1e-4f * (1.0f + std::fabs(want[d]))) {
        char msg[160];
        std::snprintf(msg, sizeof(msg), ": element %zu is %.6f, reference %.6f", d,
                      static_cast<double>(o.pooled[d]), static_cast<double>(want[d]));
        tally->failures.push_back(std::string(where) + msg);
        break;
      }
    }
  }
}

}  // namespace sdmbench
