// Pooled-output correctness gate: the benchmark drives lookups itself
// through a LookupEngine and compares every pooled output with the sum of
// the dequantized rows it computes on its own — from the table images it
// generates (load-time contents) or from the bytes the FM/SM tier holds
// (after an in-place refresh).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lookup_engine.h"
#include "core/sdm_store.h"
#include "embedding/table_config.h"

namespace sdmbench {

/// One lookup to check: which engine serves it, the request, and the
/// pooled sum the benchmark expects.
struct LookupCase {
  sdm::LookupEngine* engine = nullptr;
  sdm::LookupRequest request;
  std::vector<float> expected;
};

/// What a batch of checked lookups exercised, and what went wrong.
struct CheckTally {
  uint64_t lookups = 0;
  uint64_t rows_sm = 0;
  uint64_t rows_cache = 0;
  uint64_t rows_fm = 0;
  uint64_t singleflight_hits = 0;
  std::vector<std::string> failures;
};

/// Row values exactly as ModelLoader stores them: table `index` of the
/// model is generated from `loader_seed`, quantized, then dequantized here.
std::vector<float> GeneratedRow(const sdm::TableConfig& config, uint64_t loader_seed,
                                size_t index, sdm::RowIndex row);

/// Row values from the bytes the table's tier holds now.
std::vector<float> TierRow(sdm::SdmStore& store, size_t index, sdm::RowIndex row);

/// Sum of `rows` of a row source.
template <typename RowFn>
std::vector<float> PooledSum(uint32_t dim, const std::vector<sdm::RowIndex>& rows,
                             RowFn&& row_values) {
  std::vector<float> acc(dim, 0.0f);
  for (const sdm::RowIndex r : rows) {
    const std::vector<float> v = row_values(r);
    for (uint32_t d = 0; d < dim; ++d) acc[d] += v[d];
  }
  return acc;
}

/// Submits every case at the loop's current instant, runs `loop` to idle,
/// and tallies coverage and mismatches into `tally`.
void RunCases(std::vector<LookupCase>& cases, sdm::EventLoop* loop, const std::string& label,
              CheckTally* tally);

}  // namespace sdmbench
