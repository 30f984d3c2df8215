#pragma once

#include <vector>

#include "core/memory_manager.h"
#include "core/result_table.h"
#include "gpu/device.h"

namespace gms::work {

/// Parameters for the §4.2 allocation-performance test cases.
struct AllocPerfParams {
  std::size_t num_allocs = 10'000;
  std::size_t size = 16;      ///< fixed allocation size...
  std::size_t size_min = 0;   ///< ...or uniform in [size_min, size_max]
  std::size_t size_max = 0;   ///<    when size_max > 0 (mixed case, Fig. 9h)
  bool warp_based = false;    ///< one lane per warp allocates (Fig. 9g)
  unsigned iterations = 5;    ///< alloc/free rounds (re-use shows up here)
  unsigned block_dim = 256;
  std::uint64_t seed = 0x5EED;
};

/// Timings of repeated rounds of (allocate everything, free everything).
struct AllocPerfSeries {
  std::vector<double> alloc_ms;
  std::vector<double> free_ms;
  std::uint64_t failed_allocs = 0;
  gpu::StatsCounters alloc_counters;  ///< accumulated over all rounds
  gpu::StatsCounters free_counters;
  /// The allocation kernel's counters per round, in round order: far
  /// steadier run to run than alloc_ms, so rounds' work can be compared.
  std::vector<gpu::StatsCounters> alloc_round_counters;

  [[nodiscard]] core::TimingSummary alloc_summary() const {
    return core::TimingSummary::of(alloc_ms);
  }
  [[nodiscard]] core::TimingSummary free_summary() const {
    return core::TimingSummary::of(free_ms);
  }
};

/// Runs the paper's allocation-performance loop: every "thread" obtains one
/// allocation, the kernel time is recorded, then everything is freed in a
/// second timed kernel. Warp-level-only managers (FDGMalloc) go through
/// warp_malloc / warp_free_all automatically.
AllocPerfSeries run_alloc_perf(gpu::Device& dev, core::MemoryManager& mgr,
                               const AllocPerfParams& params);

}  // namespace gms::work
