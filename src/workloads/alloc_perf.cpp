#include "workloads/alloc_perf.h"

#include "core/utils.h"

namespace gms::work {

AllocPerfSeries run_alloc_perf(gpu::Device& dev, core::MemoryManager& mgr,
                               const AllocPerfParams& params) {
  AllocPerfSeries series;
  const bool warp_only = mgr.traits().warp_level_only;
  const bool can_free =
      mgr.traits().supports_free && mgr.traits().individual_free;
  const bool mixed = params.size_max > params.size_min && params.size_max > 0;

  std::vector<void*> ptrs(params.num_allocs, nullptr);
  std::uint64_t failed = 0;

  auto pick_size = [&](std::uint32_t rank) {
    if (!mixed) return params.size;
    core::SplitMix64 rng(params.seed ^ (std::uint64_t{rank} * 0x9E3779B97F4Aull));
    return static_cast<std::size_t>(rng.range(params.size_min, params.size_max));
  };

  for (unsigned iter = 0; iter < params.iterations; ++iter) {
    // ---- allocation kernel ------------------------------------------------
    gpu::LaunchStats stats;
    if (params.warp_based) {
      // One allocating lane per warp: launch 32x threads, lane 0 acts.
      stats = dev.launch_n(
          params.num_allocs * gpu::kWarpSize,
          [&](gpu::ThreadCtx& t) {
            if (t.lane_id() != 0) return;
            const std::size_t idx = t.thread_rank() / gpu::kWarpSize;
            const std::size_t size = pick_size(static_cast<std::uint32_t>(idx));
            ptrs[idx] = warp_only ? mgr.warp_malloc(t, size)
                                  : mgr.malloc(t, size);
          },
          params.block_dim);
    } else {
      stats = dev.launch_n(
          params.num_allocs,
          [&](gpu::ThreadCtx& t) {
            const std::size_t size = pick_size(t.thread_rank());
            ptrs[t.thread_rank()] =
                warp_only ? mgr.warp_malloc(t, size) : mgr.malloc(t, size);
          },
          params.block_dim);
    }
    series.alloc_ms.push_back(stats.elapsed_ms);
    series.alloc_counters += stats.counters;
    series.alloc_round_counters.push_back(stats.counters);
    for (void*& p : ptrs) {
      if (p == nullptr) ++failed;
    }

    // ---- deallocation kernel ----------------------------------------------
    if (can_free) {
      gpu::LaunchStats fstats;
      if (params.warp_based) {
        fstats = dev.launch_n(
            params.num_allocs * gpu::kWarpSize,
            [&](gpu::ThreadCtx& t) {
              if (t.lane_id() != 0) return;
              mgr.free(t, ptrs[t.thread_rank() / gpu::kWarpSize]);
            },
            params.block_dim);
      } else {
        fstats = dev.launch_n(
            params.num_allocs,
            [&](gpu::ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); },
            params.block_dim);
      }
      series.free_ms.push_back(fstats.elapsed_ms);
      series.free_counters += fstats.counters;
    } else if (warp_only) {
      // FDGMalloc: only a warp's entire heap can be released.
      const auto fstats = dev.launch_n(
          params.warp_based ? params.num_allocs * gpu::kWarpSize
                            : params.num_allocs,
          [&](gpu::ThreadCtx& t) { mgr.warp_free_all(t); }, params.block_dim);
      series.free_ms.push_back(fstats.elapsed_ms);
      series.free_counters += fstats.counters;
    }
    std::fill(ptrs.begin(), ptrs.end(), nullptr);
  }
  series.failed_allocs = failed;
  return series;
}

}  // namespace gms::work
