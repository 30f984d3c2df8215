#include <gtest/gtest.h>

#include <algorithm>

#include "core/registry.h"
#include "workloads/alloc_perf.h"
#include "workloads/fragmentation.h"
#include "workloads/workgen.h"

namespace gms::work {
namespace {

using core::Registry;
using gpu::Device;
using gpu::GpuConfig;

Device& dev() {
  static Device device(128u << 20, GpuConfig{.num_sms = 4});
  return device;
}

std::unique_ptr<core::MemoryManager> make(const std::string& name,
                                          std::size_t heap = 96u << 20) {
  core::register_all_allocators();
  return Registry::instance().make(name, dev(), heap);
}

TEST(AllocPerf, ProducesOneTimingPerIteration) {
  auto mgr = make("ScatterAlloc");
  AllocPerfParams params;
  params.num_allocs = 2'000;
  params.size = 64;
  params.iterations = 4;
  const auto series = run_alloc_perf(dev(), *mgr, params);
  EXPECT_EQ(series.alloc_ms.size(), 4u);
  EXPECT_EQ(series.free_ms.size(), 4u);
  EXPECT_EQ(series.failed_allocs, 0u);
  for (double ms : series.alloc_ms) EXPECT_GT(ms, 0.0);
}

TEST(AllocPerf, WarpBasedLaunchesOneAllocPerWarp) {
  auto mgr = make("Halloc");
  AllocPerfParams params;
  params.num_allocs = 512;
  params.size = 128;
  params.warp_based = true;
  params.iterations = 2;
  const auto series = run_alloc_perf(dev(), *mgr, params);
  EXPECT_EQ(series.failed_allocs, 0u);
}

TEST(AllocPerf, MixedSizesDeterministicAcrossManagers) {
  // The identical request stream must reach every manager (same seed).
  AllocPerfParams params;
  params.num_allocs = 1'000;
  params.size_min = 4;
  params.size_max = 1024;
  params.iterations = 1;
  for (const char* name : {"ScatterAlloc", "Ouro-P-S", "CUDA"}) {
    auto mgr = make(name);
    const auto series = run_alloc_perf(dev(), *mgr, params);
    EXPECT_EQ(series.failed_allocs, 0u) << name;
  }
}

TEST(AllocPerf, ReuseRoundsFasterOrEqualOnAverageForQueues) {
  // Ouroboros: re-use is "drastically faster than allocating from an empty
  // queue initially" (§5) — iteration 0 pays the chunk splits, enqueueing
  // every page of each fresh chunk; later rounds only dequeue. Judged on
  // device atomics (about 1.6x more in round 0, measured), not on one
  // kernel's wall time, which swings more than that on a loaded host.
  auto mgr = make("Ouro-P-S");
  AllocPerfParams params;
  params.num_allocs = 8'192;
  params.size = 32;
  params.iterations = 5;
  const auto series = run_alloc_perf(dev(), *mgr, params);
  ASSERT_EQ(series.alloc_round_counters.size(), params.iterations);
  std::vector<std::uint64_t> later;
  for (std::size_t r = 1; r < series.alloc_round_counters.size(); ++r) {
    later.push_back(series.alloc_round_counters[r].atomic_total());
  }
  std::sort(later.begin(), later.end());
  const std::uint64_t first =
      series.alloc_round_counters.front().atomic_total();
  EXPECT_GT(first, later[later.size() / 2])
      << "round 0 must do more work than the median re-use round";
}

TEST(Fragmentation, AtomicBaselineIsDense) {
  auto mgr = make("Atomic");
  const auto r = run_fragmentation(dev(), *mgr, 4'096, 64, 1);
  EXPECT_EQ(r.failed, 0u);
  // A bump allocator is the theoretical optimum.
  EXPECT_EQ(r.first_round_range, r.theoretical);
}

TEST(Fragmentation, RangeAtLeastTheoretical) {
  for (const char* name : {"ScatterAlloc", "Halloc", "Ouro-P-S", "CUDA"}) {
    auto mgr = make(name);
    const auto r = run_fragmentation(dev(), *mgr, 4'096, 64, 2);
    EXPECT_EQ(r.failed, 0u) << name;
    EXPECT_GE(r.max_range, r.theoretical) << name;
  }
}

TEST(Fragmentation, OuroborosTighterThanCuda) {
  // Fig. 11a: Ouroboros stays close to the baseline; the CUDA allocator
  // reports back (nearly) the maximum possible range.
  auto ouro = make("Ouro-P-S");
  const auto r_ouro = run_fragmentation(dev(), *ouro, 8'192, 64, 2);
  auto cuda = make("CUDA");
  const auto r_cuda = run_fragmentation(dev(), *cuda, 8'192, 64, 2);
  EXPECT_LT(r_ouro.max_range, r_cuda.max_range);
}

TEST(Oom, BumpAllocatorReachesFullUtilisation) {
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto mgr = Registry::instance().make("Atomic", small, 16u << 20);
  const auto r = run_oom(small, *mgr, 1'000, 64, 16u << 20, 30.0);
  EXPECT_GT(r.percent_of_baseline(), 95.0);
  EXPECT_FALSE(r.timed_out);
}

TEST(Oom, OuroborosHighUtilisation) {
  // The virtualized variants carry almost no static queue cost — the design
  // goal behind Fig. 11b's 98 % utilisation.
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto mgr = Registry::instance().make("Ouro-P-VA", small, 16u << 20);
  const auto r = run_oom(small, *mgr, 1'000, 64, 16u << 20, 60.0);
  EXPECT_GT(r.percent_of_baseline(), 75.0);
}

TEST(Oom, VirtualizedBeatsStandardOnSmallHeaps) {
  // Ouro-S must pre-reserve ring storage; Ouro-VA grows its queues on the
  // chunks it manages. On a tight heap the virtualized design wins memory.
  Device small(24u << 20, GpuConfig{.num_sms = 2});
  core::register_all_allocators();
  auto standard = Registry::instance().make("Ouro-P-S", small, 16u << 20);
  const auto r_s = run_oom(small, *standard, 1'000, 64, 16u << 20, 60.0);
  auto virt = Registry::instance().make("Ouro-P-VA", small, 16u << 20);
  const auto r_v = run_oom(small, *virt, 1'000, 64, 16u << 20, 60.0);
  EXPECT_GE(r_v.achieved, r_s.achieved);
}

TEST(WorkGen, ManagerAndBaselineAgreeOnChecksum) {
  auto mgr = make("ScatterAlloc");
  const auto with_mgr = run_workgen(dev(), *mgr, 4'096, 4, 64, 42);
  std::vector<std::byte> scratch;
  const auto baseline = run_workgen_baseline(dev(), scratch, 4'096, 4, 64, 42);
  EXPECT_EQ(with_mgr.failed, 0u);
  EXPECT_EQ(with_mgr.checksum, baseline.checksum);
  EXPECT_GT(with_mgr.total_ms, 0.0);
  EXPECT_GT(baseline.total_ms, 0.0);
}

TEST(WorkGen, LargeRangeChecksumAgreement) {
  auto mgr = make("Ouro-P-S");
  const auto with_mgr = run_workgen(dev(), *mgr, 2'048, 4, 4'096, 7);
  std::vector<std::byte> scratch;
  const auto baseline =
      run_workgen_baseline(dev(), scratch, 2'048, 4, 4'096, 7);
  EXPECT_EQ(with_mgr.failed, 0u);
  EXPECT_EQ(with_mgr.checksum, baseline.checksum);
}

TEST(AccessPerf, BaselineIsCoalesced) {
  auto mgr = make("CUDA");
  const auto r = run_access_perf(dev(), *mgr, 4'096, 16, 128, 99);
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GT(r.baseline_transactions, 0u);
  // Per-thread blocks can never beat the dense SoA layout.
  EXPECT_GE(r.transaction_ratio(), 1.0);
}

TEST(AccessPerf, OuroborosCloserToBaselineThanCuda) {
  // Fig. 11e: Ouroboros stays closest to the coalesced baseline; CUDA shows
  // poor access times (its 32 B headers misalign neighbouring payloads).
  auto ouro = make("Ouro-P-S");
  const auto r_ouro = run_access_perf(dev(), *ouro, 4'096, 16, 128, 99);
  auto cuda = make("CUDA");
  const auto r_cuda = run_access_perf(dev(), *cuda, 4'096, 16, 128, 99);
  EXPECT_LE(r_ouro.transaction_ratio(), r_cuda.transaction_ratio());
}

}  // namespace
}  // namespace gms::work
