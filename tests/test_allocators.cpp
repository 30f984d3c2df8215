// White-box tests of allocator-specific mechanisms: each checks a design
// element the survey calls out for that approach.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "allocators/atomic_alloc.h"
#include "allocators/cuda_standin.h"
#include "allocators/fdg_malloc.h"
#include "allocators/halloc.h"
#include "allocators/ouroboros.h"
#include "allocators/reg_eff.h"
#include "allocators/scatter_alloc.h"
#include "allocators/xmalloc.h"
#include "core/registry.h"
#include "core/validating_manager.h"

namespace gms::alloc {
namespace {

using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

Device& dev() {
  static Device device(128u << 20, GpuConfig{.num_sms = 4});
  return device;
}
constexpr std::size_t kHeap = 96u << 20;

template <typename Manager, typename... Args>
std::unique_ptr<Manager> fresh(Args&&... args) {
  dev().arena().clear();
  return std::make_unique<Manager>(dev(), kHeap, std::forward<Args>(args)...);
}

// ---- Atomic baseline ---------------------------------------------------------

TEST(AtomicAlloc, BumpsMonotonically) {
  auto mgr = fresh<AtomicAlloc>();
  void* a = nullptr;
  void* b = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    a = mgr->malloc(t, 40);
    b = mgr->malloc(t, 8);
  });
  EXPECT_EQ(static_cast<std::byte*>(b) - static_cast<std::byte*>(a), 48)
      << "40 rounds to 48 (16 B granularity), then the next block follows";
}

TEST(AtomicAlloc, RollsBackOnExhaustion) {
  Device small(1u << 20, GpuConfig{.num_sms = 1});
  AtomicAlloc mgr(small, 64 * 1024);
  std::uint32_t large_fails = 0;
  void* after = nullptr;
  small.launch(1, 1, [&](ThreadCtx& t) {
    if (mgr.malloc(t, 1u << 20) == nullptr) ++large_fails;
    after = mgr.malloc(t, 64);  // must still succeed post-rollback
  });
  EXPECT_EQ(large_fails, 1u);
  EXPECT_NE(after, nullptr);
}

// ---- CUDA stand-in ------------------------------------------------------------

TEST(CudaStandin, UnitStaircaseInAddresses) {
  auto mgr = fresh<CudaStandin>();
  // Sizes within one 128 B unit consume identical footprints.
  std::size_t off40 = 0, off80 = 0, off200 = 0;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    auto* a = mgr->malloc(t, 40);   // header + 40 <= 128 -> 1 unit
    auto* b = mgr->malloc(t, 80);   // header + 80 <= 128 -> 1 unit
    auto* c = mgr->malloc(t, 200);  // 2 units
    auto* d = mgr->malloc(t, 8);
    off40 = static_cast<std::byte*>(b) - static_cast<std::byte*>(a);
    off80 = static_cast<std::byte*>(c) - static_cast<std::byte*>(b);
    off200 = static_cast<std::byte*>(d) - static_cast<std::byte*>(c);
  });
  EXPECT_EQ(off40, 128u);
  EXPECT_EQ(off80, 128u);
  EXPECT_EQ(off200, 256u);
}

TEST(CudaStandin, SplitBeforeTwoKiB) {
  // Payloads below/above the 2048 B boundary live in different regions.
  auto mgr = fresh<CudaStandin>();
  void* below = nullptr;
  void* above = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    below = mgr->malloc(t, 1900);
    above = mgr->malloc(t, 2100);
  });
  const auto gap = std::abs(static_cast<std::byte*>(above) -
                            static_cast<std::byte*>(below));
  EXPECT_GT(static_cast<std::size_t>(gap), 4u << 20)
      << "the two unit regions are megabytes apart";
}

TEST(CudaStandin, FreeMakesUnitsReusable) {
  // 40'000 alloc/free cycles of 100 B through a region that holds only
  // ~13'000 units: without reclamation the rotating first-fit would starve.
  Device small(8u << 20, GpuConfig{.num_sms = 2});
  CudaStandin mgr(small, 4u << 20);
  std::uint32_t failures = 0;
  small.launch(1, 1, [&](ThreadCtx& t) {
    for (int i = 0; i < 40'000; ++i) {
      void* p = mgr.malloc(t, 100);
      if (p == nullptr) {
        ++failures;
        break;
      }
      mgr.free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

// ---- ScatterAlloc --------------------------------------------------------------

TEST(ScatterAlloc, PageChunkSizeSetAtFirstAllocation) {
  auto mgr = fresh<ScatterAlloc>();
  void* p = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) { p = mgr->malloc(t, 100); });
  ASSERT_NE(p, nullptr);
  std::size_t page_with_112 = ~std::size_t{0};
  for (std::size_t page = 0; page < mgr->num_pages(); ++page) {
    if (mgr->page_chunk_size(page) == 112) page_with_112 = page;  // 100 -> 112
  }
  ASSERT_NE(page_with_112, ~std::size_t{0});
  EXPECT_EQ(mgr->page_count(page_with_112), 1u);
}

TEST(ScatterAlloc, PageReleasedWhenAllChunksFreed) {
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(64);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 256);
  });
  auto assigned_pages = [&] {
    std::size_t count = 0;
    for (std::size_t page = 0; page < mgr->num_pages(); ++page) {
      if (mgr->page_chunk_size(page) != 0) ++count;
    }
    return count;
  };
  const auto before = assigned_pages();
  EXPECT_GT(before, 0u);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    mgr->free(t, ptrs[t.thread_rank()]);
  });
  EXPECT_EQ(assigned_pages(), 0u) << "empty pages must reopen for any size";
}

TEST(ScatterAlloc, HierarchicalPagesServeSmallChunks) {
  // 16 B chunks -> 248 per page: needs the on-page second hierarchy level.
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(300, nullptr);
  dev().launch_n(300, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 16);
  });
  std::set<std::size_t> pages;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    pages.insert(dev().arena().offset_of(p) / 4096);
  }
  // 300 chunks at 248/page need >= 2 pages; the warp-scattered hash spreads
  // them over roughly one page per requesting warp (10 warps here) — the
  // scattering-vs-fragmentation trade-off §5 points out.
  EXPECT_GE(pages.size(), 2u);
  EXPECT_LE(pages.size(), 16u);
}

TEST(ScatterAlloc, MultiPagePathForLargeRequests) {
  auto mgr = fresh<ScatterAlloc>();
  std::vector<void*> ptrs(16, nullptr);
  dev().launch(1, 16, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 8000);  // > half page
  });
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  for (std::size_t i = 1; i < offs.size(); ++i) {
    EXPECT_GE(offs[i] - offs[i - 1], 8000u);
  }
  // And they must be freeable.
  dev().launch(1, 16, [&](ThreadCtx& t) {
    mgr->free(t, ptrs[t.thread_rank()]);
  });
}

// ---- Reg-Eff -------------------------------------------------------------------

class RegEffVariants : public ::testing::TestWithParam<RegEffAlloc::Config> {};

TEST_P(RegEffVariants, SplitThenMergeRestoresChunkCount) {
  dev().arena().clear();
  RegEffAlloc mgr(dev(), kHeap, GetParam());
  std::size_t before = 0, during = 0, after = 0;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    before = mgr.count_free_chunks(t);
    void* a = mgr.malloc(t, 100);
    void* b = mgr.malloc(t, 100);
    during = mgr.count_free_chunks(t);
    mgr.free(t, b);  // free b first: merges with the free remainder
    mgr.free(t, a);
    after = mgr.count_free_chunks(t);
  });
  EXPECT_GT(before, 0u);
  EXPECT_LE(during, before + 2);
  // Merge-on-free keeps the chunk count from growing monotonically.
  EXPECT_LE(after, before + 2);
}

TEST_P(RegEffVariants, ChurnDoesNotLeak) {
  dev().arena().clear();
  RegEffAlloc mgr(dev(), 8u << 20, GetParam());
  std::uint32_t failures = 0;
  dev().launch_n(256, [&](ThreadCtx& t) {
    for (int i = 0; i < 16; ++i) {
      void* p = mgr.malloc(t, 48);
      if (p == nullptr) {
        t.atomic_add(&failures, 1u);
        continue;
      }
      mgr.free(t, p);
    }
  });
  EXPECT_EQ(failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFour, RegEffVariants,
    ::testing::Values(RegEffAlloc::Config{.fused = false, .multi = false},
                      RegEffAlloc::Config{.fused = true, .multi = false},
                      RegEffAlloc::Config{.fused = false, .multi = true},
                      RegEffAlloc::Config{.fused = true, .multi = true}),
    [](const auto& info) {
      return std::string(info.param.fused ? "Fused" : "Plain") +
             (info.param.multi ? "Multi" : "Single");
    });

// ---- Halloc -------------------------------------------------------------------

TEST(Halloc, BlocksCarryNoHeaders) {
  auto mgr = fresh<Halloc>();
  std::vector<void*> ptrs(8, nullptr);
  dev().launch(1, 8, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 32);
  });
  // Headerless blocks: pointers are pure index arithmetic — 32 B apart
  // (modulo the hash scatter) inside a single 2 MiB slab.
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  EXPECT_LT(offs.back() - offs.front(), 2u << 20) << "one head slab";
  for (const std::size_t off : offs) {
    EXPECT_EQ((off - offs.front()) % 32, 0u)
        << "block positions are pure index arithmetic";
  }
}

TEST(Halloc, LargeRequestsRelayToCuda) {
  auto mgr = fresh<Halloc>();
  void* small = nullptr;
  void* large = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    small = mgr->malloc(t, 1024);
    large = mgr->malloc(t, 4096);  // > 3 KiB -> CUDA section
    mgr->free(t, large);
    mgr->free(t, small);
  });
  ASSERT_NE(large, nullptr);
  const auto gap = std::abs(static_cast<std::byte*>(large) -
                            static_cast<std::byte*>(small));
  EXPECT_GT(static_cast<std::size_t>(gap), 8u << 20)
      << "relayed block lives in the separate CUDA section";
}

TEST(Halloc, EmptySlabSwitchesSizeClass) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  Halloc mgr(small, 12u << 20,
             Halloc::Config{.slab_bytes = 1u << 20, .relay_percent = 20});
  // Fill one slab's worth of 16 B blocks, free them, then allocate 2048 B:
  // with only a handful of slabs the freed slab must be recycled.
  constexpr std::size_t kN = 1'024;
  std::vector<void*> ptrs(kN);
  small.launch_n(kN, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  small.launch_n(kN, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  std::uint32_t failures = 0;
  small.launch_n(kN, [&](ThreadCtx& t) {
    if (mgr.malloc(t, 2048) == nullptr) t.atomic_add(&failures, 1u);
  });
  // 1024 x 2 KiB = 2 MiB needs several slabs including recycled ones.
  EXPECT_EQ(failures, 0u);
}

// ---- XMalloc -------------------------------------------------------------------

TEST(XMalloc, BasicblocksComeFromSuperblocks) {
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  std::vector<void*> ptrs(64, nullptr);
  dev().launch(1, 64, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr->malloc(t, 64);
  });
  // 64 allocations of one class = exactly 2 Superblocks of 32 Basicblocks;
  // blocks within one superblock are 16 B header + 64 B payload apart.
  std::vector<std::size_t> offs;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    offs.push_back(dev().arena().offset_of(p));
  }
  std::sort(offs.begin(), offs.end());
  std::size_t stride_80 = 0;
  for (std::size_t i = 1; i < offs.size(); ++i) {
    if (offs[i] - offs[i - 1] == 80) ++stride_80;
  }
  EXPECT_GE(stride_80, 60u) << "within-superblock stride is 80 B";
}

TEST(XMalloc, FreedBlocksRecycleThroughFifo) {
  // The first-level buffer is a FIFO: a freed Basicblock re-enters at the
  // back and resurfaces after the 31 sibling blocks of its Superblock.
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  void* first = nullptr;
  bool resurfaced = false;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    first = mgr->malloc(t, 128);
    mgr->free(t, first);
    for (int i = 0; i < 32 && !resurfaced; ++i) {
      resurfaced = mgr->malloc(t, 128) == first;
    }
  });
  EXPECT_TRUE(resurfaced);
}

TEST(XMalloc, LargePathUsesMemoryblockList) {
  auto mgr = fresh<XMalloc>(XMalloc::Config{});
  void* a = nullptr;
  void* b = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    a = mgr->malloc(t, 100'000);
    b = mgr->malloc(t, 100'000);
    mgr->free(t, a);
    mgr->free(t, b);
    // After both frees the blocks merge; a bigger allocation must fit.
    void* big = mgr->malloc(t, 150'000);
    EXPECT_NE(big, nullptr);
    mgr->free(t, big);
  });
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
}

// The two sides of the ListHeap exhaustion verdict (list_heap.h): a fitting
// block held mid-split must be retried, a fitting block held by a finished
// allocation must not.

TEST(XMalloc, LargeRequestStormOnMostlyFreeHeapNeverFails) {
  // 1024 lanes at 2 SMs ask for more than the top class (4 KiB), so every
  // request walks the Memoryblock list and the tail block is claimed nearly
  // continuously by rotating mid-split winners. 1024 x 8 KiB fills a quarter
  // of the heap: any nullptr here is a spurious OOM.
  Device storm_dev(40u << 20, GpuConfig{.num_sms = 2});
  constexpr std::size_t kLanes = 1'024;
  std::size_t nulls = 0;
  for (int launch = 0; launch < 24; ++launch) {
    storm_dev.arena().clear();
    XMalloc mgr(storm_dev, 32u << 20, XMalloc::Config{});
    std::vector<void*> ptrs(kLanes, nullptr);
    storm_dev.launch_n(kLanes, [&](ThreadCtx& t) {
      ptrs[t.thread_rank()] = mgr.malloc(t, 8'192);
    });
    nulls += static_cast<std::size_t>(
        std::count(ptrs.begin(), ptrs.end(), nullptr));
  }
  EXPECT_EQ(nulls, 0u);
}

struct ExhaustionFill {
  std::size_t bytes = 0;          ///< handed out before the heap ran dry
  std::size_t failed = 0;         ///< mallocs that returned nullptr
  std::uint64_t atomics = 0;      ///< device atomics of the fill kernel
  std::uint64_t list_blocks = 0;  ///< Memoryblock list length afterwards
  /// Device atomics of one more 4 KiB malloc from one lane after the fill.
  std::uint64_t failed_malloc_atomics = 0;
};

/// near_oom's fill at 1 SM (deterministic interleaving): 1024 lanes each ask
/// for up to heap/1 MiB 4 KiB blocks (4x the heap in all) from
/// validate>XMalloc — the +V redzones push every request past the top class
/// onto the list — and stop at their first nullptr.
ExhaustionFill fill_validated_xmalloc(std::size_t heap_bytes = 4u << 20) {
  core::register_all_allocators();
  Device one_sm(2 * heap_bytes, GpuConfig{.num_sms = 1});
  auto mgr = core::Registry::instance().make("XMalloc+V", one_sm, heap_bytes);
  constexpr std::size_t kLanes = 1'024;
  const std::size_t per_lane = heap_bytes >> 20;
  constexpr std::size_t kBytes = 4'096;
  std::vector<void*> ptrs(kLanes * per_lane, nullptr);
  const auto stats = one_sm.launch_n(kLanes, [&](ThreadCtx& t) {
    for (std::size_t i = 0; i < per_lane; ++i) {
      void*& p = ptrs[t.thread_rank() * per_lane + i];
      p = mgr->malloc(t, kBytes);
      if (p == nullptr) break;
    }
  });
  ExhaustionFill fill;
  fill.atomics = stats.counters.atomic_total();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto first =
        ptrs.begin() + static_cast<std::ptrdiff_t>(lane * per_lane);
    const auto got = static_cast<std::size_t>(
        std::find(first, first + per_lane, nullptr) - first);
    fill.bytes += got * kBytes;
    if (got < per_lane) ++fill.failed;
  }
  fill.list_blocks = dynamic_cast<core::ValidatingManager&>(*mgr)
                         .inner()
                         .audit()
                         .structures_walked;
  void* extra = nullptr;
  fill.failed_malloc_atomics =
      one_sm.launch_n(1, [&](ThreadCtx& t) { extra = mgr->malloc(t, kBytes); })
          .counters.atomic_total();
  ptrs.push_back(extra);
  one_sm.launch_n(ptrs.size(), [&](ThreadCtx& t) {
    if (ptrs[t.thread_rank()] != nullptr) {
      mgr->free(t, ptrs[t.thread_rank()]);
    }
  });
  return fill;
}

TEST(XMalloc, ExhaustionCostsAFewListWalksPerFailedMalloc) {
  const ExhaustionFill fill = fill_validated_xmalloc();
  ASSERT_GT(fill.failed, 0u) << "4x the heap must run it dry";
  ASSERT_GT(fill.list_blocks, 0u);
  // A walk visits every block with three atomic loads: start bit, link and
  // allocated bit (every block on a full list fits the request). A failing
  // lane reads the free-span counter and stops without a walk, so what is
  // left is the successful mallocs' share of walking (0.4 walks in all).
  // Spending the fruitless-pass budget on every failure cost 8.4 walks, and
  // retrying finished allocations for the contended budget 256.
  constexpr std::uint64_t kAtomicsPerVisitedBlock = 3;
  const double walks_per_failure =
      static_cast<double>(fill.atomics) /
      static_cast<double>(fill.failed) /
      static_cast<double>(fill.list_blocks * kAtomicsPerVisitedBlock);
  EXPECT_LE(walks_per_failure, 1.0)
      << fill.atomics << " atomics, " << fill.failed << " failures, "
      << fill.list_blocks << " blocks";
}

TEST(XMalloc, FailedMallocOnAFullHeapCostsConstantAtomics) {
  // With the heap full, the free-span counter proves no block fits: the
  // failing malloc reads it once (measured: 1 atomic in all) and its cost
  // must not grow with the list (4.8x more blocks on the larger heap).
  constexpr std::uint64_t kMaxAtomics = 4;
  const ExhaustionFill small = fill_validated_xmalloc(4u << 20);
  const ExhaustionFill large = fill_validated_xmalloc(16u << 20);
  ASSERT_GT(large.list_blocks, 3 * small.list_blocks);
  EXPECT_LE(small.failed_malloc_atomics, kMaxAtomics);
  EXPECT_EQ(large.failed_malloc_atomics, small.failed_malloc_atomics);
}

TEST(XMalloc, ExhaustionFillKeepsItsCapacity) {
  // The exhaustion verdict only decides when to stop looking; it must not
  // give up on space a fill could still have used.
  EXPECT_EQ(fill_validated_xmalloc().bytes, std::size_t{688} * 4'096);
}

TEST(XMalloc, FreeSpanCounterMatchesTheListAfterMixedRounds) {
  // Large mallocs split blocks and frees merge them, from two SMs at once;
  // at every quiescent point the counter must equal the free span the audit
  // walks (it may only run high after a cancelled kernel).
  Device two_sm(72u << 20, GpuConfig{.num_sms = 2});
  XMalloc mgr(two_sm, 64u << 20, XMalloc::Config{});
  const ListHeap& heap = mgr.memoryblock_heap();
  constexpr std::size_t kLanes = 256;
  constexpr std::size_t kKept = 2;
  std::vector<void*> kept(kLanes * kKept, nullptr);
  std::uint32_t nulls = 0;
  auto check_counter = [&](const char* when) {
    std::uint64_t blocks = 0;
    std::uint64_t free_units = 0;
    std::string why;
    EXPECT_TRUE(heap.audit_host(blocks, &why, &free_units)) << why;
    EXPECT_EQ(heap.free_span_host(), free_units) << when;
    EXPECT_GT(blocks, 1u) << when;
  };
  for (std::uint32_t round = 0; round < 8; ++round) {
    two_sm.launch_n(kLanes, [&](ThreadCtx& t) {
      const std::size_t lane = t.thread_rank();
      void* slot[kKept + 1] = {};
      for (std::size_t i = 0; i <= kKept; ++i) {
        // 5 KiB .. 37 KiB: past the top class, straight onto the list.
        const std::size_t bytes =
            5'000 + (lane * 7'919 + round * 104'729 + i * 31) % 32'000;
        slot[i] = mgr.malloc(t, bytes);
        if (slot[i] == nullptr) t.atomic_add(&nulls, 1u);
      }
      mgr.free(t, slot[1]);  // a hole between two live blocks
      for (std::size_t i = 0; i < kKept; ++i) {
        mgr.free(t, kept[lane * kKept + i]);  // last round's blocks
        kept[lane * kKept + i] = slot[i == 0 ? 0 : 2];
      }
    });
    check_counter("after a round");
  }
  two_sm.launch_n(kLanes * kKept,
                  [&](ThreadCtx& t) { mgr.free(t, kept[t.thread_rank()]); });
  check_counter("after freeing everything");
  // At most 5 blocks per lane are live at once: under 47 MB of 64 MiB.
  EXPECT_EQ(nulls, 0u);
}

TEST(ListHeapTest, FragmentedHeapStillWalksBeforeFailing) {
  // Consecutive 4 KiB blocks with every other one freed: the free span is
  // half the heap, yet no hole fits 8 KiB. The counter cannot tell that
  // apart from a heap with room, so the walk must still decide: the 8 KiB
  // request fails within the fruitless budget, a 4 KiB one succeeds.
  constexpr std::uint32_t kBlocks = 64;
  constexpr std::uint32_t kSpan = 4'096 / ListHeap::kUnit + 1;  // + link
  constexpr std::uint32_t kUnits = kBlocks * kSpan;
  std::vector<std::uint64_t> pool(std::size_t{kUnits} * ListHeap::kUnit / 8);
  std::vector<std::uint64_t> flags(ListHeap::flag_words(kUnits));
  ListHeap heap;
  heap.init_host(reinterpret_cast<std::byte*>(pool.data()), kUnits,
                 flags.data());
  Device one_sm(1u << 20, GpuConfig{.num_sms = 1});
  std::vector<void*> blocks(kBlocks, nullptr);
  one_sm.launch_n(1, [&](ThreadCtx& t) {
    for (auto& b : blocks) b = heap.malloc(t, 4'096);
    for (std::uint32_t i = 0; i < kBlocks; i += 2) heap.free(t, blocks[i]);
  });
  ASSERT_EQ(std::count(blocks.begin(), blocks.end(), nullptr), 0);
  ASSERT_EQ(heap.free_span_host(), kBlocks / 2 * kSpan);

  void* big = &big;
  void* fits = nullptr;
  const auto stats = one_sm.launch_n(1, [&](ThreadCtx& t) {
    big = heap.malloc(t, 8'192);
    fits = heap.malloc(t, 4'096);
  });
  EXPECT_EQ(big, nullptr);
  EXPECT_NE(fits, nullptr);
  // Three atomic loads per visited block on each fruitless pass, plus the
  // 4 KiB claim and a few counter reads.
  constexpr std::uint64_t kAtomicsPerVisitedBlock = 3;
  EXPECT_LE(stats.counters.atomic_total(),
            (ListHeap::kMaxFruitlessPasses + 1) * kBlocks *
                kAtomicsPerVisitedBlock);
  EXPECT_GE(stats.counters.atomic_total(),
            ListHeap::kMaxFruitlessPasses * kBlocks)
      << "the 8 KiB request must walk the list, not trust the counter";
}

// ---- FDGMalloc -----------------------------------------------------------------

TEST(FdgMalloc, WarpSharesOneSuperblock) {
  auto mgr = fresh<FDGMalloc>(FDGMalloc::Config{});
  std::vector<void*> ptrs(32, nullptr);
  dev().launch(1, 32, [&](ThreadCtx& t) {
    ptrs[t.lane_id()] = mgr->warp_malloc(t, 32);
  });
  // All lanes' allocations are consecutive within one SuperBlock.
  for (unsigned i = 1; i < 32; ++i) {
    EXPECT_EQ(static_cast<std::byte*>(ptrs[i]) -
                  static_cast<std::byte*>(ptrs[i - 1]),
              32);
  }
}

TEST(FdgMalloc, WarpFreeAllReleasesEverything) {
  Device small(16u << 20, GpuConfig{.num_sms = 2});
  FDGMalloc mgr(small, 8u << 20, FDGMalloc::Config{});
  std::uint32_t failures = 0;
  // Without warp_free_all, 64 rounds x 8 KiB/warp would exhaust the heap.
  for (int round = 0; round < 64; ++round) {
    small.launch(1, 32, [&](ThreadCtx& t) {
      if (mgr.warp_malloc(t, 256) == nullptr) t.atomic_add(&failures, 1u);
      mgr.warp_free_all(t);
    });
  }
  EXPECT_EQ(failures, 0u);
}

// ---- Ouroboros -----------------------------------------------------------------

TEST(Ouroboros, PageChunksNeverReturnToPool) {
  // -P: a chunk assigned to a page size is never reusable (the paper's
  // criticism of the page queues): its pages circulate through the class's
  // page queue and the chunk never goes back to the pool. So round 2 takes
  // no new chunk — every pointer lies in a chunk round 1 tagged (a lane that
  // splits a chunk keeps its first page, so each tagged chunk holds a round-1
  // pointer). Addresses need not repeat: the page queue is FIFO, and when
  // racing lanes split more than one chunk in round 1, round 2 dequeues those
  // chunks' never-used pages ahead of the freed ones.
  dev().arena().clear();
  Ouroboros mgr(dev(), 16u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kStandard,
                                  .chunk_based = false});
  const std::size_t chunk_bytes = mgr.config().chunk_bytes;
  auto chunks_of = [&](const std::vector<void*>& ptrs) {
    std::set<std::size_t> ids;
    for (void* p : ptrs) {
      EXPECT_NE(p, nullptr);
      if (p != nullptr) ids.insert(dev().arena().offset_of(p) / chunk_bytes);
    }
    return ids;
  };
  std::vector<void*> ptrs(512, nullptr);
  dev().launch_n(512, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  dev().launch_n(512, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  const std::set<std::size_t> tagged = chunks_of(ptrs);
  std::vector<void*> again(512, nullptr);
  dev().launch_n(512, [&](ThreadCtx& t) {
    again[t.thread_rank()] = mgr.malloc(t, 16);
  });
  for (const std::size_t id : chunks_of(again)) {
    EXPECT_EQ(tagged.count(id), 1u) << "round 2 took a new chunk from the pool";
  }
  // Nor can another size class have them once every page is free again.
  dev().launch_n(512, [&](ThreadCtx& t) {
    mgr.free(t, again[t.thread_rank()]);
  });
  std::vector<void*> big(64, nullptr);
  dev().launch_n(64, [&](ThreadCtx& t) {
    big[t.thread_rank()] = mgr.malloc(t, 4096);
  });
  for (const std::size_t id : chunks_of(big)) {
    EXPECT_EQ(tagged.count(id), 0u) << "a 16 B chunk served 4 KiB pages";
  }
}

TEST(Ouroboros, ChunkVariantRecyclesAcrossSizes) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 16u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kStandard,
                                  .chunk_based = true});
  // Fill chunks with 16 B pages, free them all, then demand 4096 B pages:
  // the -C design must recycle the same chunks for the new size.
  std::vector<void*> ptrs(2'048, nullptr);
  dev().launch_n(2'048, [&](ThreadCtx& t) {
    ptrs[t.thread_rank()] = mgr.malloc(t, 16);
  });
  std::set<std::size_t> chunk_ids_16;
  for (void* p : ptrs) {
    ASSERT_NE(p, nullptr);
    chunk_ids_16.insert(dev().arena().offset_of(p) / 8192);
  }
  dev().launch_n(2'048, [&](ThreadCtx& t) { mgr.free(t, ptrs[t.thread_rank()]); });
  std::vector<void*> big(64, nullptr);
  dev().launch_n(64, [&](ThreadCtx& t) {
    big[t.thread_rank()] = mgr.malloc(t, 4096);
  });
  std::size_t recycled = 0;
  for (void* p : big) {
    ASSERT_NE(p, nullptr);
    recycled += chunk_ids_16.count(dev().arena().offset_of(p) / 8192);
  }
  EXPECT_GT(recycled, 0u) << "fully-freed chunks must serve other classes";
}

TEST(Ouroboros, RelayHandlesOversizedRequests) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 32u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kVirtArray,
                                  .chunk_based = false});
  void* p = nullptr;
  dev().launch(1, 1, [&](ThreadCtx& t) {
    p = mgr.malloc(t, 100'000);  // far beyond the largest page
    if (p != nullptr) mgr.free(t, p);
  });
  EXPECT_NE(p, nullptr);
}

TEST(Ouroboros, NoLeaksUnderDefaultCapacities) {
  dev().arena().clear();
  Ouroboros mgr(dev(), 64u << 20,
                Ouroboros::Config{.queue = Ouroboros::QueueKind::kVirtLinked,
                                  .chunk_based = false});
  std::vector<void*> ptrs(8'192, nullptr);
  for (int round = 0; round < 3; ++round) {
    dev().launch_n(8'192, [&](ThreadCtx& t) {
      ptrs[t.thread_rank()] = mgr.malloc(t, 64);
    });
    dev().launch_n(8'192, [&](ThreadCtx& t) {
      mgr.free(t, ptrs[t.thread_rank()]);
    });
  }
  std::uint64_t leaked = ~0ull;
  dev().launch(1, 1, [&](ThreadCtx& t) { leaked = mgr.leaked_pages(t); });
  EXPECT_EQ(leaked, 0u);
}

}  // namespace
}  // namespace gms::alloc
