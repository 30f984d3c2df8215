#pragma once

#include <vector>

#include "alloc_core/size_class_map.h"
#include "allocators/common.h"
#include "allocators/list_heap.h"
#include "allocators/lockfree_queue.h"

namespace gms::alloc {

/// XMalloc (Huang et al., CIT 2010) — §2.2 / Fig. 1. The first
/// non-proprietary GPU allocator.
///
/// Large requests (and Superblocks) come from a heap segmented into free and
/// allocated Memoryblocks forming a linked list that supports merging —
/// "relatively slow, as the list has to be traversed". Small requests are
/// rounded to a static size class and preferably served from a per-class
/// lock-free FIFO (the first-level buffer) of Basicblocks. Basicblocks are
/// carved from Superblocks (32 per Superblock, Fig. 1); free Superblocks wait
/// in a second-level FIFO. Freed Basicblocks re-enter the first-level buffer
/// when possible, otherwise return to their parent Superblock; a Superblock
/// whose 32 Basicblocks all returned is recycled (second-level buffer, else
/// merged back into the heap).
///
/// Reproduction note: the original coalesces queue tickets at SIMD width on
/// pre-Fermi hardware; our queue keeps per-lane CAS tickets (the queue
/// semantics and fall-through behaviour are identical). The original's
/// instability ("fails most test cases") is architectural age, not something
/// we reproduce — but its slow list-walking large path and its huge malloc
/// footprint are faithfully present.
class XMalloc final : public core::MemoryManager {
 public:
  /// Runtime tuning surface (the seed of the ROADMAP tuner refactor): what
  /// used to be compile-time constants — the size-class ladder geometry and
  /// the superblock shape — are now per-instance parameters. The defaults
  /// reproduce the paper's geometry exactly; recorded traces replay
  /// byte-identically against a default-config instance (checked in
  /// tests/test_trace.cpp).
  struct Config {
    std::size_t fifo1_capacity = 4096;  ///< basicblock slots per class
    std::size_t fifo2_capacity = 1024;  ///< superblock slots per class
    std::size_t class_base = 16;        ///< smallest payload class (bytes)
    /// Geometric ladder length: payloads class_base << c, c in [0, n).
    /// Clamped to SizeClassMap::kMaxClasses.
    std::size_t num_classes = 9;  // 16 B ... 4096 B payloads
    /// Basicblocks carved per Superblock (Fig. 1 uses 32). Clamped to
    /// [1, 32]: returned_mask is one 32-bit word.
    unsigned blocks_per_super = 32;
    /// Smallest remainder (16 B units) the large-path ListHeap splits off a
    /// claimed Memoryblock; smaller leftovers stay as internal
    /// fragmentation. 4 is the historical behaviour.
    std::size_t large_split_units = 4;
  };

  /// Schema binding Config to the runtime "{k=v}" layer (xmalloc.cpp).
  static const core::ConfigSchema<Config>& config_schema();

  XMalloc(gpu::Device& dev, std::size_t heap_bytes, Config cfg);
  XMalloc(gpu::Device& dev, std::size_t heap_bytes)
      : XMalloc(dev, heap_bytes, Config{}) {}

  [[nodiscard]] const core::AllocatorTraits& traits() const override;
  [[nodiscard]] void* malloc(gpu::ThreadCtx& ctx, std::size_t size) override;
  void free(gpu::ThreadCtx& ctx, void* ptr) override;

  /// Walks the Memoryblock list (ListHeap::audit_host): the slow large-path
  /// list is exactly the structure a stray write corrupts first.
  [[nodiscard]] core::AuditResult audit() override;

  /// This instance's payload ladder (request-side lookup geometry).
  [[nodiscard]] const alloc_core::SizeClassMap& payload_classes() const {
    return classes_;
  }
  [[nodiscard]] const Config& config() const { return cfg_; }
  /// The Memoryblock list behind the large path and superblock refills.
  [[nodiscard]] const ListHeap& memoryblock_heap() const { return heap_; }

 private:
  struct BasicHeader {
    std::uint32_t magic;
    std::uint32_t cls;       ///< class index, or kLargeClass
    std::uint32_t sb_unit;   ///< parent superblock heap unit
    std::uint32_t index;     ///< basicblock index within the superblock
  };
  static_assert(sizeof(BasicHeader) == 16);
  struct SuperHeader {
    std::uint32_t magic;
    std::uint32_t cls;
    std::uint32_t returned_mask;  ///< basicblocks returned to the parent
    std::uint32_t pad;
  };
  static constexpr std::uint32_t kBasicMagic = 0x8A51Cu;
  static constexpr std::uint32_t kSuperMagic = 0x50B10Cu;
  static constexpr std::uint32_t kLargeClass = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t class_payload(std::size_t c) const {
    return cfg_.class_base << c;
  }
  [[nodiscard]] std::size_t basic_bytes(std::size_t c) const {
    return sizeof(BasicHeader) + class_payload(c);
  }
  [[nodiscard]] std::size_t super_bytes(std::size_t c) const {
    return sizeof(SuperHeader) + cfg_.blocks_per_super * basic_bytes(c);
  }

  void* take_from_superblock(gpu::ThreadCtx& ctx, std::uint32_t sb_unit,
                             std::uint32_t cls);
  void* malloc_small(gpu::ThreadCtx& ctx, std::uint32_t cls);
  void* malloc_large(gpu::ThreadCtx& ctx, std::size_t size);

  Config cfg_;
  alloc_core::SizeClassMap classes_;  ///< this instance's payload ladder
  std::uint32_t full_mask_ = 0;       ///< all blocks_per_super bits set
  ListHeap heap_;
  std::vector<BoundedTicketQueue> fifo1_;
  std::vector<BoundedTicketQueue> fifo2_;
  std::byte* pool_base_ = nullptr;  // == heap pool base, for unit math
};

}  // namespace gms::alloc
