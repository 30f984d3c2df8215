#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

#include "gpu/thread_ctx.h"

namespace gms::alloc {

/// First-fit heap over a linked list of memory blocks, as XMalloc's large
/// path uses it (§2.2, Fig. 1): the heap starts as one giant free
/// Memoryblock; allocation traverses the list from the start — "relatively
/// slow, as the list of memory blocks has to be traversed" — claims a free
/// block with CAS, splits off the remainder, and free() merges forward with
/// the next free neighbour.
///
/// Links live inline at each block's first unit; the {start, allocated} flag
/// pairs live in a side bitmap so a stale traversal can never claim an
/// absorbed block (same safety scheme as RegEffAlloc, where it is justified
/// in detail).
///
/// Exhaustion verdict. One pass running off the end of the list is not proof
/// of OOM, so malloc() judges every pass:
///  - a pass that saw a *free* fitting block lost a claim race — not
///    evidence of exhaustion at all; both budgets reset;
///  - a pass that saw a fitting block *held allocated* is contended only if
///    some claim was in flight at its end or the list-mutation generation
///    moved during it. Under a malloc storm the big tail block is claimed
///    nearly continuously by a rotating series of winners mid-split, and a
///    walker can sample dozens of passes without ever catching it free
///    (observed: 1024 replay lanes OOM-ing against a 97%-free heap); such
///    passes draw on the kMaxContendedPasses budget;
///  - every other pass is fruitless, including a held-fit pass with no claim
///    in flight and no generation change: near exhaustion every fitting
///    block is a finished allocation, and retrying it for the contended
///    budget made each failing lane walk the whole list 256 times.
/// malloc() counts a claim in flight from just before its try_claim CAS
/// until the split is published or the claim is dropped, and bumps the
/// generation when it publishes or releases a claim it could not use.
/// free() touches neither word: a block freed behind a walker is found on
/// the walker's next pass, which is why one quiescent pass is no proof of
/// OOM and the fruitless budget is several passes. The generation alone is
/// not enough either: a holder descheduled between claim and publish for
/// longer than the fruitless budget looks quiescent, and walkers return
/// spurious nullptrs.
class ListHeap {
 public:
  static constexpr std::uint32_t kUnit = 16;
  /// malloc() walk-pass budgets before reporting exhaustion (see above).
  static constexpr unsigned kMaxFruitlessPasses = 8;
  static constexpr unsigned kMaxContendedPasses = 256;

  /// Side-flag words required for `units` 16 B units.
  static constexpr std::size_t flag_words(std::size_t units) {
    return units / 32 + 1;
  }

  ListHeap() = default;

  /// Host-side setup over arena memory: one free block spanning everything.
  /// `min_split_units` is the smallest usable remainder worth splitting off
  /// a claimed block (in 16 B units); smaller leftovers stay attached as
  /// internal fragmentation. 4 reproduces the historical behaviour.
  void init_host(std::byte* pool, std::uint32_t units,
                 std::uint64_t* flag_storage,
                 std::uint32_t min_split_units = 4) {
    pool_ = pool;
    units_ = units;
    flags_ = flag_storage;
    min_split_units_ = min_split_units;
    flags_[0] |= start_bit(0);
    *link(0) = units;
  }

  /// Allocates `bytes`; returns nullptr when no block fits.
  void* malloc(gpu::ThreadCtx& ctx, std::size_t bytes) {
    // Reject before the 32-bit unit math: a request beyond the whole pool can
    // never fit, and casting its unit count would otherwise wrap (a
    // SIZE_MAX/2 request must not truncate into a tiny "successful" one).
    if (bytes > std::size_t{units_} * kUnit) return nullptr;
    const auto need = static_cast<std::uint32_t>((bytes + kUnit - 1) / kUnit);
    std::uint32_t off = 0;
    unsigned fruitless_passes = 0;
    unsigned contended_passes = 0;
    bool saw_free_fit = false;
    bool saw_held_fit = false;
    std::uint32_t pass_generation = ctx.atomic_load(&generation_);
    for (std::size_t step = 0; step < 2 * std::size_t{units_} + 64; ++step) {
      if (off >= units_) {
        // End of one pass over the list; judge it per the class comment.
        // In-flight before generation: a holder bumps the generation before
        // it leaves the in-flight count, so seeing it gone implies the bump.
        if (saw_free_fit) {
          fruitless_passes = 0;
          contended_passes = 0;
        } else if (saw_held_fit &&
                   (ctx.atomic_load(&claims_in_flight_) != 0 ||
                    ctx.atomic_load(&generation_) != pass_generation)) {
          if (++contended_passes >= kMaxContendedPasses) return nullptr;
          ctx.backoff();  // park so the mid-split holder gets to publish
        } else {
          if (++fruitless_passes >= kMaxFruitlessPasses) return nullptr;
          ctx.backoff();
        }
        saw_free_fit = false;
        saw_held_fit = false;
        pass_generation = ctx.atomic_load(&generation_);
        off = 0;
        continue;
      }
      if (!is_start(ctx, off)) {
        off = 0;  // stale: re-anchor at the always-valid first block
        continue;
      }
      const std::uint32_t next = ctx.atomic_load(link(off));
      if (next <= off || next > units_) {
        off = 0;
        continue;
      }
      if (next - off - 1 >= need && is_allocated(ctx, off)) {
        // A fitting block, but held: either a completed allocation or a
        // racing lane a few stores away from publishing the split remainder.
        saw_held_fit = true;
      } else if (next - off - 1 >= need) {
        // A free block that fits. Even if the claim below loses a race, this
        // pass was not fruitless — the space existed, some lane got it.
        saw_free_fit = true;
        ctx.atomic_add(&claims_in_flight_, 1u);
        void* block = nullptr;
        if (try_claim(ctx, off)) {
          const std::uint32_t owned_next = ctx.atomic_load(link(off));
          const std::uint32_t avail = owned_next - off - 1;
          if (avail < need) {
            release(ctx, off);
          } else {
            if (avail - need >= min_split_units_) {  // split usable remainder
              const std::uint32_t split = off + need + 1;
              ctx.atomic_store(link(split), owned_next);
              ctx.atomic_or(&flags_[split / 32], start_bit(split));
              ctx.atomic_store(link(off), split);
            }
            block = pool_ + std::size_t{off} * kUnit + kUnit;
          }
          ctx.atomic_add(&generation_, 1u);
        }
        ctx.atomic_sub(&claims_in_flight_, 1u);
        if (block != nullptr) return block;
      }
      off = next;
    }
    return nullptr;
  }

  void free(gpu::ThreadCtx& ctx, void* ptr) {
    const std::size_t byte_off = static_cast<std::byte*>(ptr) - pool_;
    const auto unit = static_cast<std::uint32_t>(byte_off / kUnit) - 1;
    assert(is_start(ctx, unit));
    const std::uint32_t next = ctx.atomic_load(link(unit));
    if (next < units_ && is_start(ctx, next) && !is_allocated(ctx, next) &&
        try_claim(ctx, next)) {
      // Merge with the (free) successor we just locked.
      ctx.atomic_store(link(unit), ctx.atomic_load(link(next)));
      ctx.atomic_and(&flags_[next / 32], ~(start_bit(next) | alloc_bit(next)));
    }
    release(ctx, unit);
  }

  [[nodiscard]] bool contains(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    return b >= pool_ && b < pool_ + std::size_t{units_} * kUnit;
  }

  /// Host-side integrity walk for MemoryManager::audit() (quiescent only):
  /// follows the block list from unit 0 and checks the invariants that hold
  /// even after a cancelled kernel — every reached block carries its start
  /// bit, links are strictly increasing, and the walk terminates exactly at
  /// `units_`. A block claimed by a reaped lane merely looks allocated
  /// (bounded leakage, not a failure); a broken link or missing start bit is
  /// corruption. Returns blocks walked; sets *why on failure.
  [[nodiscard]] bool audit_host(std::uint64_t& blocks_walked,
                                std::string* why) const {
    blocks_walked = 0;
    if (pool_ == nullptr || units_ == 0) return true;  // never initialised
    std::uint32_t off = 0;
    // units_+1 blocks can never exist: every block spans >= 1 unit + link.
    for (std::size_t step = 0; step <= units_; ++step) {
      if (off == units_) return true;  // clean end of heap
      const std::uint64_t flags = std::atomic_ref<std::uint64_t>(
                                      flags_[off / 32])
                                      .load(std::memory_order_acquire);
      if ((flags & start_bit(off)) == 0) {
        if (why != nullptr) {
          *why = "list-heap: unit " + std::to_string(off) +
                 " reached by a link but has no start bit";
        }
        return false;
      }
      const std::uint32_t next =
          std::atomic_ref<std::uint32_t>(
              *reinterpret_cast<std::uint32_t*>(
                  pool_ + std::size_t{off} * kUnit))
              .load(std::memory_order_acquire);
      if (next <= off || next > units_) {
        if (why != nullptr) {
          *why = "list-heap: block at unit " + std::to_string(off) +
                 " links to " + std::to_string(next) + " (of " +
                 std::to_string(units_) + " units)";
        }
        return false;
      }
      ++blocks_walked;
      off = next;
    }
    if (why != nullptr) *why = "list-heap: block list does not terminate";
    return false;  // more blocks than units: a cycle through stale flags
  }

  /// Number of blocks on the list (test/diagnostic, quiescent only).
  [[nodiscard]] std::size_t block_count(gpu::ThreadCtx& ctx) {
    std::size_t n = 0;
    for (std::uint32_t off = 0; off < units_;) {
      if (!is_start(ctx, off)) break;
      ++n;
      const std::uint32_t next = ctx.atomic_load(link(off));
      if (next <= off) break;
      off = next;
    }
    return n;
  }

 private:
  static constexpr std::uint64_t start_bit(std::uint32_t unit) {
    return 1ull << ((unit % 32) * 2);
  }
  static constexpr std::uint64_t alloc_bit(std::uint32_t unit) {
    return 2ull << ((unit % 32) * 2);
  }

  [[nodiscard]] std::uint32_t* link(std::uint32_t unit) {
    return reinterpret_cast<std::uint32_t*>(pool_ + std::size_t{unit} * kUnit);
  }
  bool is_start(gpu::ThreadCtx& ctx, std::uint32_t unit) {
    return (ctx.atomic_load(&flags_[unit / 32]) & start_bit(unit)) != 0;
  }
  bool is_allocated(gpu::ThreadCtx& ctx, std::uint32_t unit) {
    return (ctx.atomic_load(&flags_[unit / 32]) & alloc_bit(unit)) != 0;
  }
  bool try_claim(gpu::ThreadCtx& ctx, std::uint32_t unit) {
    std::uint64_t* word = &flags_[unit / 32];
    for (;;) {
      const std::uint64_t seen = ctx.atomic_load(word);
      if ((seen & start_bit(unit)) == 0) return false;
      if ((seen & alloc_bit(unit)) != 0) return false;
      if (ctx.atomic_cas(word, seen, seen | alloc_bit(unit)) == seen) {
        return true;
      }
      ctx.backoff();
    }
  }
  void release(gpu::ThreadCtx& ctx, std::uint32_t unit) {
    ctx.atomic_and(&flags_[unit / 32], ~alloc_bit(unit));
  }

  std::byte* pool_ = nullptr;
  std::uint32_t units_ = 0;
  std::uint64_t* flags_ = nullptr;
  std::uint32_t min_split_units_ = 4;
  // Exhaustion-verdict words (class comment), one cache line each: every
  // large malloc writes both, and walkers poll them once per pass.
  alignas(gpu::kDestructiveInterferenceSize) std::uint32_t generation_ = 0;
  alignas(gpu::kDestructiveInterferenceSize) std::uint32_t claims_in_flight_ =
      0;
};

}  // namespace gms::alloc
