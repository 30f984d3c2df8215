// Output checks of perfbench. Each one recomputes its verdict
// from perfbench's own records (pointers, sizes, tallies), never from a
// figure the program reports about itself; selftest.cpp feeds each one a
// crafted bad case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/alloc_service.h"

namespace perfbench {

/// One live block as perfbench saw it returned: [addr, addr + size).
struct Block {
  std::uintptr_t addr = 0;
  std::size_t size = 0;
};

struct SweepResult {
  std::string error;             ///< empty when every block passed
  std::uint64_t live_bytes = 0;  ///< sum of block sizes
  std::uint64_t span_bytes = 0;  ///< max end - min start, 0 when empty
};

/// Sort-and-sweep over a round's blocks: each block lies inside the arena
/// [lo, hi), starts on an `align`-byte boundary and is disjoint from every
/// other; the span they cover is at least their summed size. Sorts `blocks`.
[[nodiscard]] SweepResult sweep_blocks(std::vector<Block>& blocks,
                                       std::uintptr_t lo, std::uintptr_t hi,
                                       std::size_t align);

/// The rank-derived fill pattern each lane writes over its whole block.
void write_pattern(void* p, std::size_t size, std::uint64_t key);
[[nodiscard]] bool pattern_intact(const void* p, std::size_t size,
                                  std::uint64_t key);

/// A near-OOM fill must end in a nullptr and may not hand out more bytes
/// than the heap holds. Empty string when both hold.
[[nodiscard]] std::string check_fill(std::uint64_t handed_out_bytes,
                                     std::uint64_t heap_bytes,
                                     std::uint64_t nullptrs);

/// What perfbench itself submitted for one tenant.
struct TenantTally {
  std::uint64_t ops = 0;
  std::uint64_t malloc_bytes = 0;
  std::uint64_t freed_bytes = 0;
};

/// Service ledger check: every tenant accounted(), its ops_ok equal to the
/// submitted op count perfbench kept with no failed op, and its outstanding bytes
/// equal to what perfbench's tally leaves live. Empty string when all hold.
[[nodiscard]] std::string check_service(
    const std::map<std::uint32_t, TenantTally>& tallies,
    const gms::service::ServiceReport& report);

}  // namespace perfbench
