#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {
std::string hex(std::uintptr_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(v));
  return buf;
}
}  // namespace

SweepResult sweep_blocks(std::vector<Block>& blocks, std::uintptr_t lo,
                         std::uintptr_t hi, std::size_t align) {
  SweepResult r;
  if (blocks.empty()) return r;
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.addr < b.addr; });
  std::uintptr_t prev_end = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& b = blocks[i];
    const std::uintptr_t end = b.addr + std::max<std::size_t>(b.size, 1);
    if (b.addr < lo || end > hi || end < b.addr) {
      r.error = "block " + hex(b.addr) + "+" + std::to_string(b.size) +
                " outside the arena";
      return r;
    }
    if (align > 1 && b.addr % align != 0) {
      r.error = "block " + hex(b.addr) + " not " + std::to_string(align) +
                "-byte aligned";
      return r;
    }
    if (i > 0 && b.addr < prev_end) {
      r.error = "block " + hex(b.addr) + " overlaps the block ending at " +
                hex(prev_end);
      return r;
    }
    prev_end = std::max(prev_end, end);
    r.live_bytes += b.size;
  }
  r.span_bytes = prev_end - blocks.front().addr;
  if (r.span_bytes < r.live_bytes) {
    r.error = "span " + std::to_string(r.span_bytes) + " B below live " +
              std::to_string(r.live_bytes) + " B";
  }
  return r;
}

void write_pattern(void* p, std::size_t size, std::uint64_t key) {
  auto* b = static_cast<unsigned char*>(p);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) std::memcpy(b + i, &key, 8);
  for (; i < size; ++i) b[i] = static_cast<unsigned char>(key >> (8 * (i % 8)));
}

bool pattern_intact(const void* p, std::size_t size, std::uint64_t key) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    if (w != key) return false;
  }
  for (; i < size; ++i) {
    if (b[i] != static_cast<unsigned char>(key >> (8 * (i % 8)))) return false;
  }
  return true;
}

std::string check_fill(std::uint64_t handed_out_bytes, std::uint64_t heap_bytes,
                       std::uint64_t nullptrs) {
  if (nullptrs == 0) return "fill never returned nullptr";
  if (handed_out_bytes > heap_bytes) {
    return "fill handed out " + std::to_string(handed_out_bytes) +
           " B from a " + std::to_string(heap_bytes) + " B heap";
  }
  return {};
}

std::string check_service(const std::map<std::uint32_t, TenantTally>& tallies,
                          const gms::service::ServiceReport& report) {
  if (!report.accounted()) return "service ledger does not balance";
  if (report.tenants.size() != tallies.size()) {
    return "service reports " + std::to_string(report.tenants.size()) +
           " tenants, perfbench submitted for " + std::to_string(tallies.size());
  }
  for (const auto& [id, tally] : tallies) {
    const auto it = report.tenants.find(id);
    if (it == report.tenants.end()) {
      return "tenant " + std::to_string(id) + " missing from the report";
    }
    const auto& t = it->second;
    const std::string who = "tenant " + std::to_string(id) + ": ";
    if (t.ops_ok != tally.ops || t.ops_failed != 0) {
      return who + "ops_ok " + std::to_string(t.ops_ok) + " failed " +
             std::to_string(t.ops_failed) + ", perfbench submitted " +
             std::to_string(tally.ops);
    }
    if (tally.freed_bytes > tally.malloc_bytes ||
        t.outstanding_bytes != tally.malloc_bytes - tally.freed_bytes) {
      return who + "outstanding " + std::to_string(t.outstanding_bytes) +
             " B, perfbench tally " + std::to_string(tally.malloc_bytes) +
             " B malloc / " + std::to_string(tally.freed_bytes) + " B freed";
    }
  }
  return {};
}

}  // namespace perfbench
