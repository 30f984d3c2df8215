// Self-test of perfbench's output checks: each check must pass a good case
// and fail a crafted bad one. Exits non-zero when any check misses.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "checks.h"

namespace {

using namespace perfbench;

int misses = 0;

void expect(bool failed_as_expected, const char* what) {
  std::cout << (failed_as_expected ? "ok    " : "MISSED") << " " << what
            << "\n";
  if (!failed_as_expected) ++misses;
}

std::string sweep(std::vector<Block> blocks, std::uintptr_t lo,
                  std::uintptr_t hi) {
  return sweep_blocks(blocks, lo, hi, 8).error;
}

gms::service::ServiceReport report(std::uint64_t ops_ok,
                                   std::uint64_t outstanding) {
  gms::service::ServiceReport rep;
  auto& t = rep.tenants[0];
  t.submitted_batches = 2;
  t.completed_batches = 2;
  t.ops_ok = ops_ok;
  t.outstanding_bytes = outstanding;
  return rep;
}

}  // namespace

int main() {
  constexpr std::uintptr_t lo = 0x10000, hi = 0x20000;

  expect(sweep({{lo, 64}, {lo + 64, 64}, {hi - 16, 16}}, lo, hi).empty(),
         "sweep: disjoint blocks inside the arena pass");
  expect(!sweep({{lo + 64, 64}, {lo, 72}}, lo, hi).empty(),
         "sweep: overlapping intervals fail");
  expect(!sweep({{lo, 64}, {lo + 64, 64}, {lo + 96, 8}}, lo, hi).empty(),
         "sweep: a block nested in another fails");
  expect(!sweep({{lo, 64}, {hi - 8, 16}}, lo, hi).empty(),
         "sweep: a block running past the arena end fails");
  expect(!sweep({{lo - 64, 16}}, lo, hi).empty(),
         "sweep: a pointer below the arena fails");
  expect(!sweep({{lo + 4, 16}}, lo, hi).empty(),
         "sweep: a misaligned pointer fails");

  std::vector<unsigned char> buf(517);
  write_pattern(buf.data(), buf.size(), 0x0123456789ABCDEFull);
  expect(pattern_intact(buf.data(), buf.size(), 0x0123456789ABCDEFull),
         "pattern: an untouched fill passes");
  expect(!pattern_intact(buf.data(), buf.size(), 0x0123456789ABCDEEull),
         "pattern: another rank's key fails");
  buf[200] ^= 1;
  expect(!pattern_intact(buf.data(), buf.size(), 0x0123456789ABCDEFull),
         "pattern: a corrupted word fails");
  buf[200] ^= 1;
  buf[516] ^= 0x80;
  expect(!pattern_intact(buf.data(), buf.size(), 0x0123456789ABCDEFull),
         "pattern: a corrupted tail byte fails");

  expect(check_fill(4u << 20, 4u << 20, 3).empty(),
         "fill: a full heap ending in nullptr passes");
  expect(!check_fill((4u << 20) + 4096, 4u << 20, 3).empty(),
         "fill: more bytes than the heap holds fails");
  expect(!check_fill(4096, 4u << 20, 0).empty(),
         "fill: a fill that never saw nullptr fails");

  const std::map<std::uint32_t, TenantTally> tally{{0, {128, 5000, 3000}}};
  expect(check_service(tally, report(128, 2000)).empty(),
         "service: a balanced tally passes");
  expect(!check_service(tally, report(127, 2000)).empty(),
         "service: ops_ok short of the submitted ops fails");
  expect(!check_service(tally, report(128, 2001)).empty(),
         "service: outstanding bytes off the tally fails");
  auto unaccounted = report(128, 2000);
  unaccounted.tenants[0].completed_batches = 1;
  expect(!check_service(tally, unaccounted).empty(),
         "service: a batch that vanished from the ledger fails");
  auto extra = report(128, 2000);
  extra.tenants[1] = extra.tenants[0];
  expect(!check_service(tally, extra).empty(),
         "service: a tenant perfbench never submitted for fails");

  std::cout << (misses == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return misses == 0 ? 0 : 1;
}
