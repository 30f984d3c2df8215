// Service probe of traced stacked runs: a closed loop of tenants on
// in-process AllocService shards, driven through AllocService::submit /
// run_until_drained, and the same ops launched straight on a Device and
// stack. Its timings are layer figures only: between runs they drift by up
// to 2x on the reference host, beyond any end-to-end bound (README).
#include <chrono>
#include <memory>

#include "checks.h"
#include "core/stack_builder.h"
#include "gpu/device.h"
#include "service/alloc_service.h"
#include "trace/trace_recorder.h"  // BuiltStack owns a TraceRecorder
#include "workloads.h"

namespace perfbench {
namespace {

namespace gpu = gms::gpu;
namespace core = gms::core;
namespace svc = gms::service;

constexpr std::uint32_t kTenants = 8;
constexpr std::uint32_t kOpsPerBatch = 64;
constexpr unsigned kShards = 2;
constexpr unsigned kShardSms = 1;  // 2 SM threads + 2 round workers = 4
constexpr std::size_t kHeap = 32u << 20;
constexpr const char* kStack = "ScatterAlloc";
constexpr double kProbeSeconds = 3;
/// Step pairs the direct path re-runs (one malloc and one free step each).
constexpr std::uint64_t kDirectPairs = 64;

/// Size of op i of tenant t's malloc batch in step pair p.
std::uint32_t op_size(std::uint64_t seed, std::uint64_t p, std::uint32_t t,
                      std::uint32_t i) {
  return size_from(mix64(mix64(seed, 4), (p * kTenants + t) * kOpsPerBatch + i),
                   4, 1024);
}

/// The service's op stream for `pairs` step pairs, launched straight on one
/// Device and stack: one launch per batch, one lane per op, as a shard runs
/// it. Returns each step's summed launch time; checks as the rounds do.
std::vector<double> run_direct(const Options& opt, Outcome& out,
                               std::uint64_t pairs) {
  gpu::Device dev(kHeap + (8u << 20),
                  gpu::GpuConfig{.num_sms = kShardSms, .watchdog_ms = 20000});
  const auto stack = core::StackBuilder(dev).build(kStack, kHeap);
  auto& mgr = *stack.manager;
  dev.launch_n(kOpsPerBatch, [](gpu::ThreadCtx&) {}, kOpsPerBatch);

  std::vector<double> step_ms;
  std::vector<void*> ptrs(kTenants * kOpsPerBatch);
  std::vector<std::uint32_t> sizes(ptrs.size());
  std::vector<std::uint8_t> bad(ptrs.size());
  const auto lo = reinterpret_cast<std::uintptr_t>(dev.arena().data());
  const auto hi = lo + dev.arena().size();
  for (std::uint64_t p = 0; p < pairs; ++p) {
    const std::uint64_t key = mix64(opt.seed ^ p, 5);
    for (int phase = 0; phase < 2; ++phase) {
      double ms = 0;
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        void** slot = ptrs.data() + t * kOpsPerBatch;
        std::uint32_t* sz = sizes.data() + t * kOpsPerBatch;
        std::uint8_t* badp = bad.data() + t * kOpsPerBatch;
        const std::uint64_t tkey = mix64(key, t);
        if (phase == 0) {
          for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
            sz[i] = op_size(opt.seed, p, t, i);
          }
          ms += dev.launch_n(
                       kOpsPerBatch,
                       [&mgr, slot, sz, tkey](gpu::ThreadCtx& c) {
                         const unsigned r = c.thread_rank();
                         slot[r] = mgr.malloc(c, sz[r]);
                         if (slot[r] != nullptr) {
                           write_pattern(slot[r], sz[r], mix64(tkey, r));
                         }
                       },
                       kOpsPerBatch)
                    .elapsed_ms;
        } else {
          ms += dev.launch_n(
                       kOpsPerBatch,
                       [&mgr, slot, sz, badp, tkey](gpu::ThreadCtx& c) {
                         const unsigned r = c.thread_rank();
                         if (slot[r] == nullptr) return;
                         if (!pattern_intact(slot[r], sz[r], mix64(tkey, r))) {
                           badp[r] = 1;
                         }
                         mgr.free(c, slot[r]);
                       },
                       kOpsPerBatch)
                    .elapsed_ms;
        }
      }
      step_ms.push_back(ms);
      if (phase == 0) {
        std::vector<Block> blocks;
        for (std::size_t k = 0; k < ptrs.size(); ++k) {
          if (ptrs[k] == nullptr) {
            out.fail(std::string("direct ") + kStack + ": malloc failed");
            ++out.failed;
          } else {
            blocks.push_back(
                {reinterpret_cast<std::uintptr_t>(ptrs[k]), sizes[k]});
          }
        }
        const auto r = sweep_blocks(blocks, lo, hi, 8);
        if (!r.error.empty()) out.fail(std::string("direct: ") + r.error);
      } else {
        for (auto b : bad) {
          if (b != 0) {
            out.fail("direct: fill pattern corrupted before free");
            break;
          }
        }
        const auto audit = mgr.audit();
        if (audit.supported && !audit.ok) {
          out.fail("direct: " + audit.to_string());
        }
      }
    }
  }
  return step_ms;
}

}  // namespace

void service_probe(const Options& opt, SpanLog& log, Outcome& out) {
  svc::ServiceSpec spec;
  spec.num_devices = kShards;
  spec.device.stack = kStack;
  spec.device.heap_bytes = kHeap;
  spec.device.num_sms = kShardSms;
  spec.seed = opt.seed;
  spec.quarantine = false;  // in-process shards only: no forked fallback
  std::unique_ptr<svc::AllocService> service;
  {
    auto s = log.open("service.ctor", 0);
    service = std::make_unique<svc::AllocService>(spec);
    service->add_default_tenants(kTenants);
  }

  std::map<std::uint32_t, TenantTally> tally;
  for (std::uint32_t t = 0; t < kTenants; ++t) tally[t] = {};
  std::vector<double> step_ms, exec_ms, overhead_ms;
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> done(kShards, 0);
  svc::ServiceReport rep;
  const auto t0 = Clock::now();
  // Whole step pairs: every tenant mallocs one 64-op batch, then frees it.
  std::uint64_t pair = 0;
  for (; ms_since(t0) < kProbeSeconds * 1000.0 && out.errors.empty(); ++pair) {
    std::vector<std::uint32_t> sizes(kTenants * kOpsPerBatch);
    for (int phase = 0; phase < 2; ++phase) {
      const std::uint64_t step = 2 * pair + phase;
      auto span = log.open("step.service", step);
      std::vector<std::vector<svc::AllocOp>> batches(kTenants);
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        auto& batch = batches[t];
        batch.resize(kOpsPerBatch);
        for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
          auto& sz = sizes[t * kOpsPerBatch + i];
          if (phase == 0) {
            sz = op_size(opt.seed, pair, t, i);
            batch[i] = {svc::AllocOp::Kind::kMalloc, i, sz};
            tally[t].malloc_bytes += sz;
          } else {
            batch[i] = {svc::AllocOp::Kind::kFree, i, 0};
            tally[t].freed_bytes += sz;
          }
        }
        tally[t].ops += kOpsPerBatch;
      }
      {
        auto s = log.open("service.submit", step);
        for (std::uint32_t t = 0; t < kTenants; ++t) {
          service->submit(t, std::move(batches[t]));
        }
      }
      const auto s0 = Clock::now();
      {
        auto s = log.open("service.run_until_drained", step);
        rep = service->run_until_drained();
      }
      const double ms = ms_since(s0);
      step_ms.push_back(ms);

      // Longest shard execution: batch_ms is in (shard, tenant) order, and
      // each shard's completed-batch count says how many entries are its.
      double longest = 0;
      std::size_t k = 0;
      for (unsigned sh = 0; sh < kShards; ++sh) {
        const auto now = service->shard(sh).completed_batches();
        double sum = 0;
        for (auto n = now - done[sh]; n > 0 && k < rep.batch_ms.size(); --n) {
          sum += rep.batch_ms[k++];
        }
        done[sh] = now;
        longest = std::max(longest, sum);
      }
      exec_ms.push_back(longest);
      overhead_ms.push_back(ms - longest);
      ops += kTenants * kOpsPerBatch;
      if (const auto err = check_service(tally, rep); !err.empty()) {
        out.fail("service step " + std::to_string(step) + ": " + err);
      }
    }
  }
  for (const auto& [id, t] : rep.tenants) {
    out.failed += t.ops_failed;
    if (t.outstanding_bytes != 0) {
      out.fail("tenant " + std::to_string(id) + " ends with " +
               std::to_string(t.outstanding_bytes) + " B outstanding");
    }
  }
  out.attempted += ops;
  service.reset();

  std::vector<double> direct_ms;
  {
    auto s = log.open("service.direct", 0);
    direct_ms =
        run_direct(opt, out, std::min<std::uint64_t>(pair, kDirectPairs));
  }
  double total_ms = 0;
  for (double v : step_ms) total_ms += v;
  auto& d = out.detail;
  d.push_back({"service.kops_per_s", ops / total_ms, "kops/s"});
  d.push_back({"service.step_p50_ms", percentile(step_ms, 50), "ms"});
  d.push_back({"service.step_p99_ms", percentile(step_ms, 99), "ms"});
  d.push_back({"service.step_exec_ms", median(exec_ms), "ms"});
  d.push_back({"service.step_overhead_ms", median(overhead_ms), "ms"});
  d.push_back({"service.direct_ms", median(direct_ms), "ms"});
  d.push_back({"service.ctor_ms", log.total_ms("service.ctor"), "ms"});
}

}  // namespace perfbench
