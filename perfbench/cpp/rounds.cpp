// churn, stacked and near_oom: alloc-all / free-all rounds and near-OOM
// fills driven through StackBuilder::build, Device::launch and
// MemoryManager::malloc/free/audit, plus trace record and TraceReplayer.
#include <exception>
#include <memory>

#include "checks.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/validating_manager.h"
#include "gpu/device.h"
#include "trace/trace_format.h"
#include "trace/trace_recorder.h"
#include "trace/trace_replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gpu = gms::gpu;
namespace core = gms::core;
namespace trace = gms::trace;

constexpr unsigned kBlockDim = 256;
/// Every device: inter-SM contention shows, and two SM threads leave room
/// in a 4-thread budget.
constexpr unsigned kSms = 2;
constexpr std::size_t kAlign = 8;  // ValidatingManager's free-alignment rule
constexpr std::size_t kArenaSlack = 8u << 20;
constexpr double kWatchdogMs = 20000;
constexpr double kMiB = 1024.0 * 1024.0;

/// Measurements of one step (a round or a fill) on one stack.
struct Step {
  double malloc_ms = 0;
  double free_ms = 0;
  double floor_ms = 0;  ///< traced runs: empty kernel of the malloc grid
  std::uint64_t lanes = 0;
  std::uint64_t mallocs = 0;  ///< malloc calls made
  std::uint64_t ok = 0;       ///< of those, non-null
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;  ///< bytes handed out
  std::uint64_t span = 0;   ///< address range of the live blocks
  gpu::StatsCounters malloc_ctr;
  gpu::StatsCounters free_ctr;
};

/// One stack on a device of its own, and every step run on it.
struct Cell {
  std::string spec;
  std::size_t heap = 0;
  std::unique_ptr<gpu::Device> dev;
  core::BuiltStack stack;
  bool host_based = false;
  std::vector<Step> steps;
};

struct Ctx {
  SpanLog& log;
  Outcome& out;
  std::vector<double> step_ms;  ///< every step of the workload, any stack
  std::uint64_t calls = 0;      ///< allocator calls over all steps
  std::uint64_t step_id = 0;
};

Cell make_cell(Ctx& ctx, const std::string& spec, std::size_t heap,
               std::uint64_t warm_lanes) {
  Cell c;
  c.spec = spec;
  c.heap = heap;
  {
    auto s = ctx.log.open("gpu.device_ctor", 0);
    c.dev = std::make_unique<gpu::Device>(
        heap + kArenaSlack,
        gpu::GpuConfig{.num_sms = kSms, .watchdog_ms = kWatchdogMs});
  }
  {
    auto s = ctx.log.open("core.stack_build", 0);
    c.stack = core::StackBuilder(*c.dev).build(spec, heap);
  }
  const auto spec_base = core::StackSpec::parse(spec).base;
  c.host_based =
      core::Registry::instance().find(spec_base)->traits.host_based;
  // Wires every lane stack the rounds will use, so no timed launch pays it.
  c.dev->launch_n(warm_lanes, [](gpu::ThreadCtx&) {}, kBlockDim);
  return c;
}

/// Host-side checks after a free-all: heap audit where supported, and zero
/// violations from a validate stage.
void check_quiescent(Ctx& ctx, Cell& c) {
  auto s = ctx.log.open("core.audit", ctx.step_id);
  const auto audit = c.stack.manager->audit();
  if (audit.supported && !audit.ok) {
    ctx.out.fail(c.spec + ": " + audit.to_string());
  }
  if (c.stack.validator != nullptr) {
    const auto rep = c.stack.validator->drain_report(false);
    if (!rep.clean()) ctx.out.fail(c.spec + ": " + rep.to_string());
  }
}

/// Sort-and-sweep over the non-null slots; records bytes and span.
void sweep(Ctx& ctx, Cell& c, const std::vector<void*>& ptrs,
           const std::vector<std::uint32_t>& sizes, Step& st) {
  auto s = ctx.log.open("check.sweep", ctx.step_id);
  std::vector<Block> blocks;
  blocks.reserve(ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    if (ptrs[i] != nullptr) {
      blocks.push_back({reinterpret_cast<std::uintptr_t>(ptrs[i]), sizes[i]});
    }
  }
  const auto lo = reinterpret_cast<std::uintptr_t>(c.dev->arena().data());
  const auto r = sweep_blocks(blocks, lo, lo + c.dev->arena().size(), kAlign);
  if (!r.error.empty()) ctx.out.fail(c.spec + ": " + r.error);
  st.bytes = r.live_bytes;
  st.span = r.span_bytes;
}

/// One alloc-all / free-all round: lane r mallocs sizes[r], writes its
/// pattern over the block; the free kernel verifies the pattern, then frees.
Step run_round(Ctx& ctx, Cell& c, const std::vector<std::uint32_t>& sizes,
               std::uint64_t key) {
  const std::size_t n = sizes.size();
  std::vector<void*> ptrs(n, nullptr);
  std::vector<std::uint8_t> bad(n, 0);
  auto& mgr = *c.stack.manager;
  const std::uint32_t* sz = sizes.data();
  void** slot = ptrs.data();
  std::uint8_t* badp = bad.data();

  Step st;
  st.lanes = n;
  auto step_span = ctx.log.open("step.round", ctx.step_id);
  auto* rec = c.stack.recorder.get();  // set for a trace stage only
  if (rec != nullptr) rec->set_enabled(true);
  {
    auto s = ctx.log.open("gpu.launch.malloc", ctx.step_id);
    const auto ls = c.dev->launch_n(
        n,
        [&mgr, sz, slot, key](gpu::ThreadCtx& t) {
          const unsigned r = t.thread_rank();
          void* p = mgr.malloc(t, sz[r]);
          slot[r] = p;
          if (p != nullptr) write_pattern(p, sz[r], mix64(key, r));
        },
        kBlockDim);
    st.malloc_ms = ls.elapsed_ms;
    st.malloc_ctr = ls.counters;
  }
  st.mallocs = n;
  for (void* p : ptrs) st.ok += p != nullptr ? 1 : 0;
  sweep(ctx, c, ptrs, sizes, st);
  {
    auto s = ctx.log.open("gpu.launch.free", ctx.step_id);
    const auto ls = c.dev->launch_n(
        n,
        [&mgr, sz, slot, badp, key](gpu::ThreadCtx& t) {
          const unsigned r = t.thread_rank();
          void* p = slot[r];
          if (p == nullptr) return;
          if (!pattern_intact(p, sz[r], mix64(key, r))) badp[r] = 1;
          mgr.free(t, p);
        },
        kBlockDim);
    st.free_ms = ls.elapsed_ms;
    st.free_ctr = ls.counters;
  }
  if (rec != nullptr) rec->set_enabled(false);
  st.frees = st.ok;
  for (std::size_t r = 0; r < n; ++r) {
    if (bad[r] != 0) {
      ctx.out.fail(c.spec + ": fill pattern of rank " + std::to_string(r) +
                   " corrupted before free");
      break;
    }
  }
  check_quiescent(ctx, c);
  if (ctx.log.on()) {
    auto s = ctx.log.open("gpu.launch.floor", ctx.step_id);
    st.floor_ms =
        c.dev->launch_n(n, [](gpu::ThreadCtx&) {}, kBlockDim).elapsed_ms;
  }
  return st;
}

/// Books a step into its cell and the workload totals.
void book(Ctx& ctx, Cell& c, const Step& st) {
  ctx.out.attempted += st.mallocs + st.frees;
  ctx.out.failed += st.mallocs - st.ok;
  ctx.calls += st.mallocs + st.frees;
  ctx.step_ms.push_back(st.malloc_ms + st.free_ms);
  c.steps.push_back(st);
  ++ctx.step_id;
}

std::vector<double> per_step(const Cell& c, double (*f)(const Step&)) {
  std::vector<double> v;
  v.reserve(c.steps.size());
  for (const auto& s : c.steps) v.push_back(f(s));
  return v;
}

gpu::StatsCounters counters(const Cell& c) {
  gpu::StatsCounters sum;
  for (const auto& s : c.steps) {
    sum += s.malloc_ctr;
    sum += s.free_ctr;
  }
  return sum;
}
std::uint64_t calls(const Cell& c) {
  std::uint64_t n = 0;
  for (const auto& s : c.steps) n += s.mallocs + s.frees;
  return n;
}

double malloc_rate(const Step& s) { return s.ok / s.malloc_ms / 1000.0; }
double free_rate(const Step& s) { return s.frees / s.free_ms / 1000.0; }
double fill_ms(const Step& s) { return s.malloc_ms; }
double step_bytes(const Step& s) { return static_cast<double>(s.bytes); }
/// Kernel time above the empty-kernel floor, per call, in ns.
double malloc_ns(const Step& s) {
  return std::max(s.malloc_ms - s.floor_ms, 1e-6) * 1e6 / s.mallocs;
}
double free_ns(const Step& s) {
  return std::max(s.free_ms - s.floor_ms, 1e-6) * 1e6 /
         std::max<std::uint64_t>(s.frees, 1);
}

/// The end-to-end metrics every round/fill workload reports.
void add_e2e(Ctx& ctx, const std::vector<const Cell*>& cells) {
  std::vector<double> mrate, frate, apo, span, fill;
  double fill_bytes = 0;
  for (const Cell* c : cells) {
    mrate.push_back(median(per_step(*c, malloc_rate)));
    frate.push_back(median(per_step(*c, free_rate)));
    apo.push_back(static_cast<double>(counters(*c).atomic_total()) / calls(*c));
    std::uint64_t max_span = 0;
    for (const auto& s : c->steps) max_span = std::max(max_span, s.span);
    span.push_back(max_span / kMiB);
    fill.push_back(median(per_step(*c, fill_ms)) / 1000.0);
    fill_bytes += median(per_step(*c, step_bytes));
  }
  double total_ms = 0;
  for (double v : ctx.step_ms) total_ms += v;
  auto& e = ctx.out.e2e;
  e.push_back({"malloc_mops", geomean(mrate), "Mops/s"});
  e.push_back({"free_mops", geomean(frate), "Mops/s"});
  e.push_back({"device_atomics_per_op", geomean(apo), "count"});
  e.push_back({"heap_span_mb", geomean(span), "MiB"});
  e.push_back({"fill_s", geomean(fill), "s"});
  e.push_back({"fill_mb", fill_bytes / kMiB, "MiB"});
  e.push_back({"kops_per_s", ctx.calls / total_ms, "kops/s"});
  e.push_back({"step_p50_ms", percentile(ctx.step_ms, 50), "ms"});
  e.push_back({"step_p99_ms", percentile(ctx.step_ms, 99), "ms"});
}

/// The per-layer metrics listed in BENCHMARK.json: the simulator over all
/// cells, the allocator layer over the cells without a stage.
void add_layers(Ctx& ctx, const std::vector<const Cell*>& all,
                const std::vector<const Cell*>& bare) {
  if (!ctx.log.on()) return;
  gpu::StatsCounters sum;
  double n_calls = 0, kernels = 0;
  std::vector<double> floor;
  for (const Cell* c : all) {
    sum += counters(*c);
    n_calls += calls(*c);
    kernels += 2 * c->steps.size();
    for (const auto& s : c->steps) floor.push_back(s.floor_ms * 1e6 / s.lanes);
  }
  gpu::StatsCounters base;
  double base_calls = 0;
  std::vector<double> mns, fns, apo;
  for (const Cell* c : bare) {
    base += counters(*c);
    base_calls += calls(*c);
    mns.push_back(median(per_step(*c, malloc_ns)));
    fns.push_back(median(per_step(*c, free_ns)));
    apo.push_back(counters(*c).atomic_total() / static_cast<double>(calls(*c)));
  }
  const double cas = static_cast<double>(base.atomic_cas);
  auto& l = ctx.out.layers;
  l.push_back({"gpu.floor_ns_per_lane", median(floor), "ns"});
  l.push_back({"gpu.lane_switches_per_op", sum.lane_switches / n_calls,
               "count"});
  l.push_back({"gpu.collectives_per_op", sum.collectives / n_calls, "count"});
  l.push_back({"gpu.os_yields_per_kernel", sum.os_yields / kernels, "count"});
  l.push_back({"gpu.device_ctor_ms", ctx.log.total_ms("gpu.device_ctor"),
               "ms"});
  l.push_back({"core.stack_build_ms", ctx.log.total_ms("core.stack_build"),
               "ms"});
  l.push_back({"allocators.malloc_ns", geomean(mns), "ns"});
  l.push_back({"allocators.free_ns", geomean(fns), "ns"});
  l.push_back({"allocators.atomics_per_op", geomean(apo), "count"});
  l.push_back({"allocators.cas_success_ratio",
               cas > 0 ? (cas - base.atomic_cas_failed) / cas : 1.0, "ratio"});
  l.push_back({"allocators.backoffs_per_op", base.backoffs / base_calls,
               "count"});
}

/// "allocators.<Stack>." or, for a host-based base, "hostalloc.<Stack>.".
std::string layer_prefix(const Cell& c) {
  return std::string(c.host_based ? "hostalloc." : "allocators.") +
         metric_label(c.spec) + ".";
}

/// Per-stack allocator detail: allocators.<Stack>.* / hostalloc.<Stack>.*.
void add_stack_detail(Ctx& ctx, const Cell& c) {
  const std::string p = layer_prefix(c);
  const auto ctr = counters(c);
  const double n = static_cast<double>(calls(c));
  const double cas = static_cast<double>(ctr.atomic_cas);
  auto& d = ctx.out.detail;
  d.push_back({p + "malloc_ns", median(per_step(c, malloc_ns)), "ns"});
  d.push_back({p + "free_ns", median(per_step(c, free_ns)), "ns"});
  d.push_back({p + "atomics_per_op", ctr.atomic_total() / n, "count"});
  d.push_back({p + "cas_success_ratio",
               cas > 0 ? (cas - ctr.atomic_cas_failed) / cas : 1.0, "ratio"});
  d.push_back({p + "backoffs_per_op", ctr.backoffs / n, "count"});
}

/// Request sizes of one round: uniform in [4, 1024] per lane, or per warp
/// (every lane of a warp asks for the same size) when warp_convergent.
std::vector<std::uint32_t> round_sizes(std::uint64_t seed, std::uint64_t pass,
                                       std::size_t n, bool warp_convergent) {
  std::vector<std::uint32_t> sizes(n);
  const std::uint64_t key = mix64(seed, pass);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t unit = warp_convergent ? r / gpu::kWarpSize : r;
    sizes[r] = size_from(mix64(key, unit), 4, 1024);
  }
  return sizes;
}

void register_allocators(SpanLog& log) {
  auto s = log.open("core.register_all", 0);
  core::register_all_allocators();
}

// ---------------------------------------------------------------------------
// churn: the paper's §4.2 alloc-all / free-all loop on every registry base
// with individual free, no decorator stage.

constexpr std::size_t kRoundLanes = 16384;
constexpr std::size_t kRoundHeap = 64u << 20;

}  // namespace

Run run_churn(const Options& opt, SpanLog& log) {
  // Left out (README): Halloc and RegEff-* lose capacity over repeated
  // rounds, Ouro-P-VA/VL hit free-phase cliffs, Atomic and FDGMalloc have
  // no individual free.
  static const char* const kBases[] = {
      "CUDA",     "XMalloc",   "ScatterAlloc", "Ouro-P-S",
      "Ouro-C-S", "Ouro-C-VA", "Ouro-C-VL",    "BulkAlloc",
      "HostExtent", "HostBuddy", "StreamPool"};
  Run run;
  Ctx ctx{log, run.out, {}, 0, 0};
  register_allocators(log);
  std::vector<Cell> cells;
  for (const char* b : kBases) {
    cells.push_back(make_cell(ctx, b, kRoundHeap, kRoundLanes));
  }
  run.setup_s = ms_since(process_start()) / 1000.0;

  const auto t0 = Clock::now();
  for (std::uint64_t pass = 0;
       ms_since(t0) < opt.seconds * 1000.0 && run.out.errors.empty(); ++pass) {
    const auto sizes = round_sizes(opt.seed, pass, kRoundLanes, false);
    for (auto& c : cells) {
      book(ctx, c, run_round(ctx, c, sizes, mix64(opt.seed ^ pass, 1)));
    }
  }

  std::vector<const Cell*> all;
  for (const auto& c : cells) all.push_back(&c);
  add_e2e(ctx, all);
  add_layers(ctx, all, all);
  if (log.on()) {
    for (const auto& c : cells) add_stack_detail(ctx, c);
  }
  return run;
}

// ---------------------------------------------------------------------------
// stacked: warp-convergent rounds on a few bases, each bare and under every
// decorator stage, and the trace stage's recording replayed.

Run run_stacked(const Options& opt, SpanLog& log) {
  static const char* const kBases[] = {"XMalloc", "ScatterAlloc", "Ouro-P-S"};
  static const char* const kStages[] = {
      "",           "validate>",  "warpagg>",
      "resilient>", "trace>",     "resilient>warpagg>validate>"};
  constexpr std::size_t kStageCount = std::size(kStages);
  Run run;
  Ctx ctx{log, run.out, {}, 0, 0};
  register_allocators(log);
  std::vector<Cell> cells;   // [base][stage]
  std::vector<Cell> replay;  // [base]: "trace>B", re-records each replay
  for (const char* b : kBases) {
    for (const char* s : kStages) {
      cells.push_back(
          make_cell(ctx, std::string(s) + b, kRoundHeap, kRoundLanes));
    }
    replay.push_back(
        make_cell(ctx, std::string("trace>") + b, kRoundHeap, kRoundLanes));
  }
  run.setup_s = ms_since(process_start()) / 1000.0;

  std::vector<std::vector<double>> replay_ms(std::size(kBases));
  std::vector<std::uint64_t> replay_ops(std::size(kBases), 0);
  const auto t0 = Clock::now();
  for (std::uint64_t pass = 0;
       ms_since(t0) < opt.seconds * 1000.0 && run.out.errors.empty(); ++pass) {
    const auto sizes = round_sizes(opt.seed, pass, kRoundLanes, true);
    const std::uint64_t key = mix64(opt.seed ^ pass, 2);
    for (std::size_t b = 0; b < std::size(kBases); ++b) {
      for (std::size_t s = 0; s < kStageCount; ++s) {
        Cell& c = cells[b * kStageCount + s];
        const Step st = run_round(ctx, c, sizes, key);
        book(ctx, c, st);
        auto* rec = c.stack.recorder.get();
        if (rec == nullptr) continue;

        // Replay the round's recording onto a fresh trace>B stack; the
        // re-recorded request stream must digest to the recording's.
        trace::Trace tr;
        tr.events = rec->drain();
        if (rec->dropped() != 0) ctx.out.fail(c.spec + ": recorder dropped");
        tr.header.heap_bytes = c.heap;
        tr.header.arena_bytes = c.dev->arena().size();
        tr.header.num_sms = kSms;
        tr.header.warp_size = gpu::kWarpSize;
        tr.header.set_allocator(kBases[b]);
        const auto digest = trace::canonical_digest(tr.events);
        auto span = log.open("trace.replay", ctx.step_id);
        trace::TraceReplayer replayer(tr);
        Cell& r = replay[b];
        r.stack.recorder->set_enabled(true);
        const auto res = replayer.replay(*r.dev, *r.stack.manager);
        r.stack.recorder->set_enabled(false);
        const auto redigest =
            trace::canonical_digest(r.stack.recorder->drain());
        if (redigest != digest) {
          ctx.out.fail(r.spec + ": replay digest differs from the recording");
        }
        if (res.failed_mallocs != 0 || res.unmatched_frees != 0 ||
            res.mallocs != st.mallocs) {
          ctx.out.fail(r.spec + ": replay issued " +
                       std::to_string(res.mallocs) + " mallocs, " +
                       std::to_string(res.failed_mallocs) + " failed");
        }
        check_quiescent(ctx, r);
        const std::uint64_t ops = res.mallocs + res.frees;
        ctx.out.attempted += ops;
        ctx.out.failed += res.failed_mallocs;
        ctx.calls += ops;
        ctx.step_ms.push_back(res.elapsed_ms);
        replay_ms[b].push_back(res.elapsed_ms);
        replay_ops[b] = ops;
        ++ctx.step_id;
      }
    }
  }

  // The recorders die with their stacks; no device may keep observing them.
  for (auto* v : {&cells, &replay}) {
    for (auto& c : *v) c.dev->set_launch_observer(nullptr);
  }

  std::vector<const Cell*> all, bare;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    all.push_back(&cells[i]);
    if (i % kStageCount == 0) bare.push_back(&cells[i]);
  }
  add_e2e(ctx, all);
  add_layers(ctx, all, bare);
  if (log.on()) {
    // A stage's cost: its stack's median round minus its base's, per call,
    // averaged over the bases.
    auto round_ms = [](const Step& s) { return s.malloc_ms + s.free_ms; };
    auto stage_ns = [&](std::size_t s) {
      double sum = 0;
      for (std::size_t b = 0; b < std::size(kBases); ++b) {
        const Cell& c = cells[b * kStageCount + s];
        const Cell& base = cells[b * kStageCount];
        sum += (median(per_step(c, round_ms)) -
                median(per_step(base, round_ms))) *
               1e6 / (c.steps.front().mallocs + c.steps.front().frees);
      }
      return sum / std::size(kBases);
    };
    double coll = 0, replay_ns = 0;
    for (std::size_t b = 0; b < std::size(kBases); ++b) {
      const Cell& w = cells[b * kStageCount + 2];
      const Cell& base = cells[b * kStageCount];
      coll += (static_cast<double>(counters(w).collectives) / calls(w) -
               static_cast<double>(counters(base).collectives) / calls(base));
      const Cell& t = cells[b * kStageCount + 4];
      replay_ns += (median(replay_ms[b]) - median(per_step(t, round_ms))) *
                   1e6 / replay_ops[b];
    }
    const double nb = static_cast<double>(std::size(kBases));
    auto& d = ctx.out.detail;
    d.push_back({"core.validate.ns_per_op", stage_ns(1), "ns"});
    d.push_back({"alloc_core.warpagg.ns_per_op", stage_ns(2), "ns"});
    d.push_back({"alloc_core.warpagg.collectives_per_op", coll / nb, "count"});
    d.push_back({"alloc_core.resilient.ns_per_op", stage_ns(3), "ns"});
    d.push_back({"trace.record.ns_per_op", stage_ns(4), "ns"});
    d.push_back({"trace.replay.ns_per_op", replay_ns / nb, "ns"});
    d.push_back({"core.stack.resilient_warpagg_validate.ns_per_op",
                 stage_ns(5), "ns"});
    service_probe(opt, log, run.out);
  }
  return run;
}

// ---------------------------------------------------------------------------
// near_oom: fills that ask for about 4x the heap in 4 KiB requests, each
// lane stopping at its first nullptr; then free-all.

namespace {

constexpr std::size_t kFillHeap = 4u << 20;
constexpr std::uint32_t kFillBytes = 4096;
constexpr std::size_t kFillLanes = 1024;
constexpr unsigned kFillPerLane = 4 * kFillHeap / kFillBytes / kFillLanes;

Step run_fill(Ctx& ctx, Cell& c, std::uint64_t key) {
  constexpr std::size_t kSlots = kFillLanes * kFillPerLane;
  std::vector<void*> ptrs(kSlots, nullptr);
  std::vector<std::uint8_t> bad(kSlots, 0);
  auto& mgr = *c.stack.manager;
  void** slot = ptrs.data();
  std::uint8_t* badp = bad.data();

  Step st;
  st.lanes = kFillLanes;
  auto step_span = ctx.log.open("step.fill", ctx.step_id);
  try {
    auto s = ctx.log.open("gpu.launch.malloc", ctx.step_id);
    const auto ls = c.dev->launch_n(
        kFillLanes,
        [&mgr, slot, key](gpu::ThreadCtx& t) {
          const unsigned r = t.thread_rank();
          for (unsigned i = 0; i < kFillPerLane; ++i) {
            void* p = mgr.malloc(t, kFillBytes);
            slot[r * kFillPerLane + i] = p;
            if (p == nullptr) break;
            write_pattern(p, kFillBytes, mix64(key, r * kFillPerLane + i));
          }
        },
        kBlockDim);
    st.malloc_ms = ls.elapsed_ms;
    st.malloc_ctr = ls.counters;
  } catch (const std::exception& e) {
    ctx.out.fail(c.spec + ": fill did not end in nullptr: " + e.what());
    return st;
  }
  std::uint64_t nulls = 0;
  for (std::size_t r = 0; r < kFillLanes; ++r) {
    unsigned i = 0;
    while (i < kFillPerLane && ptrs[r * kFillPerLane + i] != nullptr) ++i;
    st.ok += i;
    if (i < kFillPerLane) ++nulls;
  }
  st.mallocs = st.ok + nulls;
  const std::vector<std::uint32_t> sizes(kSlots, kFillBytes);
  sweep(ctx, c, ptrs, sizes, st);
  if (const auto err = check_fill(st.bytes, c.heap, nulls); !err.empty()) {
    ctx.out.fail(c.spec + ": " + err);
  }
  {
    auto s = ctx.log.open("gpu.launch.free", ctx.step_id);
    const auto ls = c.dev->launch_n(
        kFillLanes,
        [&mgr, slot, badp, key](gpu::ThreadCtx& t) {
          const unsigned r = t.thread_rank();
          for (unsigned i = 0; i < kFillPerLane; ++i) {
            const unsigned k = r * kFillPerLane + i;
            if (slot[k] == nullptr) break;
            if (!pattern_intact(slot[k], kFillBytes, mix64(key, k))) {
              badp[k] = 1;
            }
            mgr.free(t, slot[k]);
          }
        },
        kBlockDim);
    st.free_ms = ls.elapsed_ms;
    st.free_ctr = ls.counters;
  }
  st.frees = st.ok;
  for (std::size_t k = 0; k < kSlots; ++k) {
    if (bad[k] != 0) {
      ctx.out.fail(c.spec + ": fill pattern corrupted in slot " +
                   std::to_string(k));
      break;
    }
  }
  check_quiescent(ctx, c);
  if (ctx.log.on()) {
    auto s = ctx.log.open("gpu.launch.floor", ctx.step_id);
    st.floor_ms = c.dev->launch_n(kFillLanes, [](gpu::ThreadCtx&) {},
                                  kBlockDim)
                      .elapsed_ms;
  }
  return st;
}

}  // namespace

Run run_near_oom(const Options& opt, SpanLog& log) {
  static const char* const kStacks[] = {
      "XMalloc", "validate>XMalloc", "resilient>XMalloc",
      "resilient>validate>Ouro-C-S", "HostBuddy"};
  Run run;
  Ctx ctx{log, run.out, {}, 0, 0};
  register_allocators(log);
  std::vector<Cell> cells;
  for (const char* s : kStacks) {
    cells.push_back(make_cell(ctx, s, kFillHeap, kFillLanes));
  }
  run.setup_s = ms_since(process_start()) / 1000.0;

  // A near_oom operation is one fill; its nullptr ends it and is no failure.
  std::uint64_t fills = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t pass = 0;
       ms_since(t0) < opt.seconds * 1000.0 && run.out.errors.empty(); ++pass) {
    for (auto& c : cells) {
      const Step st = run_fill(ctx, c, mix64(opt.seed ^ pass, 3));
      ctx.calls += st.mallocs + st.frees;
      ctx.step_ms.push_back(st.malloc_ms + st.free_ms);
      c.steps.push_back(st);
      ++ctx.step_id;
      ++fills;
    }
  }
  run.out.attempted = fills;

  std::vector<const Cell*> all, bare;
  for (const auto& c : cells) {
    all.push_back(&c);
    if (core::StackSpec::parse(c.spec).stages.empty()) bare.push_back(&c);
  }
  add_e2e(ctx, all);
  add_layers(ctx, all, bare);
  if (log.on()) {
    for (const auto& c : cells) {
      const std::string p = layer_prefix(c);
      std::uint64_t failed = 0, fill_atomics = 0;
      for (const auto& s : c.steps) {
        failed += s.mallocs - s.ok;
        fill_atomics += s.malloc_ctr.atomic_total();
      }
      ctx.out.detail.push_back(
          {p + "fill_s", median(per_step(c, fill_ms)) / 1000.0, "s"});
      ctx.out.detail.push_back(
          {p + "atomics_per_failed_malloc",
           static_cast<double>(fill_atomics) / std::max<std::uint64_t>(failed, 1),
           "count"});
    }
  }
  return run;
}

}  // namespace perfbench
