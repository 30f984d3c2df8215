// Compiled into gms_trace (not gms_core): the trace stage constructs
// TracingManager, which lives a layer above the core library. Everything
// else the builder touches (registry, validator, injector, aggregator) is
// visible from there without a dependency cycle.
#include "core/stack_builder.h"

#include <stdexcept>

#include "alloc_core/resilient_manager.h"
#include "alloc_core/warp_aggregator.h"
#include "core/validating_manager.h"
#include "hostalloc/host_manager.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"

namespace gms::core {

namespace {

constexpr std::string_view kStageNames[] = {"trace", "fault", "validate",
                                            "warpagg", "resilient"};
constexpr std::uint8_t kNumStages =
    static_cast<std::uint8_t>(std::size(kStageNames));

/// ResilienceObserver that forwards "+R" escalations into the stack's
/// TraceRecorder as recovery-marker events — the bridge the alloc_core
/// layer cannot build itself (it sits below gms_trace). Owned by the
/// ResilientManager, so it cannot outlive-dangle: the BuiltStack contract
/// already keeps the recorder alive as long as the manager.
class RecorderEscalationSink final : public ResilienceObserver {
 public:
  explicit RecorderEscalationSink(trace::TraceRecorder& rec) : rec_(rec) {}

  void on_escalation(gpu::ThreadCtx& ctx, EscalationKind kind,
                     std::uint64_t size, std::uint64_t detail) override {
    if (!rec_.enabled()) return;
    trace::TraceEvent ev;
    ev.kind = static_cast<std::uint8_t>(map(kind));
    ev.t_ns = rec_.now_ns();
    ev.size = size;
    ev.offset = detail;
    ev.thread_rank = ctx.thread_rank();
    ev.block = ctx.block_idx();
    ev.smid = static_cast<std::uint8_t>(ctx.smid());
    ev.lane = static_cast<std::uint8_t>(ctx.lane_id());
    ev.warp = static_cast<std::uint8_t>(ctx.warp_in_block());
    rec_.record(ctx.smid(), ev);
  }

 private:
  static trace::EventKind map(EscalationKind k) {
    switch (k) {
      case EscalationKind::kRetrySuccess:
        return trace::EventKind::kRetrySuccess;
      case EscalationKind::kFallbackAlloc:
        return trace::EventKind::kFallbackAlloc;
      case EscalationKind::kFallbackFree:
        return trace::EventKind::kFallbackFree;
      case EscalationKind::kBreakerTrip:
        return trace::EventKind::kBreakerTrip;
      case EscalationKind::kBreakerReset:
        return trace::EventKind::kBreakerReset;
      case EscalationKind::kUnrecovered:
        return trace::EventKind::kUnrecovered;
    }
    return trace::EventKind::kUnrecovered;
  }

  trace::TraceRecorder& rec_;
};

/// AggregationObserver that forwards "+W" mode switches and slab refills
/// into the stack's TraceRecorder as aggregation-marker events — the same
/// bridge as RecorderEscalationSink, one layer over. Owned by the
/// WarpAggregator; the BuiltStack contract keeps the recorder alive as long
/// as the manager.
class RecorderAggSink final : public AggregationObserver {
 public:
  explicit RecorderAggSink(trace::TraceRecorder& rec) : rec_(rec) {}

  void on_agg_event(gpu::ThreadCtx& ctx, AggEventKind kind, std::uint64_t size,
                    std::uint64_t detail) override {
    if (!rec_.enabled()) return;
    trace::TraceEvent ev;
    ev.kind = static_cast<std::uint8_t>(map(kind));
    ev.t_ns = rec_.now_ns();
    ev.size = size;
    ev.offset = detail;
    ev.thread_rank = ctx.thread_rank();
    ev.block = ctx.block_idx();
    ev.smid = static_cast<std::uint8_t>(ctx.smid());
    ev.lane = static_cast<std::uint8_t>(ctx.lane_id());
    ev.warp = static_cast<std::uint8_t>(ctx.warp_in_block());
    rec_.record(ctx.smid(), ev);
  }

 private:
  static trace::EventKind map(AggEventKind k) {
    switch (k) {
      case AggEventKind::kModeAggregated:
        return trace::EventKind::kAggModeAggregated;
      case AggEventKind::kModePassthrough:
        return trace::EventKind::kAggModePassthrough;
      case AggEventKind::kSlabRefill:
        return trace::EventKind::kAggSlabRefill;
    }
    return trace::EventKind::kAggSlabRefill;
  }

  trace::TraceRecorder& rec_;
};

/// HostPlacementObserver that forwards host-based placement decisions into
/// the stack's TraceRecorder as host-placement markers (EventKind 48-51) —
/// the same bridge as the sinks above, for the hostalloc layer. Owned by
/// the HostManagerBase; the BuiltStack contract keeps the recorder alive
/// as long as the manager.
class RecorderHostSink final : public hostalloc::HostPlacementObserver {
 public:
  explicit RecorderHostSink(trace::TraceRecorder& rec) : rec_(rec) {}

  void on_placement_event(gpu::ThreadCtx& ctx,
                          hostalloc::PlacementEventKind kind,
                          std::uint64_t size, std::uint64_t detail) override {
    if (!rec_.enabled()) return;
    trace::TraceEvent ev;
    ev.kind = static_cast<std::uint8_t>(map(kind));
    ev.t_ns = rec_.now_ns();
    ev.size = size;
    ev.offset = detail;
    ev.thread_rank = ctx.thread_rank();
    ev.block = ctx.block_idx();
    ev.smid = static_cast<std::uint8_t>(ctx.smid());
    ev.lane = static_cast<std::uint8_t>(ctx.lane_id());
    ev.warp = static_cast<std::uint8_t>(ctx.warp_in_block());
    rec_.record(ctx.smid(), ev);
  }

 private:
  static trace::EventKind map(hostalloc::PlacementEventKind k) {
    switch (k) {
      case hostalloc::PlacementEventKind::kCarve:
        return trace::EventKind::kHostCarve;
      case hostalloc::PlacementEventKind::kCoalesce:
        return trace::EventKind::kHostCoalesce;
      case hostalloc::PlacementEventKind::kStreamSync:
        return trace::EventKind::kHostStreamSync;
      case hostalloc::PlacementEventKind::kTrim:
        return trace::EventKind::kHostTrim;
    }
    return trace::EventKind::kHostCarve;
  }

  trace::TraceRecorder& rec_;
};

}  // namespace

std::string_view StackSpec::stage_name(Stage s) {
  return kStageNames[static_cast<std::uint8_t>(s)];
}

bool StackSpec::has(Stage s) const {
  for (Stage st : stages) {
    if (st == s) return true;
  }
  return false;
}

std::string StackSpec::name() const {
  std::string out = base;
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    switch (*it) {
      case Stage::kValidate:
        out += "+V";
        break;
      case Stage::kWarpAgg:
        out += "+W";
        break;
      case Stage::kResilient:
        out += "+R";
        break;
      case Stage::kTrace:
      case Stage::kFault:
        break;
    }
  }
  return out;
}

std::string StackSpec::to_string() const {
  std::string out;
  for (Stage s : stages) {
    out += std::string(stage_name(s)) + ">";
  }
  return out + base + format_config(base_config);
}

StackSpec StackSpec::parse(std::string_view spec) {
  StackSpec out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto gt = spec.find('>', pos);
    const auto tok = spec.substr(
        pos, gt == std::string_view::npos ? spec.size() - pos : gt - pos);
    const bool last = gt == std::string_view::npos;
    if (tok.empty()) {
      throw std::invalid_argument{"empty token in stack spec: \"" +
                                  std::string(spec) + "\""};
    }
    bool is_stage = false;
    for (std::uint8_t i = 0; i < kNumStages; ++i) {
      if (tok == kStageNames[i]) {
        const auto stage = static_cast<Stage>(i);
        if (out.has(stage)) {
          throw std::invalid_argument{"duplicate stack stage: " +
                                      std::string(tok)};
        }
        out.stages.push_back(stage);
        is_stage = true;
        break;
      }
    }
    if (!is_stage) {
      if (!last) {
        throw std::invalid_argument{
            "unknown stack stage: " + std::string(tok) +
            " (expected trace|fault|validate|warpagg|resilient)"};
      }
      const auto [name, braced] = split_config_suffix(tok);
      out.base = std::string(name);
      if (!braced.empty()) out.base_config = parse_config_overrides(braced);
    }
    if (last) break;
    pos = gt + 1;
  }
  return out;
}

ManagerFactory StackBuilder::stage_factory(StackSpec::Stage stage,
                                           ManagerFactory base, FaultSpec fault,
                                           ResilienceSpec resilience,
                                           WarpAggSpec warpagg) {
  switch (stage) {
    case StackSpec::Stage::kResilient:
      return [base = std::move(base), resilience](gpu::Device& dev,
                                                  std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<alloc_core::ResilientManager>(dev, heap, base,
                                                           resilience));
      };
    case StackSpec::Stage::kValidate:
      return [base = std::move(base)](gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<ValidatingManager>(dev, heap, base));
      };
    case StackSpec::Stage::kFault:
      return [base = std::move(base), fault](gpu::Device& dev,
                                             std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<FaultInjector>(base(dev, heap), fault));
      };
    case StackSpec::Stage::kWarpAgg:
      return [base = std::move(base), warpagg](gpu::Device& dev,
                                               std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<alloc_core::WarpAggregator>(base(dev, heap),
                                                         warpagg, dev));
      };
    case StackSpec::Stage::kTrace:
      break;
  }
  throw std::invalid_argument{
      "the trace stage needs a recorder and cannot be a twin factory"};
}

BuiltStack StackBuilder::build(std::string_view spec,
                               std::size_t heap_bytes) const {
  return build(StackSpec::parse(spec), heap_bytes);
}

BuiltStack StackBuilder::build(const StackSpec& spec,
                               std::size_t heap_bytes) const {
  const auto* entry = Registry::instance().find(spec.base);
  if (entry == nullptr) {
    throw std::invalid_argument{"unknown allocator: " + spec.base};
  }
  if (heap_bytes > dev_->arena().size()) {
    throw std::invalid_argument{"heap larger than device arena"};
  }

  BuiltStack out;
  if (spec.has(StackSpec::Stage::kTrace)) {
    out.recorder =
        std::make_unique<trace::TraceRecorder>(dev_->config().num_sms);
  }

  // Compose innermost-first: the stage closest to the base wraps first.
  // A "{k=v}" suffix on the base swaps in a configured factory (validated
  // eagerly, before any arena state changes).
  ManagerFactory f = entry->factory;
  if (!spec.base_config.empty()) {
    if (entry->config == nullptr) {
      throw ConfigError(ConfigError::Kind::kNotConfigurable, spec.base,
                        "allocator '" + spec.base +
                            "' takes no config overrides");
    }
    f = entry->config->configured_factory(spec.base_config);
  }
  for (auto it = spec.stages.rbegin(); it != spec.stages.rend(); ++it) {
    if (*it == StackSpec::Stage::kTrace) {
      f = [inner = std::move(f), rec = out.recorder.get()](
              gpu::Device& dev, std::size_t heap) {
        return std::unique_ptr<MemoryManager>(
            std::make_unique<trace::TracingManager>(inner(dev, heap), *rec,
                                                    dev.arena()));
      };
    } else {
      f = stage_factory(*it, std::move(f), fault_, resilience_, warpagg_);
    }
  }

  dev_->arena().clear();  // identical cold start, like Registry::make
  out.manager = f(*dev_, heap_bytes);

  // Harvest borrowed layer pointers by walking the chain outermost-in.
  MemoryManager* m = out.manager.get();
  while (m != nullptr) {
    if (auto* t = dynamic_cast<trace::TracingManager*>(m)) {
      if (out.tracer == nullptr) out.tracer = t;
      m = &t->inner();
    } else if (auto* fi = dynamic_cast<FaultInjector*>(m)) {
      if (out.injector == nullptr) out.injector = fi;
      m = &fi->inner();
    } else if (auto* v = dynamic_cast<ValidatingManager*>(m)) {
      if (out.validator == nullptr) out.validator = v;
      m = &v->inner();
    } else if (auto* w = dynamic_cast<alloc_core::WarpAggregator*>(m)) {
      if (out.aggregator == nullptr) out.aggregator = w;
      m = &w->inner();
    } else if (auto* r = dynamic_cast<alloc_core::ResilientManager*>(m)) {
      if (out.resilient == nullptr) out.resilient = r;
      m = &r->inner();
    } else {
      // `m` is the base manager; note host-based bases for the trace sink.
      out.host = dynamic_cast<hostalloc::HostManagerBase*>(m);
      break;
    }
  }
  out.name = spec.name();

  if (out.recorder != nullptr) {
    dev_->set_launch_observer(out.recorder.get());
    // A traced resilient stage reports its escalations into the recording:
    // recovery traffic becomes first-class trace events (Chrome export's
    // "resilience" category) without the digest ever seeing them.
    if (out.resilient != nullptr) {
      out.resilient->set_observer(
          std::make_unique<RecorderEscalationSink>(*out.recorder));
    }
    // Likewise for a traced warpagg stage: mode switches and slab refills
    // become "warpagg"-category trace markers, outside the digest.
    if (out.aggregator != nullptr) {
      out.aggregator->set_observer(
          std::make_unique<RecorderAggSink>(*out.recorder));
    }
    // A traced host-based base reports its placement decisions (carves,
    // coalesces, stream syncs/trims) as "hostalloc"-category markers,
    // outside the digest.
    if (out.host != nullptr) {
      out.host->set_observer(
          std::make_unique<RecorderHostSink>(*out.recorder));
    }
  }
  return out;
}

}  // namespace gms::core
