#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_inject.h"
#include "core/memory_manager.h"
#include "core/registry.h"
#include "core/resilience.h"
#include "core/warpagg.h"
#include "gpu/device.h"

namespace gms::trace {
class TraceRecorder;
class TracingManager;
}  // namespace gms::trace

namespace gms::alloc_core {
class ResilientManager;
class WarpAggregator;
}  // namespace gms::alloc_core

namespace gms::hostalloc {
class HostManagerBase;
}  // namespace gms::hostalloc

namespace gms::core {

class ValidatingManager;

/// Parsed form of a manager-stack spec: decorator stages outermost-first,
/// then the base allocator's registry name — "trace>fault>validate>Halloc"
/// builds TracingManager(FaultInjector(ValidatingManager(Halloc))).
struct StackSpec {
  enum class Stage : std::uint8_t {
    kTrace,
    kFault,
    kValidate,
    kWarpAgg,
    kResilient,
  };

  std::vector<Stage> stages;  ///< outermost first, as written
  std::string base;           ///< registry name; empty for a stage-only spec
  /// Config overrides split off the base token ("validate>Halloc{slab_bytes=
  /// 2097152}"): applied over the registry entry's default Config when the
  /// stack is built. Empty = the entry's stock factory, byte-identical to
  /// the pre-config behaviour.
  ConfigKV base_config;

  /// Stage tokens: "trace", "fault", "validate", "warpagg", "resilient".
  /// The last
  /// '>'-separated token that is not a stage name becomes the base (an
  /// optional "{k=v,...}" suffix on it parses into base_config); a spec
  /// of stages only ("trace>validate") leaves base empty so one --stack
  /// stage list can apply across a whole -t selection. Throws
  /// std::invalid_argument on unknown stages, duplicates, or empty tokens,
  /// and ConfigError on a malformed "{...}" suffix.
  static StackSpec parse(std::string_view spec);

  static std::string_view stage_name(Stage s);
  [[nodiscard]] bool has(Stage s) const;
  [[nodiscard]] std::string to_string() const;
  /// Identity of the stack this spec builds (BuiltStack::name): the base
  /// plus "+V"/"+W"/"+R" per validate/warpagg/resilient stage, innermost
  /// first; trace and fault stages are transparent — "Halloc+V" for
  /// "trace>validate>Halloc".
  [[nodiscard]] std::string name() const;
};

/// Result of StackBuilder::build(): the composed manager plus borrowed
/// pointers into each decorator layer (all owned via `manager`), and the
/// recorder backing a trace stage. The caller keeps the recorder alive as
/// long as the manager and clears the device's launch observer before
/// destroying it (build() registers the recorder as observer).
struct BuiltStack {
  std::unique_ptr<MemoryManager> manager;
  ValidatingManager* validator = nullptr;
  FaultInjector* injector = nullptr;
  trace::TracingManager* tracer = nullptr;
  alloc_core::WarpAggregator* aggregator = nullptr;
  alloc_core::ResilientManager* resilient = nullptr;
  /// The base manager when it belongs to the host-based family (nullptr for
  /// device-side bases): the seam for the host-placement trace sink.
  hostalloc::HostManagerBase* host = nullptr;
  std::unique_ptr<trace::TraceRecorder> recorder;  ///< set iff a trace stage

  /// Identity of the stack (StackSpec::name): the name of the outermost
  /// layer that is not a pure observer — "Halloc", "Halloc+V", "Halloc+W".
  /// Matches the registered twin names and the allocator field written into
  /// trace headers.
  std::string name;
};

/// The one decorator-wiring path. Registry twin registration ("+V"/"+W"),
/// ManagedDevice in bench_common.h, the survey runner (via ManagedDevice)
/// and bench_replay all compose their stacks here; nothing outside this
/// class and the tests constructs Validating/Fault/Tracing decorators
/// directly.
class StackBuilder {
 public:
  explicit StackBuilder(gpu::Device& dev) : dev_(&dev) {}

  /// Configuration consumed by a "fault" stage (ignored without one). The
  /// default FaultSpec{} is mode kNone: a pass-through injector.
  StackBuilder& fault(const FaultSpec& spec) {
    fault_ = spec;
    return *this;
  }

  /// Policy knobs consumed by a "resilient" stage (ignored without one).
  StackBuilder& resilience(const ResilienceSpec& spec) {
    resilience_ = spec;
    return *this;
  }

  /// Policy knobs consumed by a "warpagg" stage (ignored without one). The
  /// default WarpAggSpec{} is the adaptive policy with stock thresholds.
  StackBuilder& warpagg(const WarpAggSpec& spec) {
    warpagg_ = spec;
    return *this;
  }

  /// Builds the stack over a freshly cleared arena (Registry::make
  /// semantics: throws on unknown base or a heap larger than the arena).
  [[nodiscard]] BuiltStack build(const StackSpec& spec,
                                 std::size_t heap_bytes) const;
  [[nodiscard]] BuiltStack build(std::string_view spec,
                                 std::size_t heap_bytes) const;

  /// Factory wrapping `base` in one stage — the registry's twin-registration
  /// hook, so "+V"/"+W" twins and --stack specs share the same wiring. The
  /// trace stage needs a live recorder and cannot be a standalone factory;
  /// passing kTrace throws std::invalid_argument.
  static ManagerFactory stage_factory(StackSpec::Stage stage,
                                      ManagerFactory base, FaultSpec fault = {},
                                      ResilienceSpec resilience = {},
                                      WarpAggSpec warpagg = {});

 private:
  gpu::Device* dev_;
  FaultSpec fault_{};
  ResilienceSpec resilience_{};
  WarpAggSpec warpagg_{};
};

}  // namespace gms::core
