// Stack-composition conformance (DESIGN.md §10): every registered base
// allocator is driven through the StackBuilder under each decorator
// permutation the harness actually ships — "validate", "fault>validate",
// "trace>fault>validate", "warpagg" — and the composed stack must uphold
// the same contracts the bare manager does: the decorated trait is set,
// layer pointers are harvested, audits merge down the chain, churn
// completes, and the large-request relay still honours
// malloc(max_direct_size + delta) for relaying managers.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_core/warp_aggregator.h"
#include "core/fault_inject.h"
#include "core/registry.h"
#include "core/stack_builder.h"
#include "core/validating_manager.h"
#include "gpu/device.h"
#include "trace/trace_recorder.h"
#include "trace/tracing_manager.h"

namespace gms {
namespace {

using core::StackBuilder;
using core::StackSpec;
using gpu::Device;
using gpu::GpuConfig;
using gpu::ThreadCtx;

// ScatterAlloc's region carving needs a comfortably non-tiny heap (see
// test_trace.cpp); the relay checks also want headroom above max_direct_size.
constexpr std::size_t kHeapBytes = 64u << 20;
constexpr std::size_t kArenaBytes = kHeapBytes + (8u << 20);
constexpr unsigned kNumSms = 2;

struct RegisterAllocators {
  RegisterAllocators() { core::register_all_allocators(); }
};
const RegisterAllocators register_allocators;

/// Small malloc/free churn respecting the base's capability traits, so the
/// same driver works for warp-scoped (FDGMalloc) and free-less (Atomic)
/// managers.
void churn(Device& dev, core::MemoryManager& mgr,
           const core::AllocatorTraits& base) {
  constexpr std::size_t kThreads = 256;
  std::vector<void*> ptrs(kThreads, nullptr);
  dev.launch_n(kThreads, [&](ThreadCtx& t) {
    const std::size_t size = 16 + (t.thread_rank() % 7) * 16;
    void* p = base.warp_level_only ? mgr.warp_malloc(t, size)
                                   : mgr.malloc(t, size);
    if (p != nullptr) *static_cast<std::uint8_t*>(p) = 1;
    ptrs[t.thread_rank()] = p;
  });
  dev.launch_n(kThreads, [&](ThreadCtx& t) {
    if (base.individual_free && base.supports_free) {
      mgr.free(t, ptrs[t.thread_rank()]);
    } else if (!base.individual_free) {
      mgr.warp_free_all(t);
    }
  });
}

class StackCompositionTest : public ::testing::TestWithParam<std::string> {
 protected:
  const core::RegistryEntry& base() {
    return *core::Registry::instance().find(GetParam());
  }
};

TEST_P(StackCompositionTest, ValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("validate>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  EXPECT_EQ(stack.injector, nullptr);
  EXPECT_EQ(stack.tracer, nullptr);
  EXPECT_EQ(stack.aggregator, nullptr);
  EXPECT_TRUE(stack.manager->traits().decorated);
  EXPECT_EQ(stack.name, GetParam() + "+V");
  EXPECT_EQ(std::string(stack.manager->traits().name), stack.name);

  churn(dev, *stack.manager, base().traits);
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // The validator's audit folds in the inner manager's: whenever the bare
  // manager supports introspection, the composed stack must too, and churn
  // must not have corrupted either layer.
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);  // the validator always walks its ledger
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, FaultValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev)
                   .fault(core::FaultSpec::parse("nth:5"))
                   .build("fault>validate>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  ASSERT_NE(stack.injector, nullptr);
  EXPECT_TRUE(stack.manager->traits().decorated);
  // Fault layers are transparent observers: the stack keeps the validated
  // twin's identity.
  EXPECT_EQ(stack.name, GetParam() + "+V");

  churn(dev, *stack.manager, base().traits);
  EXPECT_GT(stack.injector->calls(), 0u);
  EXPECT_GT(stack.injector->injected_failures(), 0u);
  // Injected nullptrs never reach the validator's redzone bookkeeping, so
  // the report stays clean and the audit chain stays intact.
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, TraceFaultValidateStack) {
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("trace>fault>validate>" + GetParam(),
                              kHeapBytes);
  ASSERT_NE(stack.validator, nullptr);
  ASSERT_NE(stack.injector, nullptr);  // default spec: pass-through
  ASSERT_NE(stack.tracer, nullptr);
  ASSERT_NE(stack.recorder, nullptr);
  EXPECT_EQ(stack.name, GetParam() + "+V");

  stack.recorder->set_enabled(true);
  churn(dev, *stack.manager, base().traits);
  stack.recorder->set_enabled(false);
  dev.set_launch_observer(nullptr);
  EXPECT_EQ(stack.injector->injected_failures(), 0u);  // kNone passes through
  // The outermost tracer saw every surviving request the kernel issued.
  const auto events = stack.recorder->drain();
  EXPECT_GT(events.size(), 0u);
  auto audit = stack.manager->audit();
  EXPECT_TRUE(audit.supported);
  EXPECT_TRUE(audit.ok) << audit.detail;
}

TEST_P(StackCompositionTest, WarpAggStack) {
  if (!base().traits.general_purpose) {
    GTEST_SKIP() << GetParam() << " is not general purpose";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  // Pin the aggregated path: the adaptive default would keep an uncontended
  // churn on passthrough (that regime has its own tests in test_warpagg).
  auto stack = StackBuilder(dev)
                   .warpagg(core::WarpAggSpec::parse("always"))
                   .build("warpagg>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.aggregator, nullptr);
  EXPECT_EQ(stack.validator, nullptr);
  EXPECT_TRUE(stack.manager->traits().decorated);
  EXPECT_EQ(stack.name, GetParam() + "+W");

  churn(dev, *stack.manager, base().traits);
  const auto report = stack.aggregator->report();
  if (stack.aggregator->inner().traits().max_direct_size >= 32u * 1024) {
    // Slab-capable inner: whole warps allocating together must have been
    // combined into single bump-carved spans.
    EXPECT_GT(report.lanes_served, 0u);
    EXPECT_GT(report.groups_combined, 0u);
    EXPECT_GT(report.slab_refills, 0u);
  } else {
    // Too small a direct-service ceiling for a slab window (Halloc,
    // Ouroboros): the aggregated path must degrade per-lane, not combine.
    EXPECT_EQ(report.groups_combined, 0u);
    EXPECT_GT(report.solo_fallbacks, 0u);
  }
}

TEST_P(StackCompositionTest, WarpAggAdaptiveDefaultStaysPassthroughWhenCalm) {
  if (!base().traits.general_purpose) {
    GTEST_SKIP() << GetParam() << " is not general purpose";
  }
  if (GetParam().find("CUDA") != std::string::npos) {
    // The stand-in's spin lock is the contended regime the adaptive policy
    // exists to catch; its switching behaviour is covered in test_warpagg.
    GTEST_SKIP() << GetParam() << " is deliberately contended";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack = StackBuilder(dev).build("warpagg>" + GetParam(), kHeapBytes);
  ASSERT_NE(stack.aggregator, nullptr);
  churn(dev, *stack.manager, base().traits);
  const auto report = stack.aggregator->report();
  // A short uncontended churn must be served on the per-lane path.
  EXPECT_GT(report.passthrough_calls, 0u);
  EXPECT_EQ(report.switches_to_agg, 0u) << report.to_string();
}

TEST_P(StackCompositionTest, RelayContractSurvivesValidation) {
  const auto traits = base().traits;
  if (!traits.relays_large_to_system) {
    GTEST_SKIP() << GetParam() << " has no system relay";
  }
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  auto stack =
      StackBuilder(dev).build("validate>" + GetParam(), kHeapBytes);
  // A request just past the direct-service ceiling must still succeed by
  // relaying to the system stand-in — with the validator's redzones intact
  // around the relayed block.
  const std::size_t big = traits.max_direct_size + 64;
  std::vector<void*> slot(1, nullptr);
  dev.launch_n(1, [&](ThreadCtx& t) {
    slot[0] = traits.warp_level_only ? stack.manager->warp_malloc(t, big)
                                     : stack.manager->malloc(t, big);
    if (slot[0] != nullptr) {
      auto* bytes = static_cast<std::uint8_t*>(slot[0]);
      bytes[0] = 0xAB;
      bytes[big - 1] = 0xCD;
    }
  });
  ASSERT_NE(slot[0], nullptr);
  dev.launch_n(1, [&](ThreadCtx& t) {
    if (traits.individual_free && traits.supports_free) {
      stack.manager->free(t, slot[0]);
    } else if (!traits.individual_free) {
      stack.manager->warp_free_all(t);
    }
  });
  const auto report = stack.validator->drain_report(false);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, StackCompositionTest,
    ::testing::ValuesIn(core::Registry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- spec parsing and builder error paths --------------------------------

TEST(StackSpecTest, ParsesStagesOutermostFirstAndBase) {
  const auto spec = StackSpec::parse("trace>fault>validate>Halloc");
  ASSERT_EQ(spec.stages.size(), 3u);
  EXPECT_EQ(spec.stages[0], StackSpec::Stage::kTrace);
  EXPECT_EQ(spec.stages[1], StackSpec::Stage::kFault);
  EXPECT_EQ(spec.stages[2], StackSpec::Stage::kValidate);
  EXPECT_EQ(spec.base, "Halloc");
  EXPECT_EQ(spec.to_string(), "trace>fault>validate>Halloc");
}

TEST(StackSpecTest, StageOnlySpecLeavesBaseEmpty) {
  const auto spec = StackSpec::parse("trace>validate");
  EXPECT_EQ(spec.stages.size(), 2u);
  EXPECT_TRUE(spec.base.empty());
}

TEST(StackSpecTest, BareNameIsABase) {
  const auto spec = StackSpec::parse("Ouro-P-VA");
  EXPECT_TRUE(spec.stages.empty());
  EXPECT_EQ(spec.base, "Ouro-P-VA");
}

TEST(StackSpecTest, NameIsTheBuiltStacksIdentity) {
  // Benches label rows with the spec's name before anything is built; it
  // must be the identity the built stack reports.
  EXPECT_EQ(StackSpec::parse("trace>resilient>fault>validate>XMalloc").name(),
            "XMalloc+V+R");
  Device dev(kArenaBytes, GpuConfig{.num_sms = kNumSms});
  for (const char* text : {"XMalloc", "fault>XMalloc", "validate>XMalloc",
                           "resilient>warpagg>validate>XMalloc",
                           "warpagg>XMalloc+R"}) {
    const auto spec = StackSpec::parse(text);
    const auto stack = StackBuilder(dev).build(spec, kHeapBytes);
    EXPECT_EQ(stack.name, spec.name()) << text;
    if (!spec.has(StackSpec::Stage::kFault)) {  // fault names itself "+F"
      EXPECT_EQ(std::string(stack.manager->traits().name), spec.name())
          << text;
    }
  }
}

TEST(StackSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW((void)StackSpec::parse("validate>validate>Halloc"),
               std::invalid_argument);  // duplicate stage
  EXPECT_THROW((void)StackSpec::parse("bogus>validate>Halloc"),
               std::invalid_argument);  // unknown non-last token
  EXPECT_THROW((void)StackSpec::parse("trace>>Halloc"),
               std::invalid_argument);  // empty token
  EXPECT_THROW((void)StackSpec::parse(""), std::invalid_argument);
}

TEST(StackBuilderTest, UnknownBaseThrows) {
  Device dev(8u << 20, GpuConfig{.num_sms = 1});
  EXPECT_THROW((void)StackBuilder(dev).build("validate>Nope", 1u << 20),
               std::invalid_argument);
  // A stage-only spec reaching build() unresolved is equally unknown.
  EXPECT_THROW((void)StackBuilder(dev).build("trace>validate", 1u << 20),
               std::invalid_argument);
}

TEST(StackBuilderTest, TraceStageHasNoStandaloneFactory) {
  const auto* entry = core::Registry::instance().find("CUDA");
  ASSERT_NE(entry, nullptr);
  EXPECT_THROW((void)StackBuilder::stage_factory(StackSpec::Stage::kTrace,
                                                 entry->factory),
               std::invalid_argument);
}

}  // namespace
}  // namespace gms
