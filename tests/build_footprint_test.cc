// Machine construction must cost what a user touches, not what the machine
// holds: building a machine with four times the DRAM and flash may allocate
// no more heap bytes than building the default one, up to a small fixed
// slack. This binary replaces the global operator new to count the bytes
// requested while a MobileComputer is being built.

#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/core/machine.h"

namespace {

bool g_counting = false;
uint64_t g_bytes = 0;
uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    g_bytes += n;
    g_allocations += 1;
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

// GCC 12 flags free() inside a replacement operator delete as a mismatch
// with operator new; here both sides are the malloc family by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ssmc {
namespace {

struct BuildCost {
  uint64_t bytes = 0;
  uint64_t allocations = 0;
};

// Heap bytes and allocations requested by the constructor alone (the
// machine is destroyed after counting stops).
BuildCost MeasureBuild(const MachineConfig& config) {
  g_bytes = 0;
  g_allocations = 0;
  g_counting = true;
  auto machine = std::make_unique<MobileComputer>(config);
  g_counting = false;
  return {g_bytes, g_allocations};
}

MachineConfig Scaled(MachineConfig config, uint64_t factor) {
  config.dram_bytes *= factor;
  config.flash_bytes *= factor;
  config.nvm_bytes *= factor;
  return config;
}

// Fixed slack for allocations whose size may legitimately depend on the
// geometry (none today).
constexpr uint64_t kSlackBytes = 1024;

TEST(BuildFootprintTest, CounterSeesConstruction) {
  const BuildCost cost = MeasureBuild(NotebookConfig());
  EXPECT_GT(cost.allocations, 0u);
  EXPECT_GT(cost.bytes, 0u);
}

TEST(BuildFootprintTest, NotebookBuildDoesNotScaleWithCapacity) {
  const BuildCost base = MeasureBuild(NotebookConfig());
  const BuildCost big = MeasureBuild(Scaled(NotebookConfig(), 4));
  EXPECT_LE(big.bytes, base.bytes + kSlackBytes)
      << "default machine: " << base.bytes << " B in " << base.allocations
      << " allocations; 4x DRAM and flash: " << big.bytes << " B in "
      << big.allocations << " allocations";
}

TEST(BuildFootprintTest, OtherMachinesDoNotScaleWithCapacity) {
  MachineConfig tiered = NotebookConfig();
  tiered.name = "tiered";
  tiered.nvm_bytes = 2 * kMiB;
  tiered.nvm_banks = 2;
  tiered.journal = true;
  tiered.residency.policy = ResidencyPolicy::kReadPromote;
  MachineConfig static_wear = NotebookConfig();
  static_wear.name = "static-wear";
  static_wear.store_options.wear = WearPolicy::kStatic;
  for (const MachineConfig& config :
       {OmniBookConfig(), PdaConfig(), tiered, static_wear}) {
    SCOPED_TRACE(config.name);
    const BuildCost base = MeasureBuild(config);
    const BuildCost big = MeasureBuild(Scaled(config, 4));
    EXPECT_LE(big.bytes, base.bytes + kSlackBytes)
        << base.bytes << " B at 1x, " << big.bytes << " B at 4x";
  }
}

}  // namespace
}  // namespace ssmc
