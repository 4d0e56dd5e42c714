#include "src/storage/storage_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/support/rng.h"
#include "tests/legacy_free_list.h"

namespace ssmc {
namespace {

FlashSpec TestFlashSpec() {
  FlashSpec spec;
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;
  spec.erase_ns = kMillisecond;
  spec.endurance_cycles = 1000000;
  return spec;
}

DramSpec TestDramSpec() {
  DramSpec spec;
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  return spec;
}

class StorageManagerTest : public ::testing::Test {
 protected:
  StorageManagerTest()
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        flash_(TestFlashSpec(), 128 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512) {}

  SimClock clock_;
  DramDevice dram_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
};

TEST_F(StorageManagerTest, PageCountsFromCapacity) {
  EXPECT_EQ(manager_.total_dram_pages(), 128u);  // 64 KiB / 512.
  EXPECT_EQ(manager_.free_dram_pages(), 128u);
  EXPECT_EQ(manager_.total_flash_blocks(), store_.num_blocks());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks());
}

TEST_F(StorageManagerTest, DramPagesAllocatedLowFirst) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  Result<uint64_t> b = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(manager_.free_dram_pages(), 126u);
  EXPECT_EQ(manager_.DramPageAddress(b.value()), 512u);
}

TEST_F(StorageManagerTest, FreeReturnsPageToPool) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(manager_.FreeDramPage(a.value()).ok());
  EXPECT_EQ(manager_.free_dram_pages(), 128u);
}

TEST_F(StorageManagerTest, DoubleFreeDetected) {
  Result<uint64_t> a = manager_.AllocateDramPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(manager_.FreeDramPage(a.value()).ok());
  EXPECT_EQ(manager_.FreeDramPage(a.value()).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(manager_.FreeDramPage(9999).code(), ErrorCode::kOutOfRange);
}

TEST_F(StorageManagerTest, DramExhaustionReturnsTypedOutOfMemory) {
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(manager_.AllocateDramPage().ok());
  }
  // A dry DRAM pool is a typed out-of-memory, distinct from media-level
  // kNoSpace: callers (and tests) can tell "machine out of RAM" apart from
  // "flash/disk full" without parsing messages.
  Result<uint64_t> dry = manager_.AllocateDramPage();
  ASSERT_FALSE(dry.ok());
  EXPECT_EQ(dry.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(ErrorCodeName(dry.status().code()), "RESOURCE_EXHAUSTED");
  // Flash exhaustion is a different failure domain and keeps kNoSpace.
  while (manager_.free_flash_blocks() > 0) {
    ASSERT_TRUE(manager_.AllocateFlashBlock().ok());
  }
  EXPECT_EQ(manager_.AllocateFlashBlock().status().code(),
            ErrorCode::kNoSpace);
}

TEST_F(StorageManagerTest, FlashBlockAllocateAndFree) {
  Result<uint64_t> b = manager_.AllocateFlashBlock();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks() - 1);
  // Write something so the free also trims.
  std::vector<uint8_t> data(512, 0xAA);
  ASSERT_TRUE(store_.Write(b.value(), data).ok());
  ASSERT_TRUE(manager_.FreeFlashBlock(b.value()).ok());
  EXPECT_EQ(manager_.free_flash_blocks(), store_.num_blocks());
  EXPECT_FALSE(store_.IsMapped(b.value()));
}

TEST_F(StorageManagerTest, FlashDoubleFreeDetected) {
  Result<uint64_t> b = manager_.AllocateFlashBlock();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(manager_.FreeFlashBlock(b.value()).ok());
  EXPECT_EQ(manager_.FreeFlashBlock(b.value()).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(StorageManagerTest, MetadataChargesAdvanceClock) {
  const SimTime before = clock_.now();
  manager_.ChargeMetadataRead(64);
  EXPECT_GT(clock_.now(), before);
  const SimTime mid = clock_.now();
  manager_.ChargeMetadataWrite(64);
  EXPECT_GT(clock_.now(), mid);
}

// --- Allocation-order differential --------------------------------------
// The manager's index pools against the preloaded free stacks they replaced
// (tests/legacy_free_list.h): every allocate/free/reserve must return the
// same index or error code, and leave the same free counts.

struct AllocatorRig {
  SimClock clock;
  DramDevice dram{TestDramSpec(), 64 * 1024, clock};
  FlashDevice flash{TestFlashSpec(), 128 * 1024, 1, clock};
  FlashStore store{flash, {}};
  StorageManager manager{dram, store, 512};
  LegacyFreeList dram_ref{manager.total_dram_pages(),
                          ResourceExhaustedError("out of DRAM pages")};
  LegacyFreeList flash_ref{manager.total_flash_blocks(),
                           NoSpaceError("out of flash blocks")};

  static void ExpectSame(const Result<uint64_t>& got,
                         const Result<uint64_t>& want) {
    EXPECT_EQ(got.status().code(), want.status().code());
    if (got.ok() && want.ok()) {
      EXPECT_EQ(got.value(), want.value());
    }
  }
  void ExpectSameCounts() const {
    EXPECT_EQ(manager.free_dram_pages(), dram_ref.free_count());
    EXPECT_EQ(manager.free_flash_blocks(), flash_ref.free_count());
  }

  Result<uint64_t> AllocateDram() {
    Result<uint64_t> got = manager.AllocateDramPage();
    ExpectSame(got, dram_ref.Allocate());
    ExpectSameCounts();
    return got;
  }
  ErrorCode FreeDram(uint64_t page) {
    const Status got = manager.FreeDramPage(page);
    EXPECT_EQ(got.code(), dram_ref.Free(page).code()) << "page " << page;
    ExpectSameCounts();
    return got.code();
  }
  Result<uint64_t> AllocateFlash() {
    Result<uint64_t> got = manager.AllocateFlashBlock();
    ExpectSame(got, flash_ref.Allocate());
    ExpectSameCounts();
    return got;
  }
  ErrorCode FreeFlash(uint64_t block) {
    const Status got = manager.FreeFlashBlock(block);
    EXPECT_EQ(got.code(), flash_ref.Free(block).code()) << "block " << block;
    ExpectSameCounts();
    return got.code();
  }
  ErrorCode ReserveFlash(uint64_t block) {
    const Status got = manager.ReserveFlashBlock(block);
    EXPECT_EQ(got.code(), flash_ref.Reserve(block).code()) << "block " << block;
    EXPECT_EQ(manager.IsFlashBlockUsed(block), flash_ref.used(block));
    ExpectSameCounts();
    return got.code();
  }
  // Allocates until the pool is dry, comparing every index handed out.
  void DrainFlash() {
    while (AllocateFlash().ok()) {
    }
    EXPECT_EQ(manager.free_flash_blocks(), 0u);
  }
};

TEST(AllocatorDifferentialTest, ClaimAboveMarkThenFreeThenDrain) {
  AllocatorRig rig;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.AllocateFlash().ok());  // 0, 1, 2.
  }
  // Claims ahead of the never-taken mark, out of address order.
  EXPECT_EQ(rig.ReserveFlash(10), ErrorCode::kOk);
  EXPECT_EQ(rig.ReserveFlash(5), ErrorCode::kOk);
  EXPECT_EQ(rig.ReserveFlash(5), ErrorCode::kAlreadyExists);
  EXPECT_EQ(rig.FreeFlash(10), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeFlash(1), ErrorCode::kOk);
  // Freed blocks come back last-freed first, ahead of never-taken ones.
  EXPECT_EQ(rig.AllocateFlash().value_or(~0ull), 1u);
  EXPECT_EQ(rig.AllocateFlash().value_or(~0ull), 10u);
  // The mark walks past both claimed blocks without handing them out again.
  rig.DrainFlash();
  EXPECT_EQ(rig.ReserveFlash(rig.manager.total_flash_blocks()),
            ErrorCode::kOutOfRange);
}

TEST(AllocatorDifferentialTest, ClaimBlockThatWasFreed) {
  AllocatorRig rig;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rig.AllocateFlash().ok());  // 0..4.
  }
  EXPECT_EQ(rig.FreeFlash(2), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeFlash(4), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeFlash(0), ErrorCode::kOk);
  EXPECT_EQ(rig.ReserveFlash(4), ErrorCode::kOk);  // Mid-stack.
  EXPECT_EQ(rig.AllocateFlash().value_or(~0ull), 0u);
  EXPECT_EQ(rig.AllocateFlash().value_or(~0ull), 2u);
  EXPECT_EQ(rig.AllocateFlash().value_or(~0ull), 5u);
  rig.DrainFlash();
}

TEST(AllocatorDifferentialTest, ExhaustionIsTyped) {
  AllocatorRig rig;
  while (rig.AllocateDram().ok()) {
  }
  EXPECT_EQ(rig.AllocateDram().status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(rig.FreeDram(7), ErrorCode::kOk);
  EXPECT_EQ(rig.AllocateDram().value_or(~0ull), 7u);

  EXPECT_EQ(rig.ReserveFlash(3), ErrorCode::kOk);
  rig.DrainFlash();
  EXPECT_EQ(rig.AllocateFlash().status().code(), ErrorCode::kNoSpace);
  EXPECT_EQ(rig.ReserveFlash(0), ErrorCode::kAlreadyExists);
}

TEST(AllocatorDifferentialTest, DoubleFreeIsFailedPrecondition) {
  AllocatorRig rig;
  const uint64_t page = rig.AllocateDram().value_or(~0ull);
  EXPECT_EQ(rig.FreeDram(page), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeDram(page), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(rig.FreeDram(page + 1), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(rig.FreeDram(rig.manager.total_dram_pages()),
            ErrorCode::kOutOfRange);

  EXPECT_EQ(rig.ReserveFlash(9), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeFlash(9), ErrorCode::kOk);
  EXPECT_EQ(rig.FreeFlash(9), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(rig.FreeFlash(0), ErrorCode::kFailedPrecondition);
}

TEST(AllocatorDifferentialTest, RandomSequencesMatchLegacyFreeStacks) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    AllocatorRig rig;
    Rng rng(seed);
    std::vector<uint64_t> pages;   // Held DRAM pages.
    std::vector<uint64_t> blocks;  // Held flash blocks.
    const uint64_t total_pages = rig.manager.total_dram_pages();
    const uint64_t total_blocks = rig.manager.total_flash_blocks();
    int dram_dry = 0;
    int flash_dry = 0;
    // Alternating fill-heavy and free-heavy phases drain the pools to
    // exhaustion and refill them several times per seed.
    for (int step = 0; step < 6000 && !::testing::Test::HasFailure();
         ++step) {
      const double grow = (step / 1000) % 2 == 0 ? 0.9 : 0.1;
      // Frees and claims pick a held index half the time; otherwise any
      // index, including double frees, in-use claims and out-of-range ones.
      auto pick = [&](std::vector<uint64_t>& held, uint64_t total) {
        if (!held.empty() && rng.NextBool(0.5)) {
          const size_t k = rng.NextBelow(held.size());
          const uint64_t i = held[k];
          held[k] = held.back();
          held.pop_back();
          return i;
        }
        return rng.NextBelow(total + 2);
      };
      const auto erase = [](std::vector<uint64_t>& held, uint64_t i) {
        std::erase(held, i);
      };
      switch (rng.NextBelow(5)) {
        case 0:
          if (rng.NextBool(grow)) {
            if (Result<uint64_t> p = rig.AllocateDram(); p.ok()) {
              pages.push_back(p.value());
            } else {
              dram_dry += 1;
            }
          } else {
            const uint64_t p = pick(pages, total_pages);
            if (rig.FreeDram(p) == ErrorCode::kOk) {
              erase(pages, p);
            }
          }
          break;
        case 1:
        case 2:
          if (rng.NextBool(grow)) {
            if (Result<uint64_t> b = rig.AllocateFlash(); b.ok()) {
              blocks.push_back(b.value());
            } else {
              flash_dry += 1;
            }
          } else {
            const uint64_t b = pick(blocks, total_blocks);
            if (rig.FreeFlash(b) == ErrorCode::kOk) {
              erase(blocks, b);
            }
          }
          break;
        default: {
          const uint64_t b = rng.NextBelow(total_blocks + 2);
          if (rig.ReserveFlash(b) == ErrorCode::kOk) {
            blocks.push_back(b);
          }
          break;
        }
      }
    }
    EXPECT_GT(dram_dry, 0);
    EXPECT_GT(flash_dry, 0);
    rig.DrainFlash();
  }
}

}  // namespace
}  // namespace ssmc
