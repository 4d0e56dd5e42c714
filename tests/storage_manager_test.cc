#include "src/storage/storage_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/machine.h"
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

// --- Page payload tables ---------------------------------------------------
// The payload tables end at the highest page written so far. Pages below
// that point and pages past it (never allocated or written) must read,
// write, install and lend their payloads identically, and charge the same
// DRAM/NVM time.

std::vector<uint8_t> Pattern(uint64_t bytes, uint8_t base) {
  std::vector<uint8_t> out(bytes);
  for (uint64_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>(base + i);
  }
  return out;
}

TEST_F(StorageManagerTest, DramPayloadsBelowAndPastTheTableEnd) {
  constexpr uint64_t kBs = 512;
  const std::vector<uint8_t> zeros(kBs, 0);
  ASSERT_EQ(manager_.AllocateDramPage().value(), 0u);
  ASSERT_EQ(manager_.AllocateDramPage().value(), 1u);
  const std::vector<uint8_t> a = Pattern(kBs, 1);
  const Duration write_below = manager_.WritePagePayload(0, 0, a);

  // Reads: a written page, an allocated never-written page, and a page far
  // past anything written all cost the same; the last two read zeros.
  std::vector<uint8_t> out(kBs, 0xEE);
  SimTime t0 = clock_.now();
  const Duration read_below = manager_.ReadPagePayload(0, 0, out);
  EXPECT_EQ(clock_.now() - t0, read_below);
  EXPECT_EQ(out, a);
  EXPECT_EQ(manager_.ReadPagePayload(1, 0, out), read_below);
  EXPECT_EQ(out, zeros);
  out.assign(kBs, 0xEE);
  t0 = clock_.now();
  EXPECT_EQ(manager_.ReadPagePayload(100, 0, out), read_below);
  EXPECT_EQ(clock_.now() - t0, read_below);
  EXPECT_EQ(out, zeros);

  // Writes past the end: a whole page and a partial one (zero-filled
  // around the written bytes).
  const std::vector<uint8_t> b = Pattern(kBs, 50);
  EXPECT_EQ(manager_.WritePagePayload(90, 0, b), write_below);
  const std::vector<uint8_t> snippet = {7, 8, 9};
  manager_.WritePagePayload(120, 10, snippet);
  EXPECT_EQ(manager_.ReadPagePayload(90, 0, out), read_below);
  EXPECT_EQ(out, b);
  manager_.ReadPagePayload(120, 0, out);
  std::vector<uint8_t> want = zeros;
  std::copy(snippet.begin(), snippet.end(), want.begin() + 10);
  EXPECT_EQ(out, want);
  // Pages between the old end and a far write stay zero.
  manager_.ReadPagePayload(60, 0, out);
  EXPECT_EQ(out, zeros);

  // Installs and zero fills past the end, and a borrowed ref of a page no
  // one wrote (the shared zero extent).
  const std::vector<uint8_t> c = Pattern(kBs, 99);
  const Duration install = manager_.InstallPagePayload(
      127, manager_.extent_pool().AllocateCopy(c.data()));
  EXPECT_EQ(install, write_below);
  manager_.ReadPagePayload(127, 0, out);
  EXPECT_EQ(out, c);
  EXPECT_EQ(manager_.ZeroFillPagePayload(126), write_below);
  manager_.ReadPagePayload(126, 0, out);
  EXPECT_EQ(out, zeros);
  const PayloadRef lent = manager_.ReadPagePayloadRef(110);
  ASSERT_EQ(lent.size(), kBs);
  EXPECT_EQ(std::vector<uint8_t>(lent.data(), lent.data() + kBs), zeros);
  // Writing the lent page must not disturb the borrowed (shared) extent.
  manager_.WritePagePayload(110, 0, a);
  EXPECT_EQ(std::vector<uint8_t>(lent.data(), lent.data() + kBs), zeros);
  manager_.ReadPagePayload(110, 0, out);
  EXPECT_EQ(out, a);

  // Freeing drops the payload: the page reads zero when it comes back.
  ASSERT_TRUE(manager_.FreeDramPage(0).ok());
  ASSERT_EQ(manager_.AllocateDramPage().value(), 0u);
  manager_.ReadPagePayload(0, 0, out);
  EXPECT_EQ(out, zeros);

  // Battery failure: every page reads zero again, wherever it was, and the
  // tables keep working afterwards.
  manager_.WritePagePayload(0, 0, a);
  manager_.DropAllPagePayloads();
  for (const uint64_t page : {0u, 1u, 90u, 110u, 120u, 126u, 127u}) {
    manager_.ReadPagePayload(page, 0, out);
    EXPECT_EQ(out, zeros) << "page " << page;
  }
  manager_.WritePagePayload(127, 0, b);
  manager_.ReadPagePayload(127, 0, out);
  EXPECT_EQ(out, b);
  const PayloadRef zero_again = manager_.ReadPagePayloadRef(5);
  EXPECT_EQ(std::vector<uint8_t>(zero_again.data(), zero_again.data() + kBs),
            zeros);
}

TEST(StorageManagerNvmTest, NvmPayloadsBelowAndPastTheTableEnd) {
  constexpr uint64_t kBs = 512;
  SimClock clock;
  DramDevice dram(TestDramSpec(), 64 * 1024, clock);
  FlashDevice flash(TestFlashSpec(), 128 * 1024, 1, clock);
  FlashStore store(flash, {});
  NvmDevice nvm(PcmNvm(), 64 * 1024, 1, clock);
  StorageManager manager(dram, store, kBs, {}, &nvm);
  ASSERT_EQ(manager.total_nvm_pages(), 128u);
  const std::vector<uint8_t> zeros(kBs, 0);
  const std::vector<uint8_t> a = Pattern(kBs, 3);

  ASSERT_EQ(manager.AllocateNvmPage().value(), 0u);
  manager.InstallNvmPagePayload(0, manager.extent_pool().AllocateCopy(a.data()));
  std::vector<uint8_t> out(kBs, 0xEE);
  manager.ReadNvmPagePayload(0, 0, out);
  EXPECT_EQ(out, a);
  // Past the end: never-written pages read zeros, partially too.
  std::vector<uint8_t> part(16, 0xEE);
  manager.ReadNvmPagePayload(77, 100, part);
  EXPECT_EQ(part, std::vector<uint8_t>(16, 0));
  const PayloadRef lent = manager.ReadNvmPagePayloadRef(64);
  ASSERT_EQ(lent.size(), kBs);
  EXPECT_EQ(std::vector<uint8_t>(lent.data(), lent.data() + kBs), zeros);
  // Install far past the end, then read back a slice.
  const std::vector<uint8_t> b = Pattern(kBs, 200);
  manager.InstallNvmPagePayload(127, manager.extent_pool().AllocateCopy(b.data()));
  manager.ReadNvmPagePayload(127, 8, part);
  EXPECT_EQ(part, std::vector<uint8_t>(b.begin() + 8, b.begin() + 24));
  // NVM survives a DRAM content loss.
  manager.DropAllPagePayloads();
  manager.ReadNvmPagePayload(0, 0, out);
  EXPECT_EQ(out, a);
  // Freeing drops the payload.
  ASSERT_TRUE(manager.FreeNvmPage(0).ok());
  EXPECT_EQ(manager.FreeNvmPage(0).code(), ErrorCode::kFailedPrecondition);
  ASSERT_EQ(manager.AllocateNvmPage().value(), 0u);
  manager.ReadNvmPagePayload(0, 0, out);
  EXPECT_EQ(out, zeros);
}

// Recovery builds a fresh storage manager (empty payload tables) over the
// surviving flash; recovered files must read back intact and stay writable,
// with and without the journal.
TEST(StorageManagerRecoveryTest, RecoveredFilesReadBackThroughFreshTables) {
  for (const bool journal : {false, true}) {
    SCOPED_TRACE(journal ? "journal" : "checkpoint");
    MachineConfig config = NotebookConfig();
    config.checkpoint_period = 10 * kSecond;
    config.journal = journal;
    MobileComputer machine(config);
    ASSERT_TRUE(machine.fs().Mkdir("/d").ok());
    std::vector<std::vector<uint8_t>> contents;
    for (int f = 0; f < 6; ++f) {
      const std::string path = "/d/f" + std::to_string(f);
      ASSERT_TRUE(machine.fs().Create(path).ok());
      contents.push_back(Pattern(512 * static_cast<uint64_t>(f + 1) + 37,
                                 static_cast<uint8_t>(f * 40)));
      ASSERT_TRUE(machine.fs().Write(path, 0, contents.back()).ok());
    }
    ASSERT_TRUE(machine.fs().Sync().ok());
    machine.Idle(30 * kSecond);  // Checkpoint daemon runs.

    machine.InjectBatteryFailure();
    Result<RecoveryReport> report = machine.RecoverAfterFailure(20000);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (int f = 0; f < 6; ++f) {
      const std::string path = "/d/f" + std::to_string(f);
      std::vector<uint8_t> out(contents[f].size());
      Result<uint64_t> read = machine.fs().Read(path, 0, out);
      ASSERT_TRUE(read.ok()) << path;
      EXPECT_EQ(out, contents[f]) << path;
    }
    const std::vector<uint8_t> fresh = Pattern(1500, 17);
    ASSERT_TRUE(machine.fs().Write("/d/f0", 0, fresh).ok());
    std::vector<uint8_t> out(fresh.size());
    ASSERT_TRUE(machine.fs().Read("/d/f0", 0, out).ok());
    EXPECT_EQ(out, fresh);
  }
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
