#include "src/ftl/flash_store.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

namespace ssmc {
namespace {

FlashSpec SmallFlashSpec() {
  FlashSpec spec;
  spec.name = "test flash";
  spec.read = {100, 10};
  spec.program = {1000, 100};
  spec.erase_sector_bytes = 2048;  // 4 pages of 512 B.
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 1000000;  // Effectively unlimited unless lowered.
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  return spec;
}

std::vector<uint8_t> Block(uint8_t fill) {
  return std::vector<uint8_t>(512, fill);
}

class FlashStoreTest : public ::testing::Test {
 protected:
  // 64 sectors of 2 KiB = 128 KiB, 1 bank by default.
  FlashStoreTest() { Recreate(128 * 1024, 1, {}); }

  void Recreate(uint64_t capacity, int banks, FlashStoreOptions options) {
    flash_ = std::make_unique<FlashDevice>(SmallFlashSpec(), capacity, banks,
                                           clock_, /*seed=*/3);
    store_ = std::make_unique<FlashStore>(*flash_, options);
  }

  SimClock clock_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
};

TEST_F(FlashStoreTest, CapacityExcludesReserve) {
  // 64 sectors, reserve = max(banks+1, ceil(0.10*64)=7) = 7 -> 57 sectors *
  // 4 pages = 228 blocks.
  EXPECT_EQ(store_->num_blocks(), 57u * 4);
  EXPECT_EQ(store_->block_bytes(), 512u);
}

TEST_F(FlashStoreTest, UnwrittenBlockIsNotFound) {
  auto out = Block(0);
  EXPECT_EQ(store_->Read(0, out).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(store_->IsMapped(0));
}

TEST_F(FlashStoreTest, WriteThenReadRoundTrips) {
  auto data = Block(0xAB);
  ASSERT_TRUE(store_->Write(5, data).ok());
  EXPECT_TRUE(store_->IsMapped(5));
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(5, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashStoreTest, OverwriteReturnsNewData) {
  ASSERT_TRUE(store_->Write(9, Block(1)).ok());
  ASSERT_TRUE(store_->Write(9, Block(2)).ok());
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(9, out).ok());
  EXPECT_EQ(out, Block(2));
}

TEST_F(FlashStoreTest, OverwritesNeverEraseInline) {
  // Out-of-place writes mean an overwrite costs one program, not a
  // read-erase-rewrite of the whole sector.
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  const uint64_t erases_before = flash_->stats().erases.value();
  ASSERT_TRUE(store_->Write(0, Block(2)).ok());
  EXPECT_EQ(flash_->stats().erases.value(), erases_before);
}

TEST_F(FlashStoreTest, WrongSizeRejected) {
  std::vector<uint8_t> small(100);
  EXPECT_EQ(store_->Write(0, small).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(store_->Read(0, small).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FlashStoreTest, OutOfRangeRejected) {
  auto b = Block(0);
  EXPECT_EQ(store_->Write(store_->num_blocks(), b).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(store_->Read(store_->num_blocks(), b).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(store_->Trim(store_->num_blocks()).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(FlashStoreTest, TrimUnmapsBlock) {
  ASSERT_TRUE(store_->Write(3, Block(7)).ok());
  ASSERT_TRUE(store_->Trim(3).ok());
  EXPECT_FALSE(store_->IsMapped(3));
  auto out = Block(0);
  EXPECT_EQ(store_->Read(3, out).status().code(), ErrorCode::kNotFound);
  // Trim of an unmapped block is a no-op.
  EXPECT_TRUE(store_->Trim(3).ok());
}

TEST_F(FlashStoreTest, PhysicalAddressTracksRelocation) {
  ASSERT_TRUE(store_->Write(1, Block(1)).ok());
  Result<uint64_t> addr1 = store_->PhysicalAddressOf(1);
  ASSERT_TRUE(addr1.ok());
  ASSERT_TRUE(store_->Write(1, Block(2)).ok());
  Result<uint64_t> addr2 = store_->PhysicalAddressOf(1);
  ASSERT_TRUE(addr2.ok());
  EXPECT_NE(addr1.value(), addr2.value());
  EXPECT_EQ(store_->PhysicalAddressOf(2).status().code(),
            ErrorCode::kNotFound);
}

// The logical map grows only to the highest block written; every path must
// treat a block past its end exactly like a trimmed one.
TEST_F(FlashStoreTest, NeverWrittenBlockPastMapEndIsUnmapped) {
  const uint64_t high = store_->num_blocks() - 1;
  auto expect_unmapped = [&](uint64_t block) {
    auto out = Block(0);
    EXPECT_EQ(store_->Read(block, out).status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(store_->ReadRef(block).status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(store_->ReadPartial(block, 8, std::span(out).first(16))
                  .status()
                  .code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(store_->PhysicalAddressOf(block).status().code(),
              ErrorCode::kNotFound);
    EXPECT_FALSE(store_->IsMapped(block));
  };
  expect_unmapped(0);  // Nothing written: the map is empty.
  expect_unmapped(high);
  ASSERT_TRUE(store_->Write(3, Block(3)).ok());
  expect_unmapped(4);
  expect_unmapped(high);
  // Trim past the end is OK, idempotent, and counts nothing.
  EXPECT_TRUE(store_->Trim(high).ok());
  EXPECT_TRUE(store_->Trim(high).ok());
  EXPECT_EQ(store_->stats().trims.value(), 0u);
  expect_unmapped(high);
  // Writing the top block grows the map; blocks in between stay unmapped.
  ASSERT_TRUE(store_->Write(high, Block(9)).ok());
  expect_unmapped(high - 1);
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(high, out).ok());
  EXPECT_EQ(out, Block(9));
  ASSERT_TRUE(store_->Read(3, out).ok());
  EXPECT_EQ(out, Block(3));
}

// Sector page rows (owner block, billing tenant) are initialised when a
// sector opens, not at construction. Four banks open their sectors out of
// address order (round-robin across banks); cleaning and static wear
// leveling must still relocate every live page to its owner and bill the
// owner's tenant, with every indexed decision cross-checked. A torn first
// program leaves a page that was allocated but never owned: its row must
// read as unowned when the cleaner or the leveler scans that sector.
TEST_F(FlashStoreTest, LazySectorRowsSurviveOutOfOrderOpens) {
  FlashStoreOptions opts;
  opts.wear = WearPolicy::kStatic;
  opts.cleaner = CleanerPolicy::kGreedy;
  opts.static_wear_check_interval = 8;
  opts.static_wear_delta = 8;
  opts.validate_indexes = true;
  Recreate(128 * 1024, 4, opts);
  const uint64_t n = store_->num_blocks();
  std::map<uint64_t, uint8_t> model;
  auto write = [&](uint64_t b, uint8_t fill) {
    const TenantId tenant = b % 2 == 0 ? 1 : 2;
    ASSERT_TRUE(store_->Write(b, Block(fill), WriteStream::kUser,
                              IoPriority::kForeground, tenant)
                    .ok())
        << "block " << b;
    model[b] = fill;
  };
  flash_->FailNextProgramAfterBytes(0);
  EXPECT_FALSE(store_->Write(n - 2, Block(1)).ok());
  // Odd blocks top-down (the map grows to full size at once), then even
  // blocks bottom-up.
  for (uint64_t b = n - 1; b < n; b -= 2) {
    write(b, static_cast<uint8_t>(b));
  }
  for (uint64_t b = 0; b < n; b += 2) {
    write(b, static_cast<uint8_t>(b));
  }
  for (int i = 0; i < 5000; ++i) {
    write(static_cast<uint64_t>(i % 8), static_cast<uint8_t>(i));
  }
  const FlashStore::Stats& stats = store_->stats();
  EXPECT_GT(stats.gc_relocations.value(), 0u);
  EXPECT_GT(stats.wear_migrations.value(), 0u);
  EXPECT_EQ(store_->index_validation_failures(), 0u);
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
  // Every relocation was billed to one of the two writing tenants.
  ASSERT_EQ(stats.by_tenant.entries().size(), 2u);
  uint64_t billed = 0;
  for (const auto& e : stats.by_tenant.entries()) {
    EXPECT_TRUE(e.tenant == 1 || e.tenant == 2) << e.tenant;
    billed += e.value.relocations.value();
  }
  EXPECT_EQ(billed, stats.gc_relocations.value());
  for (const auto& [b, fill] : model) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok()) << "block " << b;
    EXPECT_EQ(out, Block(fill)) << "block " << b;
  }
}

TEST_F(FlashStoreTest, FillToLogicalCapacitySucceeds) {
  auto data = Block(0x11);
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, data).ok()) << "block " << b;
  }
  // Every block readable afterwards.
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(store_->num_blocks() - 1, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashStoreTest, SustainedOverwriteTriggersCleaning) {
  auto data = Block(0x22);
  // Fill, then overwrite everything several times: forces GC.
  for (int round = 0; round < 6; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, data).ok())
          << "round " << round << " block " << b;
    }
  }
  EXPECT_GT(store_->stats().gc_runs.value(), 0u);
  EXPECT_GT(store_->stats().erases.value(), 0u);
}

TEST_F(FlashStoreTest, DataIntactAfterHeavyCleaning) {
  // Unique content per block, many overwrites of a hot subset; verify the
  // cold blocks survive relocation.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b * 7))).ok());
  }
  for (int round = 0; round < 40; ++round) {
    for (uint64_t b = 0; b < 16; ++b) {  // Hot blocks.
      ASSERT_TRUE(
          store_->Write(b, Block(static_cast<uint8_t>(round + b))).ok());
    }
  }
  for (uint64_t b = 16; b < store_->num_blocks(); ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok()) << "block " << b;
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b * 7))) << "block " << b;
  }
}

TEST_F(FlashStoreTest, WriteAmplificationAtLeastOne) {
  EXPECT_DOUBLE_EQ(store_->WriteAmplification(), 1.0);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, Block(1)).ok());
    }
  }
  EXPECT_GE(store_->WriteAmplification(), 1.0);
}

TEST_F(FlashStoreTest, UniformOverwriteHasLowAmplification) {
  // Pure sequential overwrite leaves victims fully dead: the cleaner should
  // relocate almost nothing.
  for (int round = 0; round < 6; ++round) {
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      ASSERT_TRUE(store_->Write(b, Block(1)).ok());
    }
  }
  EXPECT_LT(store_->WriteAmplification(), 1.3);
}

TEST_F(FlashStoreTest, MultiBankSpreadsWrites) {
  FlashStoreOptions opts;
  Recreate(128 * 1024, 4, opts);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(1)).ok());
  }
  // With round-robin placement, consecutive blocks land in distinct banks.
  std::map<int, int> bank_counts;
  for (uint64_t b = 0; b < 32; ++b) {
    Result<uint64_t> addr = store_->PhysicalAddressOf(b);
    ASSERT_TRUE(addr.ok());
    bank_counts[flash_->BankOfAddress(addr.value())]++;
  }
  EXPECT_EQ(bank_counts.size(), 4u);
  for (const auto& [bank, count] : bank_counts) {
    EXPECT_EQ(count, 8) << "bank " << bank;
  }
}

TEST_F(FlashStoreTest, BackgroundWritesDoNotAdvanceClock) {
  FlashStoreOptions opts;
  opts.background_writes = true;
  Recreate(128 * 1024, 1, opts);
  const SimTime before = clock_.now();
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  EXPECT_EQ(clock_.now(), before);
  // But the bank is genuinely occupied.
  EXPECT_GT(flash_->BankBusyUntil(0), before);
}

TEST_F(FlashStoreTest, DynamicWearBeatsNoneOnSkew) {
  // Workload: hammer a few hot blocks. With kNone the same few sectors
  // cycle; with kDynamic reuse spreads over the free pool.
  auto run = [&](WearPolicy wear) {
    FlashStoreOptions opts;
    opts.wear = wear;
    opts.cleaner = CleanerPolicy::kGreedy;
    Recreate(128 * 1024, 1, opts);
    // Occupy most blocks once (cold data), then hammer 8 hot blocks.
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      EXPECT_TRUE(store_->Write(b, Block(1)).ok());
    }
    for (int i = 0; i < 3000; ++i) {
      EXPECT_TRUE(store_->Write(i % 8, Block(2)).ok());
    }
    return flash_->SummarizeWear();
  };
  const FlashDevice::WearSummary none = run(WearPolicy::kNone);
  const FlashDevice::WearSummary dynamic = run(WearPolicy::kDynamic);
  EXPECT_LT(dynamic.stddev_erases, none.stddev_erases);
}

TEST_F(FlashStoreTest, StaticWearLevelingMovesColdData) {
  FlashStoreOptions opts;
  opts.wear = WearPolicy::kStatic;
  opts.cleaner = CleanerPolicy::kGreedy;
  opts.static_wear_check_interval = 8;
  opts.static_wear_delta = 8;
  Recreate(128 * 1024, 1, opts);
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store_->Write(i % 8, Block(3)).ok());
  }
  EXPECT_GT(store_->stats().wear_migrations.value(), 0u);
  // Cold data still intact after migration.
  for (uint64_t b = 100; b < 110; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

TEST_F(FlashStoreTest, StaticLevelingTightensWearSpread) {
  auto run = [&](WearPolicy wear) {
    FlashStoreOptions opts;
    opts.wear = wear;
    opts.cleaner = CleanerPolicy::kGreedy;
    opts.static_wear_check_interval = 8;
    opts.static_wear_delta = 8;
    Recreate(128 * 1024, 1, opts);
    for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
      EXPECT_TRUE(store_->Write(b, Block(1)).ok());
    }
    for (int i = 0; i < 8000; ++i) {
      EXPECT_TRUE(store_->Write(i % 8, Block(2)).ok());
    }
    const auto w = flash_->SummarizeWear();
    return w.max_erases - w.min_erases;
  };
  EXPECT_LT(run(WearPolicy::kStatic), run(WearPolicy::kDynamic));
}

TEST_F(FlashStoreTest, WornOutSectorsRetiredGracefully) {
  FlashSpec spec = SmallFlashSpec();
  spec.endurance_cycles = 20;
  flash_ = std::make_unique<FlashDevice>(spec, 32 * 1024, 1, clock_, 11);
  FlashStoreOptions opts;
  opts.cleaner = CleanerPolicy::kGreedy;
  store_ = std::make_unique<FlashStore>(*flash_, opts);
  // Hammer until sectors die; the store must retire them, not corrupt data.
  uint64_t writes = 0;
  for (int i = 0; i < 100000; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % store_->num_blocks(),
                       Block(1))
             .ok()) {
      break;
    }
    ++writes;
  }
  EXPECT_GT(flash_->stats().bad_sectors.value(), 0u);
  EXPECT_GT(writes, 1000u);  // Device survived well past first failures.
}

TEST_F(FlashStoreTest, RetirementRemovesSectorFromEveryIndex) {
  // Wear sectors out under the full index complement (victim + cold + wear +
  // wear-ordered free pools) with differential validation on: a retired
  // sector must leave every index, and every later decision must still match
  // the linear-scan oracles.
  FlashSpec spec = SmallFlashSpec();
  spec.endurance_cycles = 20;
  flash_ = std::make_unique<FlashDevice>(spec, 64 * 1024, 4, clock_, 11);
  FlashStoreOptions opts;
  opts.cleaner = CleanerPolicy::kCostBenefit;
  opts.wear = WearPolicy::kStatic;
  opts.static_wear_check_interval = 8;
  opts.static_wear_delta = 8;
  opts.hot_bank_count = 1;
  opts.validate_indexes = true;
  store_ = std::make_unique<FlashStore>(*flash_, opts);

  for (int i = 0; i < 60000 && flash_->stats().bad_sectors.value() < 3; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % store_->num_blocks(),
                       Block(1))
             .ok()) {
      break;
    }
  }
  ASSERT_GT(flash_->stats().bad_sectors.value(), 0u);
  uint64_t retired = 0;
  for (uint64_t s = 0; s < flash_->num_sectors(); ++s) {
    retired += store_->sector_meta(s).bad ? 1 : 0;
  }
  EXPECT_EQ(retired, flash_->stats().bad_sectors.value());
  // Membership audit: bad sectors are in no index, and sizes reconcile.
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
  // Every pick made on the way here agreed with its oracle.
  EXPECT_EQ(store_->index_validation_failures(), 0u);

  // The store keeps serving around the retired sectors.
  for (int i = 0; i < 500; ++i) {
    if (!store_->Write(static_cast<uint64_t>(i) % 16, Block(2)).ok()) {
      break;
    }
  }
  EXPECT_TRUE(store_->CheckIndexConsistency().ok());
  EXPECT_EQ(store_->index_validation_failures(), 0u);
}

TEST_F(FlashStoreTest, WearLevelMigrationFailureIsCountedNotSwallowed) {
  // A failing wear-leveling migration must surface in stats (and the log),
  // not vanish: the seed implementation dropped the error on the floor.
  FlashStoreOptions opts;
  opts.wear = WearPolicy::kStatic;
  opts.cleaner = CleanerPolicy::kGreedy;
  opts.static_wear_check_interval = 4;
  opts.static_wear_delta = 4;
  Recreate(128 * 1024, 1, opts);
  // Fill every block; blocks 0..3 land in sector 0 and are never overwritten,
  // so sector 0 stays fully valid at erase count 0 — the permanent coldest
  // occupied sector and thus every migration's target.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  // All migration reads from sector 0 fail (transient fault injection).
  flash_->InjectReadFaults(0, 1 << 20);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store_->Write(100 + static_cast<uint64_t>(i) % 8, Block(3))
                    .ok());
  }
  EXPECT_GT(store_->stats().wear_level_failures.value(), 0u);
  EXPECT_EQ(store_->stats().wear_migrations.value(), 0u);

  // Once the fault clears, the cold data is still there and readable.
  flash_->InjectReadFaults(0, 0);
  for (uint64_t b = 0; b < 4; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

TEST_F(FlashStoreTest, StatsCountUserOps) {
  ASSERT_TRUE(store_->Write(0, Block(1)).ok());
  auto out = Block(0);
  ASSERT_TRUE(store_->Read(0, out).ok());
  ASSERT_TRUE(store_->Trim(0).ok());
  EXPECT_EQ(store_->stats().user_writes.value(), 1u);
  EXPECT_EQ(store_->stats().user_reads.value(), 1u);
  EXPECT_EQ(store_->stats().trims.value(), 1u);
}

// --- Bank segregation (Section 3.3) --------------------------------------

TEST_F(FlashStoreTest, SegregationSeparatesStreams) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 1;
  Recreate(128 * 1024, 4, opts);
  // User writes land in bank 0; cold-hinted writes land in banks 1..3.
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(1), WriteStream::kUser).ok());
    ASSERT_TRUE(
        store_->Write(100 + b, Block(2), WriteStream::kRelocation).ok());
  }
  for (uint64_t b = 0; b < 8; ++b) {
    Result<uint64_t> hot_addr = store_->PhysicalAddressOf(b);
    Result<uint64_t> cold_addr = store_->PhysicalAddressOf(100 + b);
    ASSERT_TRUE(hot_addr.ok());
    ASSERT_TRUE(cold_addr.ok());
    EXPECT_EQ(flash_->BankOfAddress(hot_addr.value()), 0);
    EXPECT_GT(flash_->BankOfAddress(cold_addr.value()), 0);
  }
}

TEST_F(FlashStoreTest, SegregationSpillsWhenColdRangeFull) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 3;  // Cold range is a single bank (16 sectors).
  Recreate(128 * 1024, 4, opts);
  // Write far more cold data than one bank holds: must spill, not fail.
  for (uint64_t b = 0; b < store_->num_blocks(); ++b) {
    ASSERT_TRUE(
        store_->Write(b, Block(1), WriteStream::kRelocation).ok())
        << "block " << b;
  }
}

TEST_F(FlashStoreTest, HintIgnoredWithoutSegregation) {
  // hot_bank_count = 0: hinted and unhinted writes behave identically
  // (round-robin over all banks).
  FlashStoreOptions opts;
  Recreate(128 * 1024, 4, opts);
  for (uint64_t b = 0; b < 16; ++b) {
    ASSERT_TRUE(
        store_->Write(b, Block(1), WriteStream::kRelocation).ok());
  }
  std::map<int, int> banks;
  for (uint64_t b = 0; b < 16; ++b) {
    banks[flash_->BankOfAddress(store_->PhysicalAddressOf(b).value())]++;
  }
  EXPECT_EQ(banks.size(), 4u);
}

TEST_F(FlashStoreTest, ColdDataDistilledOutOfHotBanks) {
  FlashStoreOptions opts;
  opts.hot_bank_count = 1;
  opts.cold_eviction_age = kSecond;
  Recreate(128 * 1024, 4, opts);
  // Mis-place cold data as user writes: it fills the hot bank (16 sectors
  // of 4 pages = 64 blocks).
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(store_->Write(b, Block(static_cast<uint8_t>(b))).ok());
  }
  clock_.Advance(10 * kSecond);  // The squatters age past eviction age.
  // Hot churn on a few blocks forces hot-range exhaustion and distillation.
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store_->Write(200 + (i % 4), Block(9)).ok());
    clock_.Advance(10 * kMillisecond);
  }
  // Most of the original 64 blocks should now live outside bank 0.
  int moved = 0;
  for (uint64_t b = 4; b < 64; ++b) {  // Skip blocks 0..3 (may be churned).
    Result<uint64_t> addr = store_->PhysicalAddressOf(b);
    ASSERT_TRUE(addr.ok());
    if (flash_->BankOfAddress(addr.value()) != 0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 30);
  // And the data is intact.
  for (uint64_t b = 4; b < 64; ++b) {
    auto out = Block(0);
    ASSERT_TRUE(store_->Read(b, out).ok());
    EXPECT_EQ(out, Block(static_cast<uint8_t>(b)));
  }
}

// --- Victim-selection policy unit tests ---------------------------------

class VictimPolicyTest : public ::testing::Test {
 protected:
  static SectorMeta Meta(uint32_t valid, uint32_t dead, SimTime last_write,
                         bool active = false, bool free = false,
                         bool bad = false) {
    SectorMeta m;
    m.valid_pages = valid;
    m.dead_pages = dead;
    m.next_free_page = valid + dead;
    m.last_write_time = last_write;
    m.active = active;
    m.free = free;
    m.bad = bad;
    return m;
  }
};

TEST_F(VictimPolicyTest, NoCandidatesReturnsMinusOne) {
  std::vector<SectorMeta> sectors = {
      Meta(4, 0, 0),                         // No dead pages.
      Meta(0, 4, 0, /*active=*/true),        // Active.
      Meta(0, 0, 0, false, /*free=*/true),   // Free.
      Meta(0, 4, 0, false, false, /*bad=*/true),  // Bad.
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 100), -1);
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 100),
            -1);
}

TEST_F(VictimPolicyTest, GreedyPicksMostDead) {
  std::vector<SectorMeta> sectors = {
      Meta(3, 1, 0),
      Meta(1, 3, 0),
      Meta(2, 2, 0),
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 100), 1);
}

TEST_F(VictimPolicyTest, CostBenefitPrefersOldWhenUtilizationTies) {
  std::vector<SectorMeta> sectors = {
      Meta(2, 2, /*last_write=*/90),  // Young.
      Meta(2, 2, /*last_write=*/10),  // Old.
  };
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 100),
            1);
}

TEST_F(VictimPolicyTest, CostBenefitWeighsAgeAgainstUtilization) {
  // A very old, fairly full sector can beat a young, mostly-dead one:
  // age 1000 * (1-0.75)/(1+0.75) = 142.9 vs age 10 * (1-0.25)/(1+0.25) = 6.
  std::vector<SectorMeta> sectors = {
      Meta(1, 3, /*last_write=*/990),   // Young, mostly dead.
      Meta(3, 1, /*last_write=*/0),     // Old, mostly valid.
  };
  EXPECT_EQ(
      PickCleaningVictim(sectors, 4, CleanerPolicy::kCostBenefit, 1000), 1);
  // Greedy makes the opposite call.
  EXPECT_EQ(PickCleaningVictim(sectors, 4, CleanerPolicy::kGreedy, 1000), 0);
}

}  // namespace
}  // namespace ssmc
