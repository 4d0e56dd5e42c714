// ResidencyManager tests: placement resolution, heat decay, promotion /
// demotion mechanics, the shared DRAM budget, and — most importantly — the
// differential oracle: randomized FS/VM workloads run with
// MemoryFsOptions::validate_residency under every policy, checking each
// per-access Resolve() against the pre-residency buffered/flash/hole logic,
// and the migration policies must return byte-identical file contents to the
// kWriteBufferOnly baseline.

#include "src/storage/residency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/memory_fs.h"
#include "src/storage/write_buffer.h"
#include "src/support/rng.h"
#include "src/vm/address_space.h"

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

ResidencyOptions ReadPromoteOptions() {
  ResidencyOptions options;
  options.policy = ResidencyPolicy::kReadPromote;
  return options;
}

// Low-level harness around a 128-page DRAM pool and a one-bank flash store.
class ResidencyTest : public ::testing::Test {
 protected:
  explicit ResidencyTest(ResidencyOptions options = ReadPromoteOptions())
      : dram_(TestDramSpec(), 64 * 1024, clock_),
        flash_(TestFlashSpec(), 256 * 1024, 1, clock_),
        store_(flash_, {}),
        manager_(dram_, store_, 512, options) {}

  ResidencyManager& res() { return manager_.residency(); }

  std::vector<uint8_t> Page(uint8_t fill) {
    return std::vector<uint8_t>(512, fill);
  }

  // Puts a block with known content into flash.
  void SeedFlashBlock(uint64_t block, uint8_t fill) {
    ASSERT_TRUE(store_.Write(block, Page(fill)).ok());
  }

  SimClock clock_;
  DramDevice dram_;
  FlashDevice flash_;
  FlashStore store_;
  StorageManager manager_;
};

TEST(ResidencyPolicyNames, RoundTripAndParse) {
  EXPECT_STREQ(ResidencyPolicyName(ResidencyPolicy::kWriteBufferOnly),
               "write-buffer-only");
  EXPECT_STREQ(ResidencyPolicyName(ResidencyPolicy::kReadPromote),
               "read-promote");
  EXPECT_STREQ(ResidencyPolicyName(ResidencyPolicy::kAggressive),
               "aggressive");
  for (ResidencyPolicy want :
       {ResidencyPolicy::kWriteBufferOnly, ResidencyPolicy::kReadPromote,
        ResidencyPolicy::kAggressive}) {
    ResidencyPolicy got = ResidencyPolicy::kWriteBufferOnly;
    ASSERT_TRUE(ParseResidencyPolicy(ResidencyPolicyName(want), &got));
    EXPECT_EQ(got, want);
  }
  ResidencyPolicy got;
  EXPECT_TRUE(ParseResidencyPolicy("kReadPromote", &got));
  EXPECT_EQ(got, ResidencyPolicy::kReadPromote);
  EXPECT_FALSE(ParseResidencyPolicy("lru", &got));
}

TEST_F(ResidencyTest, ResolveCoversAllFourStates) {
  WriteBuffer buffer(manager_, 16,
                     [](const BlockKey&, const PayloadRef&, TenantId) {
                       return Status::Ok();
                     });
  res().BindDirtyBackend(&buffer);

  const BlockKey dirty{1, 0};
  ASSERT_TRUE(buffer.Put(dirty, Page(1), clock_.now()).ok());
  EXPECT_EQ(res().Resolve(dirty, -1), Residency::kDirty);
  // Dirty wins even if the block also has a flash copy.
  EXPECT_EQ(res().Resolve(dirty, 5), Residency::kDirty);

  EXPECT_EQ(res().Resolve(BlockKey{1, 1}, 7), Residency::kFlash);
  EXPECT_EQ(res().Resolve(BlockKey{1, 2}, -1), Residency::kHole);

  // Promote a flash block: it resolves kClean until invalidated.
  const BlockKey hot{2, 0};
  SeedFlashBlock(3, 0xAB);
  res().OnFlashRead(hot, 3, clock_.now());
  res().OnFlashRead(hot, 3, clock_.now());
  ASSERT_TRUE(res().CleanCached(hot));
  EXPECT_EQ(res().Resolve(hot, 3), Residency::kClean);
  res().InvalidateClean(hot);
  EXPECT_EQ(res().Resolve(hot, 3), Residency::kFlash);

  res().BindDirtyBackend(nullptr);
}

TEST_F(ResidencyTest, HeatDecaysWithConfiguredHalfLife) {
  const BlockKey key{1, 0};
  res().TouchRead(key, clock_.now());
  EXPECT_DOUBLE_EQ(res().HeatOf(key, clock_.now()), 1.0);

  // One half-life later the touch counts half; HeatOf must not mutate.
  const SimTime later = clock_.now() + 30 * kSecond;
  EXPECT_DOUBLE_EQ(res().HeatOf(key, later), 0.5);
  EXPECT_DOUBLE_EQ(res().HeatOf(key, later), 0.5);
  EXPECT_DOUBLE_EQ(res().HeatOf(key, later + 30 * kSecond), 0.25);

  // A second touch at t+half_life lands on the decayed value.
  clock_.Advance(30 * kSecond);
  res().TouchRead(key, clock_.now());
  EXPECT_DOUBLE_EQ(res().HeatOf(key, clock_.now()), 1.5);

  res().ForgetHeat(key);
  EXPECT_DOUBLE_EQ(res().HeatOf(key, clock_.now()), 0.0);
}

// Randomized property test for the sim-time heat decay. The manager keeps
// the decayed touch count incrementally (one exp2 factor per update); the
// reference recomputes it from the full touch history as
// sum_i 2^-((now - t_i) / half_life). The two must agree for random
// half-lives, touch spacings, and observation points — and touches sharing
// a timestamp must take the decay-free fast path bit-exactly.
TEST(ResidencyHeatProperty, DecayMatchesClosedFormReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(0xDECA1 * seed);
    SimClock clock;
    DramDevice dram(TestDramSpec(), 64 * 1024, clock);
    FlashDevice flash(TestFlashSpec(), 256 * 1024, 1, clock);
    FlashStore store(flash, {});
    ResidencyOptions options = ReadPromoteOptions();
    options.heat_half_life = (1 + rng.NextBelow(100000)) * kMillisecond;
    StorageManager manager(dram, store, 512, options);
    ResidencyManager& res = manager.residency();

    constexpr uint64_t kBlocks = 8;
    std::vector<std::vector<SimTime>> touches(kBlocks);
    const double half_life = static_cast<double>(options.heat_half_life);
    auto reference = [&](uint64_t b, SimTime now) {
      double h = 0;
      for (SimTime t : touches[b]) {
        h += std::exp2(-static_cast<double>(now - t) / half_life);
      }
      return h;
    };

    for (int step = 0; step < 400; ++step) {
      const uint64_t b = rng.NextBelow(kBlocks);
      const BlockKey key{1, b};
      switch (rng.NextBelow(4)) {
        case 0:  // Idle a random fraction (0..3x) of the half-life.
          clock.Advance(1 + rng.NextBelow(options.heat_half_life * 3));
          break;
        case 1:  // Touch (read and write feed the same bookkeeping).
          if (rng.NextBelow(2) == 0) {
            res.TouchRead(key, clock.now());
          } else {
            res.TouchWrite(key, clock.now());
          }
          touches[b].push_back(clock.now());
          break;
        case 2: {  // Same-timestamp touches: the decay-on-touch fast path
                   // must add exactly 1.0 with no decay factor applied.
          const double before = res.HeatOf(key, clock.now());
          res.TouchRead(key, clock.now());
          const double mid = res.HeatOf(key, clock.now());
          EXPECT_DOUBLE_EQ(mid, before + 1.0);
          res.TouchRead(key, clock.now());
          EXPECT_DOUBLE_EQ(res.HeatOf(key, clock.now()), mid + 1.0);
          touches[b].push_back(clock.now());
          touches[b].push_back(clock.now());
          break;
        }
        default: {  // Observe: HeatOf is pure and matches the closed form.
          const double want = reference(b, clock.now());
          EXPECT_NEAR(res.HeatOf(key, clock.now()), want, 1e-9 + 1e-9 * want)
              << "seed " << seed << " step " << step << " block " << b;
          break;
        }
      }
    }
  }
}

TEST_F(ResidencyTest, SecondHotReadPromotesAndServesFromDram) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);

  // First flash read: heat 1.0, below the 2.0 threshold — no promotion.
  res().OnFlashRead(key, 9, clock_.now());
  EXPECT_FALSE(res().CleanCached(key));
  EXPECT_EQ(res().stats().promotions.value(), 0u);

  // Second read with no decay crosses the threshold.
  res().OnFlashRead(key, 9, clock_.now());
  ASSERT_TRUE(res().CleanCached(key));
  EXPECT_EQ(res().stats().promotions.value(), 1u);
  EXPECT_EQ(res().stats().promoted_bytes.value(), 512u);
  EXPECT_EQ(res().clean_pages(), 1u);

  // The cached copy is byte-identical to flash and charges DRAM time only.
  auto out = Page(0);
  ASSERT_TRUE(res().ReadClean(key, 0, out).ok());
  EXPECT_EQ(out, Page(0x5C));
  EXPECT_EQ(res().stats().clean_hits.value(), 1u);
  EXPECT_EQ(res().stats().clean_hit_bytes.value(), 512u);

  // Partial reads honor offsets; out-of-bounds is rejected.
  std::vector<uint8_t> tail(12);
  ASSERT_TRUE(res().ReadClean(key, 500, tail).ok());
  EXPECT_EQ(tail, std::vector<uint8_t>(12, 0x5C));
  std::vector<uint8_t> over(13);
  EXPECT_EQ(res().ReadClean(key, 500, over).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(res().ReadClean(BlockKey{9, 9}, 0, out).code(),
            ErrorCode::kNotFound);
}

TEST_F(ResidencyTest, ColdReadsNeverPromote) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  // Touches spaced two half-lives apart decay to ~0.25 before the next one:
  // the decayed count never reaches 2.0, so the block stays flash-resident.
  for (int i = 0; i < 8; ++i) {
    res().OnFlashRead(key, 9, clock_.now());
    clock_.Advance(60 * kSecond);
  }
  EXPECT_FALSE(res().CleanCached(key));
  EXPECT_EQ(res().stats().promotions.value(), 0u);
}

TEST_F(ResidencyTest, InvalidationDropsEntryAndFreesDram) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  const uint64_t free_before = manager_.free_dram_pages();
  res().OnFlashRead(key, 9, clock_.now());
  res().OnFlashRead(key, 9, clock_.now());
  ASSERT_TRUE(res().CleanCached(key));
  EXPECT_EQ(manager_.free_dram_pages(), free_before - 1);

  res().InvalidateClean(key);
  EXPECT_FALSE(res().CleanCached(key));
  EXPECT_EQ(res().stats().demotions_invalidated.value(), 1u);
  EXPECT_EQ(manager_.free_dram_pages(), free_before);
  // Invalidating a non-cached key is a no-op.
  res().InvalidateClean(key);
  EXPECT_EQ(res().stats().demotions_invalidated.value(), 1u);
}

class ResidencyTinyCacheTest : public ResidencyTest {
 protected:
  static ResidencyOptions TinyCacheOptions() {
    ResidencyOptions options = ReadPromoteOptions();
    // 128 DRAM pages * 2/128 = a two-page clean cache.
    options.max_clean_fraction = 2.0 / 128.0;
    return options;
  }
  ResidencyTinyCacheTest() : ResidencyTest(TinyCacheOptions()) {}
};

TEST_F(ResidencyTinyCacheTest, CacheCapRecyclesLeastRecentlyUsed) {
  for (uint64_t b = 0; b < 3; ++b) {
    SeedFlashBlock(b, static_cast<uint8_t>(b));
  }
  auto promote = [&](uint64_t b) {
    res().OnFlashRead(BlockKey{1, b}, b, clock_.now());
    res().OnFlashRead(BlockKey{1, b}, b, clock_.now());
  };
  promote(0);
  promote(1);
  EXPECT_EQ(res().clean_pages(), 2u);

  // Touch block 0 so block 1 becomes the LRU victim.
  auto out = Page(0);
  ASSERT_TRUE(res().ReadClean(BlockKey{1, 0}, 0, out).ok());

  promote(2);
  EXPECT_EQ(res().clean_pages(), 2u);
  EXPECT_TRUE(res().CleanCached(BlockKey{1, 0}));
  EXPECT_FALSE(res().CleanCached(BlockKey{1, 1}));
  EXPECT_TRUE(res().CleanCached(BlockKey{1, 2}));
  EXPECT_EQ(res().stats().demotions_pressure.value(), 1u);
}

TEST_F(ResidencyTest, DramPressureDemotesCleanPagesFirst) {
  SeedFlashBlock(0, 0xAA);
  res().OnFlashRead(BlockKey{1, 0}, 0, clock_.now());
  res().OnFlashRead(BlockKey{1, 0}, 0, clock_.now());
  ASSERT_EQ(res().clean_pages(), 1u);

  // Exhaust the raw allocator.
  while (manager_.free_dram_pages() > 0) {
    ASSERT_TRUE(manager_.AllocateDramPage().ok());
  }

  // The shared-budget allocator demotes the clean page rather than failing.
  Result<uint64_t> page = res().AllocateDramPage(/*requester=*/nullptr);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(res().clean_pages(), 0u);
  EXPECT_EQ(res().stats().demotions_pressure.value(), 1u);

  // With the cache empty and no reclaim sources, the pool is truly dry.
  EXPECT_EQ(res().AllocateDramPage(nullptr).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(ResidencyTest, PromotionSkipsQuietlyWhenDramIsFull) {
  SeedFlashBlock(0, 0xAA);
  while (manager_.free_dram_pages() > 0) {
    ASSERT_TRUE(manager_.AllocateDramPage().ok());
  }
  // Hot enough to promote, but there is no DRAM and nothing of the cache's
  // own to recycle: the read stays flash-resident, no error surfaces.
  res().OnFlashRead(BlockKey{1, 0}, 0, clock_.now());
  res().OnFlashRead(BlockKey{1, 0}, 0, clock_.now());
  EXPECT_FALSE(res().CleanCached(BlockKey{1, 0}));
  EXPECT_EQ(res().stats().promotions.value(), 0u);
}

TEST_F(ResidencyTest, VmFaultPromotionTriggersOnHotBlocks) {
  const BlockKey key{6, 1};
  EXPECT_FALSE(res().NoteVmFault(key, clock_.now()));  // heat 1.0
  EXPECT_TRUE(res().NoteVmFault(key, clock_.now()));   // heat 2.0
  EXPECT_EQ(res().stats().vm_promote_faults.value(), 1u);
}

TEST_F(ResidencyTest, FlushStreamIsUserOutsideAggressive) {
  EXPECT_EQ(res().FlushStream(BlockKey{1, 0}, clock_.now()),
            WriteStream::kUser);
  EXPECT_EQ(res().stats().cold_stream_hints.value(), 0u);
}

class ResidencyAggressiveTest : public ResidencyTest {
 protected:
  static ResidencyOptions AggressiveOptions() {
    ResidencyOptions options;
    options.policy = ResidencyPolicy::kAggressive;
    return options;
  }
  ResidencyAggressiveTest() : ResidencyTest(AggressiveOptions()) {}
};

TEST_F(ResidencyAggressiveTest, PromotesOnSecondRawTouchDespiteDecay) {
  const BlockKey key{4, 2};
  SeedFlashBlock(9, 0x5C);
  res().OnFlashRead(key, 9, clock_.now());
  // Five half-lives: decayed heat is ~0.03, far below the 2.0 threshold —
  // but the raw touch count reaches kAggressive's two touches, so promote
  // anyway.
  clock_.Advance(150 * kSecond);
  res().OnFlashRead(key, 9, clock_.now());
  EXPECT_TRUE(res().CleanCached(key));
  EXPECT_EQ(res().stats().promotions.value(), 1u);
}

TEST_F(ResidencyAggressiveTest, ColdFlushesRouteToRelocationStream) {
  const BlockKey hot{1, 0};
  const BlockKey cold{1, 1};
  res().TouchWrite(hot, clock_.now());
  res().TouchWrite(hot, clock_.now());
  res().TouchWrite(cold, clock_.now());
  clock_.Advance(60 * kSecond);  // cold decays to 0.25; hot keeps 0.5.
  res().TouchWrite(hot, clock_.now());

  EXPECT_EQ(res().FlushStream(hot, clock_.now()), WriteStream::kUser);
  EXPECT_EQ(res().FlushStream(cold, clock_.now()), WriteStream::kRelocation);
  EXPECT_EQ(res().stats().cold_stream_hints.value(), 1u);
  // A block never touched at all is cold by definition.
  EXPECT_EQ(res().FlushStream(BlockKey{9, 9}, clock_.now()),
            WriteStream::kRelocation);
}

class ResidencyDisabledTest : public ResidencyTest {
 protected:
  ResidencyDisabledTest() : ResidencyTest(ResidencyOptions{}) {}
};

TEST_F(ResidencyDisabledTest, DefaultPolicyTracksAndMigratesNothing) {
  ASSERT_FALSE(res().enabled());
  const BlockKey key{1, 0};
  SeedFlashBlock(0, 0xAA);
  res().TouchRead(key, clock_.now());
  res().TouchWrite(key, clock_.now());
  for (int i = 0; i < 10; ++i) {
    res().OnFlashRead(key, 0, clock_.now());
    EXPECT_FALSE(res().NoteVmFault(key, clock_.now()));
  }
  EXPECT_EQ(res().HeatOf(key, clock_.now()), 0.0);
  EXPECT_FALSE(res().CleanCached(key));
  EXPECT_EQ(res().stats().touches.value(), 0u);
  EXPECT_EQ(res().stats().promotions.value(), 0u);
  EXPECT_EQ(res().FlushStream(key, clock_.now()), WriteStream::kUser);

  // The shared-budget allocator degenerates to the raw allocator.
  uint64_t allocated = 0;
  while (res().AllocateDramPage(nullptr).ok()) {
    ++allocated;
  }
  EXPECT_EQ(allocated, 128u);
  EXPECT_EQ(res().AllocateDramPage(nullptr).status().code(),
            ErrorCode::kResourceExhausted);
}

// --- Full-stack differential oracle --------------------------------------
//
// One stack per policy, driven in lockstep with the same seeded op stream.
// Every stack runs with validate_residency: each FS access cross-checks
// Resolve() against the pre-residency buffered/flash/hole decision and
// counts mismatches. The kWriteBufferOnly stack is additionally the content
// oracle: reads on the migration stacks must return byte-identical data.
class ResidencyDifferentialTest : public ::testing::Test {
 protected:
  struct Stack {
    explicit Stack(ResidencyPolicy policy) {
      FlashSpec flash_spec = TestFlashSpec();
      flash_spec.erase_sector_bytes = 8192;
      dram = std::make_unique<DramDevice>(TestDramSpec(), 256 * 1024, clock);
      flash = std::make_unique<FlashDevice>(flash_spec, 2 * kMiB, 2, clock);
      store = std::make_unique<FlashStore>(*flash, FlashStoreOptions{});
      ResidencyOptions residency;
      residency.policy = policy;
      // A short half-life keeps promotion *and* decay exercised inside the
      // test's compressed timeline.
      residency.heat_half_life = 2 * kSecond;
      manager =
          std::make_unique<StorageManager>(*dram, *store, 512, residency);
      MemoryFsOptions fs_options;
      fs_options.write_buffer_pages = 64;
      fs_options.validate_residency = true;
      fs = std::make_unique<MemoryFileSystem>(*manager, fs_options);
      space = std::make_unique<AddressSpace>(*manager);
    }

    SimClock clock;
    std::unique_ptr<DramDevice> dram;
    std::unique_ptr<FlashDevice> flash;
    std::unique_ptr<FlashStore> store;
    std::unique_ptr<StorageManager> manager;
    std::unique_ptr<MemoryFileSystem> fs;
    std::unique_ptr<AddressSpace> space;
  };

  static std::string PathOf(uint64_t i) { return "/f" + std::to_string(i); }
};

TEST_F(ResidencyDifferentialTest, TenThousandRandomOpsMatchOracle) {
  Stack oracle(ResidencyPolicy::kWriteBufferOnly);
  Stack promote(ResidencyPolicy::kReadPromote);
  Stack aggressive(ResidencyPolicy::kAggressive);
  Stack* stacks[] = {&oracle, &promote, &aggressive};

  constexpr int kOps = 10000;
  constexpr uint64_t kFiles = 24;
  constexpr uint64_t kMaxFileBytes = 16 * 512;
  constexpr uint64_t kVmBase = 1 * kMiB;
  Rng rng(20260806);
  std::vector<bool> exists(kFiles, false);
  bool vm_mapped[3] = {false, false, false};

  for (int op = 0; op < kOps; ++op) {
    const uint64_t file = rng.NextBelow(kFiles);
    const std::string path = PathOf(file);
    const int kind = static_cast<int>(rng.NextBelow(16));
    switch (kind) {
      case 0: {  // Create.
        if (!exists[file]) {
          for (Stack* s : stacks) {
            ASSERT_TRUE(s->fs->Create(path).ok());
          }
          exists[file] = true;
        }
        break;
      }
      case 1: {  // Unlink (drops buffered blocks, clean copies, and heat).
        if (exists[file] && !(file == 0 && vm_mapped[0])) {
          for (Stack* s : stacks) {
            ASSERT_TRUE(s->fs->Unlink(path).ok());
          }
          exists[file] = false;
        }
        break;
      }
      case 2: {  // Truncate.
        if (exists[file] && !(file == 0 && vm_mapped[0])) {
          const uint64_t size = rng.NextBelow(kMaxFileBytes);
          for (Stack* s : stacks) {
            ASSERT_TRUE(s->fs->Truncate(path, size).ok());
          }
        }
        break;
      }
      case 3: {  // Sync: everything dirty goes to flash.
        for (Stack* s : stacks) {
          ASSERT_TRUE(s->fs->Sync().ok());
        }
        break;
      }
      case 4: {  // Periodic flush daemon tick.
        for (Stack* s : stacks) {
          ASSERT_TRUE(s->fs->TickFlush(s->clock.now()).ok());
        }
        break;
      }
      case 5:
      case 6: {  // Idle: decay heat, age dirty blocks.
        const Duration d = (1 + rng.NextBelow(4000)) * kMillisecond;
        for (Stack* s : stacks) {
          s->clock.Advance(d);
        }
        break;
      }
      case 7: {  // VM read through a CoW mapping of file 0.
        if (!exists[0]) {
          break;
        }
        if (!vm_mapped[0]) {
          // Freeze file 0's size (mapping covers the synced layout) and map
          // it in all three stacks; an empty file refuses to map.
          bool all = true;
          for (int i = 0; i < 3 && all; ++i) {
            Stack* s = stacks[i];
            ASSERT_TRUE(s->fs->Sync().ok());
            all = s->space->MapFileCow(kVmBase, *s->fs, PathOf(0), false).ok();
            vm_mapped[i] = all;
          }
          if (!all) {
            for (int i = 0; i < 3; ++i) {
              if (vm_mapped[i]) {
                ASSERT_TRUE(stacks[i]->space->Unmap(kVmBase).ok());
                vm_mapped[i] = false;
              }
            }
            break;
          }
        }
        const uint64_t size = oracle.fs->Stat(PathOf(0)).value().size;
        if (size > 0) {
          const uint64_t off = rng.NextBelow(size);
          const uint64_t len = 1 + rng.NextBelow(size - off);
          std::vector<uint8_t> want(len);
          ASSERT_TRUE(oracle.space->Read(kVmBase + off, want).ok());
          for (Stack* s : {&promote, &aggressive}) {
            std::vector<uint8_t> got(len);
            ASSERT_TRUE(s->space->Read(kVmBase + off, got).ok());
            ASSERT_EQ(got, want) << "VM read diverged at op " << op;
          }
        }
        break;
      }
      default: {  // Write or read at a random extent.
        if (!exists[file]) {
          break;
        }
        const uint64_t off = rng.NextBelow(kMaxFileBytes);
        const uint64_t len = 1 + rng.NextBelow(3 * 512);
        const bool write_op = kind < 12 && !(file == 0 && vm_mapped[0]);
        if (write_op) {
          std::vector<uint8_t> data(len);
          for (auto& b : data) {
            b = static_cast<uint8_t>(rng.Next());
          }
          for (Stack* s : stacks) {
            ASSERT_TRUE(s->fs->Write(path, off, data).ok());
          }
        } else {  // Read + cross-policy content equivalence.
          std::vector<uint8_t> want(len, 0xEE);
          Result<uint64_t> n = oracle.fs->Read(path, off, want);
          ASSERT_TRUE(n.ok());
          want.resize(n.value());
          for (Stack* s : {&promote, &aggressive}) {
            std::vector<uint8_t> got(len, 0xDD);
            Result<uint64_t> m = s->fs->Read(path, off, got);
            ASSERT_TRUE(m.ok());
            got.resize(m.value());
            ASSERT_EQ(got, want)
                << "read diverged at op " << op << " on " << path;
          }
        }
        break;
      }
    }
  }

  // The differential oracle inside each stack must have stayed silent, and
  // the migration stacks must have actually migrated something (otherwise
  // this test exercised nothing).
  for (Stack* s : stacks) {
    EXPECT_EQ(s->fs->residency_validation_failures(), 0u)
        << ResidencyPolicyName(s->manager->residency().policy());
  }
  EXPECT_EQ(oracle.manager->residency().stats().promotions.value(), 0u);
  EXPECT_GT(promote.manager->residency().stats().promotions.value(), 0u);
  EXPECT_GT(aggressive.manager->residency().stats().promotions.value(), 0u);
  EXPECT_GT(promote.fs->stats().clean_cached_read_bytes.value(), 0u);

  // Final full-content sweep: every surviving file byte-identical.
  for (uint64_t f = 0; f < kFiles; ++f) {
    if (!exists[f]) {
      continue;
    }
    const uint64_t size = oracle.fs->Stat(PathOf(f)).value().size;
    std::vector<uint8_t> want(size);
    if (size > 0) {
      ASSERT_TRUE(oracle.fs->Read(PathOf(f), 0, want).ok());
    }
    for (Stack* s : {&promote, &aggressive}) {
      ASSERT_EQ(s->fs->Stat(PathOf(f)).value().size, size);
      std::vector<uint8_t> got(size);
      if (size > 0) {
        ASSERT_TRUE(s->fs->Read(PathOf(f), 0, got).ok());
      }
      ASSERT_EQ(got, want) << "final content diverged on " << PathOf(f);
    }
  }
}

// Under a migration policy the clean cache, dirty buffer, and VM frames all
// draw from one DRAM pool: exhausting it with VM copies must shrink the
// cache, and FS writes must then be able to steal VM clean pages back.
TEST_F(ResidencyDifferentialTest, SingleDramPoolIsSharedAcrossConsumers) {
  Stack stack(ResidencyPolicy::kReadPromote);
  MemoryFileSystem& fs = *stack.fs;
  ResidencyManager& res = stack.manager->residency();

  // A synced file: 64 flash blocks.
  ASSERT_TRUE(fs.Create("/hot").ok());
  std::vector<uint8_t> bytes(64 * 512);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 13);
  }
  ASSERT_TRUE(fs.Write("/hot", 0, bytes).ok());
  ASSERT_TRUE(fs.Sync().ok());

  // Read it twice: the whole file promotes into the clean cache.
  std::vector<uint8_t> out(bytes.size());
  ASSERT_TRUE(fs.Read("/hot", 0, out).ok());
  ASSERT_TRUE(fs.Read("/hot", 0, out).ok());
  EXPECT_EQ(out, bytes);
  const uint64_t cached = res.clean_pages();
  ASSERT_GT(cached, 0u);

  // A demand-copy mapping faults clean file copies into VM frames until the
  // allocator turns to the clean cache (and then the VM's own pages).
  ASSERT_TRUE(
      stack.space->MapFileDemandCopy(2 * kMiB, fs, "/hot", false).ok());
  while (stack.manager->free_dram_pages() > 0) {
    ASSERT_TRUE(stack.manager->AllocateDramPage().ok());
  }
  ASSERT_TRUE(stack.space->Read(2 * kMiB, out).ok());
  EXPECT_EQ(out, bytes);
  EXPECT_LT(res.clean_pages(), cached)
      << "VM pressure should have demoted clean-cache pages";

  // FS writes still succeed: the shared budget reclaims the VM's clean
  // demand-copies once the cache is spent.
  const uint64_t reclaimed_before =
      stack.space->stats().reclaimed_pages.value();
  std::vector<uint8_t> fresh(8 * 512, 0x77);
  ASSERT_TRUE(fs.Create("/new").ok());
  ASSERT_TRUE(fs.Write("/new", 0, fresh).ok());
  std::vector<uint8_t> check(fresh.size());
  ASSERT_TRUE(fs.Read("/new", 0, check).ok());
  EXPECT_EQ(check, fresh);
  EXPECT_GT(stack.space->stats().reclaimed_pages.value(), reclaimed_before);
}

}  // namespace
}  // namespace ssmc
