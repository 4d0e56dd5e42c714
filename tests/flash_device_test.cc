#include "src/device/flash_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

namespace ssmc {
namespace {

FlashSpec TestSpec() {
  FlashSpec spec;
  spec.name = "test flash";
  spec.read = {100, 10};
  spec.program = {1000, 1000};
  spec.erase_sector_bytes = 1024;
  spec.erase_ns = 1 * kMillisecond;
  spec.endurance_cycles = 10;
  spec.active_mw_per_mib = 30;
  spec.standby_mw_per_mib = 0.05;
  return spec;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  SimClock clock_;
  FlashSpec spec_ = TestSpec();
};

TEST_F(FlashDeviceTest, GeometryDerivedFromSpec) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  EXPECT_EQ(flash.capacity_bytes(), 64u * 1024);
  EXPECT_EQ(flash.sector_bytes(), 1024u);
  EXPECT_EQ(flash.num_sectors(), 64u);
  EXPECT_EQ(flash.num_banks(), 4);
  EXPECT_EQ(flash.sectors_per_bank(), 16u);
  EXPECT_EQ(flash.BankOfSector(0), 0);
  EXPECT_EQ(flash.BankOfSector(15), 0);
  EXPECT_EQ(flash.BankOfSector(16), 1);
  EXPECT_EQ(flash.BankOfAddress(17 * 1024), 1);
}

TEST_F(FlashDeviceTest, FreshDeviceIsErased) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  for (uint64_t s = 0; s < flash.num_sectors(); ++s) {
    EXPECT_TRUE(flash.IsSectorErased(s));
    EXPECT_FALSE(flash.IsSectorBad(s));
    EXPECT_EQ(flash.EraseCount(s), 0u);
  }
}

TEST_F(FlashDeviceTest, ProgramThenReadRoundTrips) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(flash.Program(512, data).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(flash.Read(512, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashDeviceTest, ReadAdvancesClockBySpecLatency) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> out(100);
  Result<Duration> r = flash.Read(0, out);
  ASSERT_TRUE(r.ok());
  // access 100 + 10/byte * 100 = 1100 ns.
  EXPECT_EQ(r.value(), 1100);
  EXPECT_EQ(clock_.now(), 1100);
}

TEST_F(FlashDeviceTest, ProgramIsSlowerThanRead) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(100, 0xAB);
  Result<Duration> w = flash.Program(0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 1000 + 1000 * 100);
}

TEST_F(FlashDeviceTest, ProgramToNonErasedFails) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x00);
  ASSERT_TRUE(flash.Program(0, data).ok());
  Result<Duration> again = flash.Program(0, data);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(FlashDeviceTest, EraseRestoresProgrammability) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x77);
  ASSERT_TRUE(flash.Program(0, data).ok());
  EXPECT_FALSE(flash.IsSectorErased(0));
  ASSERT_TRUE(flash.EraseSector(0).ok());
  EXPECT_TRUE(flash.IsSectorErased(0));
  EXPECT_EQ(flash.EraseCount(0), 1u);
  EXPECT_TRUE(flash.Program(0, data).ok());
}

TEST_F(FlashDeviceTest, ProgramAcrossSectorBoundaryRejected) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(64, 1);
  Result<Duration> r = flash.Program(1024 - 32, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FlashDeviceTest, ReadAcrossBankBoundaryRejected) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  std::vector<uint8_t> out(64);
  // Bank 0 ends at 16 KiB.
  Result<Duration> r = flash.Read(16 * 1024 - 32, out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(FlashDeviceTest, OutOfRangeOpsRejected) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> buf(32);
  EXPECT_EQ(flash.Read(16 * 1024, buf).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.Program(16 * 1024 - 16, buf).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(flash.EraseSector(99).status().code(), ErrorCode::kOutOfRange);
}

TEST_F(FlashDeviceTest, NonBlockingProgramDoesNotAdvanceClock) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 1);
  const SimTime before = clock_.now();
  Result<Duration> r = flash.Program(0, data, kFlushIo);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(clock_.now(), before);
  EXPECT_GT(flash.BankBusyUntil(0), before);
}

TEST_F(FlashDeviceTest, ReadStallsBehindEraseInSameBank) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());
  const SimTime busy_until = flash.BankBusyUntil(0);
  std::vector<uint8_t> out(16);
  Result<Duration> r = flash.Read(0, out);
  ASSERT_TRUE(r.ok());
  // The read had to wait the full erase (1 ms) plus its own time.
  EXPECT_GE(clock_.now(), busy_until);
  EXPECT_GE(r.value(), spec_.erase_ns);
  EXPECT_GT(flash.stats().read_stall_ns.value(), 0u);
}

TEST_F(FlashDeviceTest, ReadProceedsInOtherBankDuringErase) {
  FlashDevice flash(spec_, 64 * 1024, 4, clock_);
  ASSERT_TRUE(flash.EraseSector(0, kCleanerIo).ok());
  std::vector<uint8_t> out(16);
  // Bank 1 begins at sector 16 -> address 16 KiB.
  Result<Duration> r = flash.Read(16 * 1024, out);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.value(), spec_.erase_ns);
  EXPECT_EQ(flash.stats().read_stall_ns.value(), 0u);
}

TEST_F(FlashDeviceTest, WearOutEventuallyFailsSector) {
  spec_.endurance_cycles = 5;
  FlashDevice flash(spec_, 16 * 1024, 1, clock_, /*seed=*/7);
  // Erase far past endurance; must fail by 2x endurance.
  bool failed = false;
  for (int i = 0; i < 20 && !failed; ++i) {
    failed = !flash.EraseSector(0).ok();
  }
  EXPECT_TRUE(failed);
  EXPECT_TRUE(flash.IsSectorBad(0));
  EXPECT_EQ(flash.stats().bad_sectors.value(), 1u);
  // Reads and further erases now fail with DATA_LOSS.
  std::vector<uint8_t> out(8);
  EXPECT_EQ(flash.Read(0, out).status().code(), ErrorCode::kDataLoss);
  EXPECT_EQ(flash.EraseSector(0).status().code(), ErrorCode::kDataLoss);
}

TEST_F(FlashDeviceTest, WearWithinEnduranceNeverFails) {
  spec_.endurance_cycles = 50;
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(flash.EraseSector(3).ok()) << "cycle " << i;
  }
  EXPECT_FALSE(flash.IsSectorBad(3));
}

TEST_F(FlashDeviceTest, WearSummaryTracksDistribution) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  ASSERT_TRUE(flash.EraseSector(0).ok());
  ASSERT_TRUE(flash.EraseSector(0).ok());
  ASSERT_TRUE(flash.EraseSector(1).ok());
  const FlashDevice::WearSummary w = flash.SummarizeWear();
  EXPECT_EQ(w.min_erases, 0u);
  EXPECT_EQ(w.max_erases, 2u);
  EXPECT_NEAR(w.mean_erases, 3.0 / 16.0, 1e-9);
  EXPECT_GT(w.stddev_erases, 0.0);
  EXPECT_EQ(w.bad_sectors, 0u);
}

TEST_F(FlashDeviceTest, StatsCountOperations) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> buf(64, 1);
  ASSERT_TRUE(flash.Program(0, buf).ok());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(0, out).ok());
  ASSERT_TRUE(flash.EraseSector(1).ok());
  EXPECT_EQ(flash.stats().programs.value(), 1u);
  EXPECT_EQ(flash.stats().programmed_bytes.value(), 64u);
  EXPECT_EQ(flash.stats().reads.value(), 1u);
  EXPECT_EQ(flash.stats().read_bytes.value(), 64u);
  EXPECT_EQ(flash.stats().erases.value(), 1u);
}

TEST_F(FlashDeviceTest, EnergyAccumulatesWithActivity) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> out(128);
  ASSERT_TRUE(flash.Read(0, out).ok());
  EXPECT_GT(flash.energy().active_nanojoules(), 0.0);
}

TEST_F(FlashDeviceTest, IdleEnergyAccountedOnDemand) {
  FlashDevice flash(spec_, 1024 * 1024, 1, clock_);
  clock_.Advance(kSecond);
  flash.AccountIdleEnergy();
  EXPECT_GT(flash.energy().idle_nanojoules(), 0.0);
}

TEST_F(FlashDeviceTest, TornProgramAppliesPrefixAndFails) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(64);
  std::iota(data.begin(), data.end(), 1);
  flash.FailNextProgramAfterBytes(24);
  const SimTime before = clock_.now();
  Result<Duration> r = flash.Program(128, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  // Injected before scheduling: no time passed, no program counted.
  EXPECT_EQ(clock_.now(), before);
  EXPECT_EQ(flash.stats().programs.value(), 0u);
  EXPECT_EQ(flash.stats().torn_programs.value(), 1u);
  // The first 24 bytes survived; the rest of the range is still erased.
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(128, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 24, data.begin()));
  for (size_t i = 24; i < out.size(); ++i) {
    EXPECT_EQ(out[i], 0xFF) << "byte " << i;
  }
}

TEST_F(FlashDeviceTest, TornProgramSkipCountArmsLaterWrite) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x5A);
  flash.FailNextProgramAfterBytes(0, /*after_programs=*/2);
  ASSERT_TRUE(flash.Program(0, data).ok());
  ASSERT_TRUE(flash.Program(64, data).ok());
  Result<Duration> r = flash.Program(256, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  EXPECT_EQ(flash.stats().torn_programs.value(), 1u);
  // bytes=0: the torn write left nothing behind and the hook disarmed, so
  // the retry succeeds and round-trips.
  ASSERT_TRUE(flash.Program(256, data).ok());
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(flash.Read(256, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FlashDeviceTest, TornProgramExtentAppliesPrefix) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  ExtentPool pool(64);
  PayloadRef payload = pool.Allocate();
  for (size_t i = 0; i < 64; ++i) {
    payload.MutableData()[i] = static_cast<uint8_t>(i + 1);
  }
  flash.FailNextProgramAfterBytes(10);
  Result<Duration> r = flash.ProgramExtent(512, payload, kForegroundIo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  EXPECT_EQ(flash.stats().torn_programs.value(), 1u);
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(flash.Read(512, out).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(i + 1)) << "byte " << i;
  }
  for (size_t i = 10; i < 64; ++i) {
    EXPECT_EQ(out[i], 0xFF) << "byte " << i;
  }
}

TEST_F(FlashDeviceTest, InterruptedEraseConsumesWearKeepsContents) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> data(16, 0x77);
  ASSERT_TRUE(flash.Program(0, data).ok());
  flash.InterruptNextErase();
  Result<Duration> r = flash.EraseSector(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  // Wear cycle consumed, contents untouched, hook disarmed.
  EXPECT_EQ(flash.EraseCount(0), 1u);
  EXPECT_EQ(flash.stats().interrupted_erases.value(), 1u);
  EXPECT_FALSE(flash.IsSectorErased(0));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(flash.Read(0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(flash.EraseSector(0).ok());
  EXPECT_TRUE(flash.IsSectorErased(0));
  EXPECT_EQ(flash.EraseCount(0), 2u);
}

TEST_F(FlashDeviceTest, EmptyReadAndProgramAreFree) {
  FlashDevice flash(spec_, 16 * 1024, 1, clock_);
  std::vector<uint8_t> empty;
  Result<Duration> r = flash.Read(0, std::span<uint8_t>(empty));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0);
  EXPECT_EQ(clock_.now(), 0);
}

// --- Span/extent parity ----------------------------------------------------
// Read/ReadExtent and Program/ProgramExtent differ only in the host-side
// payload representation. Each case runs the same setup and operations on two
// fresh devices, one through each variant, and requires the same observable
// outcome: status code and message per op, clock, bank timelines, stats,
// energy, the bytes read, the injected-fault and torn-program hooks' remaining
// charge, and the card contents.

constexpr uint64_t kParityCapacity = 16 * 1024;  // 16 sectors of 1 KiB.

struct ParityOp {
  uint64_t addr;
  uint64_t bytes;
  ErrorCode expect = ErrorCode::kOk;  // Pins that the case hits its path.
};

struct ParityCase {
  const char* name;
  int banks;
  std::function<void(FlashDevice&)> setup;
  std::vector<ParityOp> ops;
  IoIssue issue = {};
};

struct ParityOutcome {
  std::vector<ErrorCode> codes;
  std::vector<std::string> messages;
  std::vector<std::vector<uint8_t>> read_bytes;
  SimTime now = 0;
  std::vector<SimTime> bank_busy_until;
  std::vector<uint64_t> counters;
  double active_nj = 0;
  int faulting_reads_left = 0;
  ErrorCode probe_program = ErrorCode::kOk;
  std::vector<uint8_t> card;
};

std::vector<uint8_t> Pattern(uint64_t addr, uint64_t bytes) {
  std::vector<uint8_t> data(bytes);
  for (uint64_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<uint8_t>((addr + i) * 7 + 1);
  }
  return data;
}

// Wears `sector` out (same seed on both sides, so the same erase count).
void WearOut(FlashDevice& flash, uint64_t sector) {
  for (int i = 0; i < 100 && !flash.IsSectorBad(sector); ++i) {
    (void)flash.EraseSector(sector);
  }
}

ParityOutcome RunParityCase(const ParityCase& c, bool program, bool extent) {
  FlashSpec spec = TestSpec();
  spec.endurance_cycles = 3;
  SimClock clock;
  FlashDevice flash(spec, kParityCapacity, c.banks, clock, /*seed=*/7);
  if (c.setup) {
    c.setup(flash);
  }
  ParityOutcome o;
  for (const ParityOp& op : c.ops) {
    Status status = Status::Ok();
    std::vector<uint8_t> got;
    if (program) {
      const std::vector<uint8_t> data = Pattern(op.addr, op.bytes);
      if (!extent) {
        status = flash.Program(op.addr, data, c.issue).status();
      } else {
        ExtentPool pool(std::max<uint64_t>(op.bytes, 1));
        PayloadRef payload =
            op.bytes > 0 ? pool.AllocateCopy(data.data()) : PayloadRef{};
        status = flash.ProgramExtent(op.addr, std::move(payload), c.issue)
                     .status();
      }
    } else if (!extent) {
      got.resize(op.bytes);
      status = flash.Read(op.addr, got, c.issue).status();
      if (!status.ok()) {
        got.clear();
      }
    } else {
      ExtentPool pool(op.bytes);
      Result<PayloadRef> r = flash.ReadExtent(op.addr, op.bytes, pool, c.issue);
      status = r.status();
      if (r.ok()) {
        got.assign(r.value().data(), r.value().data() + r.value().size());
      }
    }
    o.codes.push_back(status.code());
    o.messages.push_back(status.message());
    o.read_bytes.push_back(std::move(got));
  }
  o.now = clock.now();
  for (int b = 0; b < flash.num_banks(); ++b) {
    o.bank_busy_until.push_back(flash.BankBusyUntil(b));
  }
  const FlashDevice::Stats& s = flash.stats();
  o.counters = {s.reads.value(),        s.read_bytes.value(),
                s.programs.value(),     s.programmed_bytes.value(),
                s.erases.value(),       s.read_stall_ns.value(),
                s.bad_sectors.value(),  s.torn_programs.value(),
                s.interrupted_erases.value()};
  o.active_nj = flash.energy().active_nanojoules();
  // Remaining injected read faults (all cases inject into sector 1).
  std::vector<uint8_t> probe(1);
  while (o.faulting_reads_left < 8 &&
         flash.Read(1024, probe).status().code() == ErrorCode::kInternal) {
    ++o.faulting_reads_left;
  }
  // Whether the torn-program hook is still armed.
  const std::vector<uint8_t> last(4, 0x11);
  o.probe_program = flash.Program(kParityCapacity - 64, last).status().code();
  // Card contents of every readable sector.
  std::vector<uint8_t> sector(flash.sector_bytes());
  for (uint64_t sec = 0; sec < flash.num_sectors(); ++sec) {
    if (!flash.IsSectorBad(sec) &&
        flash.Read(sec * flash.sector_bytes(), sector).ok()) {
      o.card.insert(o.card.end(), sector.begin(), sector.end());
    }
  }
  return o;
}

void ExpectParity(const ParityCase& c, bool program) {
  SCOPED_TRACE(c.name);
  const ParityOutcome span = RunParityCase(c, program, /*extent=*/false);
  const ParityOutcome ext = RunParityCase(c, program, /*extent=*/true);
  for (size_t i = 0; i < c.ops.size(); ++i) {
    EXPECT_EQ(span.codes[i], c.ops[i].expect) << "op " << i;
  }
  EXPECT_EQ(span.codes, ext.codes);
  EXPECT_EQ(span.messages, ext.messages);
  EXPECT_EQ(span.read_bytes, ext.read_bytes);
  EXPECT_EQ(span.now, ext.now);
  EXPECT_EQ(span.bank_busy_until, ext.bank_busy_until);
  EXPECT_EQ(span.counters, ext.counters);
  EXPECT_EQ(span.active_nj, ext.active_nj);
  EXPECT_EQ(span.faulting_reads_left, ext.faulting_reads_left);
  EXPECT_EQ(span.probe_program, ext.probe_program);
  EXPECT_EQ(span.card, ext.card);
}

// Programs both representations so reads see flat bytes, a whole extent,
// and a range that mixes the two.
void MixedSetup(FlashDevice& flash) {
  const std::vector<uint8_t> flat = Pattern(0, 64);
  ASSERT_TRUE(flash.Program(0, flat).ok());
  ExtentPool pool(32);
  const std::vector<uint8_t> ext = Pattern(64, 32);
  ASSERT_TRUE(flash.ProgramExtent(64, pool.AllocateCopy(ext.data())).ok());
}

constexpr ErrorCode kOutOfRange = ErrorCode::kOutOfRange;
constexpr ErrorCode kInvalidArgument = ErrorCode::kInvalidArgument;
constexpr ErrorCode kDataLoss = ErrorCode::kDataLoss;
constexpr ErrorCode kInternal = ErrorCode::kInternal;
constexpr ErrorCode kFailedPrecondition = ErrorCode::kFailedPrecondition;

TEST(FlashDeviceParityTest, ReadMatchesReadExtent) {
  const std::vector<ParityCase> cases = {
      {"mixed representations", 1, MixedSetup, {{0, 128}, {64, 32}, {8, 16}}},
      {"past end", 1, nullptr, {{kParityCapacity - 8, 16, kOutOfRange}}},
      {"bank-crossing", 4, nullptr, {{4 * 1024 - 8, 16, kInvalidArgument}}},
      {"sector-spanning", 1, MixedSetup, {{1024 - 8, 16}}},
      {"worn-out sector", 1, [](FlashDevice& f) { WearOut(f, 2); },
       {{2 * 1024 + 8, 16, kDataLoss}, {2 * 1024 - 8, 16, kDataLoss}}},
      {"injected read fault", 1,
       [](FlashDevice& f) { f.InjectReadFaults(1, 3); },
       {{1024 + 8, 16, kInternal}, {1024 - 8, 16, kInternal}, {0, 16}}},
      {"blocking read behind an erase", 4,
       [](FlashDevice& f) { ASSERT_TRUE(f.EraseSector(0, kCleanerIo).ok()); },
       {{0, 16}, {4 * 1024, 16}}},
      {"background read behind an erase", 4,
       [](FlashDevice& f) { ASSERT_TRUE(f.EraseSector(0, kCleanerIo).ok()); },
       {{0, 16}},
       kCleanerIo},
  };
  for (const ParityCase& c : cases) {
    ExpectParity(c, /*program=*/false);
  }
}

TEST(FlashDeviceParityTest, ProgramMatchesProgramExtent) {
  const std::vector<ParityCase> cases = {
      {"append", 1, nullptr, {{0, 64}, {64, 32}, {2048, 16}}},
      {"past end", 1, nullptr, {{kParityCapacity - 8, 16, kOutOfRange}}},
      {"zero bytes", 1, nullptr,
       {{0, 0}, {kParityCapacity + 8, 0, kOutOfRange}}},
      {"sector-crossing", 1, nullptr, {{1024 - 8, 16, kInvalidArgument}}},
      {"worn-out sector", 1, [](FlashDevice& f) { WearOut(f, 2); },
       {{2 * 1024 + 8, 16, kDataLoss}}},
      {"non-erased target", 1, MixedSetup,
       {{8, 16, kFailedPrecondition}, {60, 16, kFailedPrecondition},
        {200, 8}}},
      {"torn program with a skip count", 1,
       [](FlashDevice& f) { f.FailNextProgramAfterBytes(5, 1); },
       {{0, 16}, {64, 16, kInternal}, {64 + 5, 4}, {128, 16}}},
      {"torn program landing nothing", 1,
       [](FlashDevice& f) { f.FailNextProgramAfterBytes(0); },
       {{256, 16, kInternal}, {256, 16}}},
      {"background program", 4, nullptr, {{0, 64}, {4 * 1024, 64}},
       kFlushIo},
  };
  for (const ParityCase& c : cases) {
    ExpectParity(c, /*program=*/true);
  }
}

}  // namespace
}  // namespace ssmc
