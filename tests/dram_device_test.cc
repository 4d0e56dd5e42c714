#include "src/device/dram_device.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace ssmc {
namespace {

DramSpec TestSpec(bool battery_backed = true) {
  DramSpec spec;
  spec.name = "test dram";
  spec.read = {50, 10};
  spec.write = {60, 12};
  spec.active_mw_per_mib = 150;
  spec.standby_mw_per_mib = 1.5;
  spec.battery_backed = battery_backed;
  return spec;
}

TEST(DramDeviceTest, WriteThenReadRoundTrips) {
  SimClock clock;
  DramDevice dram(TestSpec(), 64 * 1024, clock);
  std::vector<uint8_t> data(128);
  std::iota(data.begin(), data.end(), 1);
  ASSERT_TRUE(dram.Write(4096, data).ok());
  std::vector<uint8_t> out(128);
  ASSERT_TRUE(dram.Read(4096, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DramDeviceTest, LatencyFollowsSpec) {
  SimClock clock;
  DramDevice dram(TestSpec(), 64 * 1024, clock);
  std::vector<uint8_t> buf(100);
  Result<Duration> r = dram.Read(0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 50 + 10 * 100);
  Result<Duration> w = dram.Write(0, buf);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 60 + 12 * 100);
  EXPECT_EQ(clock.now(), r.value() + w.value());
}

TEST(DramDeviceTest, OutOfRangeRejected) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1024, clock);
  std::vector<uint8_t> buf(64);
  EXPECT_EQ(dram.Read(1024, buf).status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dram.Write(1000, buf).status().code(), ErrorCode::kOutOfRange);
}

TEST(DramDeviceTest, BatteryBackedSurvivesPowerLoss) {
  SimClock clock;
  DramDevice dram(TestSpec(/*battery_backed=*/true), 1024, clock);
  std::vector<uint8_t> data(16, 0x5A);
  ASSERT_TRUE(dram.Write(0, data).ok());
  dram.OnPowerLoss();
  EXPECT_FALSE(dram.contents_lost());
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(dram.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(DramDeviceTest, VolatileDramLosesContentsOnPowerLoss) {
  SimClock clock;
  DramDevice dram(TestSpec(/*battery_backed=*/false), 1024, clock);
  std::vector<uint8_t> data(16, 0x5A);
  ASSERT_TRUE(dram.Write(0, data).ok());
  dram.OnPowerLoss();
  EXPECT_TRUE(dram.contents_lost());
  std::vector<uint8_t> out(16, 0xEE);
  ASSERT_TRUE(dram.Read(0, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(16, 0));
  EXPECT_EQ(dram.stats().content_losses.value(), 1u);
}

TEST(DramDeviceTest, ForceContentLossAlwaysLoses) {
  SimClock clock;
  DramDevice dram(TestSpec(/*battery_backed=*/true), 1024, clock);
  std::vector<uint8_t> data(16, 0x5A);
  ASSERT_TRUE(dram.Write(0, data).ok());
  dram.ForceContentLoss();
  EXPECT_TRUE(dram.contents_lost());
}

TEST(DramDeviceTest, StatsTrackBytes) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1024, clock);
  std::vector<uint8_t> buf(100);
  ASSERT_TRUE(dram.Write(0, buf).ok());
  ASSERT_TRUE(dram.Read(0, buf).ok());
  EXPECT_EQ(dram.stats().writes.value(), 1u);
  EXPECT_EQ(dram.stats().written_bytes.value(), 100u);
  EXPECT_EQ(dram.stats().reads.value(), 1u);
  EXPECT_EQ(dram.stats().read_bytes.value(), 100u);
}

TEST(DramDeviceTest, StandbyPowerScalesWithCapacity) {
  SimClock clock;
  DramDevice small(TestSpec(), 1 * kMiB, clock);
  DramDevice big(TestSpec(), 4 * kMiB, clock);
  EXPECT_DOUBLE_EQ(big.standby_mw(), 4 * small.standby_mw());
}

TEST(DramDeviceTest, IdleEnergyAccrues) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1 * kMiB, clock);
  clock.Advance(kSecond);
  dram.AccountIdleEnergy();
  // 1.5 mW for 1 s = 1.5 mJ = 1.5e6 nJ.
  EXPECT_NEAR(dram.energy().idle_nanojoules(), 1.5e6, 1e4);
}

// Each settle charges standby only for its own window: active time already
// offset against an earlier window must not be subtracted again.
TEST(DramDeviceTest, IdleEnergyOfLaterSettleCoversOnlyItsWindow) {
  SimClock clock;
  DramDevice dram(TestSpec(), 1 * kMiB, clock);
  while (dram.total_active_ns() < 300 * kMillisecond) {
    dram.ChargeAccess(64 * kKiB, /*is_write=*/true);
  }
  dram.AccountIdleEnergy();
  const double idle_before = dram.energy().idle_nanojoules();
  clock.Advance(kSecond);  // Pure idle.
  dram.AccountIdleEnergy();
  // 1.5 mW for 1 s = 1.5e6 nJ.
  EXPECT_NEAR(dram.energy().idle_nanojoules() - idle_before,
              dram.standby_mw() * 1e-3 * static_cast<double>(kSecond), 1.0);
}

}  // namespace
}  // namespace ssmc
