#include "src/sim/energy.h"

#include <gtest/gtest.h>

namespace ssmc {
namespace {

TEST(EnergyMeterTest, StartsAtZero) {
  EnergyMeter m;
  EXPECT_EQ(m.total_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, ActiveEnergyIntegral) {
  EnergyMeter m;
  // 1000 mW for 1 second = 1 J = 1e9 nJ.
  m.AddActive(1000.0, kSecond);
  EXPECT_NEAR(m.total_nanojoules(), 1e9, 1);
  EXPECT_NEAR(m.active_nanojoules(), 1e9, 1);
  EXPECT_EQ(m.idle_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, IdleSeparatedFromActive) {
  EnergyMeter m;
  m.AddActive(100.0, kMillisecond);  // 0.1 mJ = 1e5 nJ.
  m.AddIdle(1.0, kSecond);           // 1 mJ = 1e6 nJ.
  EXPECT_NEAR(m.active_nanojoules(), 1e5, 1);
  EXPECT_NEAR(m.idle_nanojoules(), 1e6, 1);
  EXPECT_NEAR(m.total_nanojoules(), 1.1e6, 1);
}

TEST(EnergyMeterTest, SettleIdleChargesEachWindowOnce) {
  EnergyMeter m;
  m.AddActive(100.0, 300 * kMillisecond);
  EXPECT_EQ(m.active_ns(), 300 * kMillisecond);
  // Window [0, 1 s): 700 ms idle at 1 mW = 7e5 nJ.
  m.SettleIdle(1.0, kSecond);
  EXPECT_NEAR(m.idle_nanojoules(), 7e5, 1);
  // Window [1 s, 3 s): no activity, all 2 s idle.
  m.SettleIdle(1.0, 3 * kSecond);
  EXPECT_NEAR(m.idle_nanojoules(), 7e5 + 2e6, 1);
  // An empty window charges nothing.
  m.SettleIdle(1.0, 3 * kSecond);
  EXPECT_NEAR(m.idle_nanojoules(), 7e5 + 2e6, 1);
}

TEST(EnergyMeterTest, ResetClears) {
  EnergyMeter m;
  m.AddActive(5, 100);
  m.Reset();
  EXPECT_EQ(m.total_nanojoules(), 0.0);
}

TEST(EnergyMeterTest, SummaryIsHumanReadable) {
  EnergyMeter m;
  m.AddActive(1000.0, kSecond);
  EXPECT_NE(m.Summary().find("J"), std::string::npos);
}

}  // namespace
}  // namespace ssmc
