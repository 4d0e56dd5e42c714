// Energy accounting. Devices report (power level, duration) windows to an
// EnergyMeter; the meter integrates them into nanojoules. Power levels are in
// milliwatts; 1 mW * 1 ns = 1e-3 nJ, so we accumulate in double nanojoules.
//
// Each device keeps one meter; MobileComputer sums them for system energy,
// which feeds the battery drain model and the E9 sizing experiment. The
// solid-state devices (DRAM, flash, NVM) charge standby draw for whatever
// part of each settle window their meter did not see active.

#ifndef SSMC_SRC_SIM_ENERGY_H_
#define SSMC_SRC_SIM_ENERGY_H_

#include <algorithm>
#include <string>

#include "src/support/units.h"

namespace ssmc {

class EnergyMeter {
 public:
  // Adds energy for `active` ns spent at `milliwatts`.
  void AddActive(double milliwatts, Duration active) {
    const double nj = milliwatts * 1e-3 * static_cast<double>(active);
    active_nj_ += nj;
    total_nj_ += nj;
    active_ns_ += active;
  }

  // Adds idle (standby) energy for `idle` ns at `milliwatts`.
  void AddIdle(double milliwatts, Duration idle) {
    const double nj = milliwatts * 1e-3 * static_cast<double>(idle);
    idle_nj_ += nj;
    total_nj_ += nj;
  }

  // Charges standby draw for the window since the previous settle (or time
  // 0), minus the active time accrued in that window. Active never exceeds
  // wall-clock times bank count, and in practice is far below the window.
  void SettleIdle(double standby_milliwatts, SimTime now) {
    const Duration window = now - settled_until_;
    if (window <= 0) {
      return;
    }
    const Duration active = active_ns_ - settled_active_ns_;
    AddIdle(standby_milliwatts, std::max<Duration>(0, window - active));
    settled_until_ = now;
    settled_active_ns_ = active_ns_;
  }

  double total_nanojoules() const { return total_nj_; }
  double active_nanojoules() const { return active_nj_; }
  double idle_nanojoules() const { return idle_nj_; }
  // Cumulative active (busy) time across every AddActive call.
  Duration active_ns() const { return active_ns_; }

  void Reset() { *this = EnergyMeter(); }

  std::string Summary() const {
    return FormatEnergy(total_nj_) + " (active " + FormatEnergy(active_nj_) +
           ", idle " + FormatEnergy(idle_nj_) + ")";
  }

 private:
  double total_nj_ = 0;
  double active_nj_ = 0;
  double idle_nj_ = 0;
  Duration active_ns_ = 0;
  SimTime settled_until_ = 0;
  Duration settled_active_ns_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SIM_ENERGY_H_
