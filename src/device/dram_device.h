// Simulated battery-backed DRAM.
//
// Primary storage in the paper's organization: uniform random-access reads
// and writes, no erase constraint, effectively unlimited endurance. Contents
// survive as long as a battery holds them up; on power loss the device drops
// its contents (unless battery_backed, in which case loss happens only when
// the Battery model declares total failure — see battery.h and the E10
// reliability experiment).

#ifndef SSMC_SRC_DEVICE_DRAM_DEVICE_H_
#define SSMC_SRC_DEVICE_DRAM_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/device/specs.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/stats.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class DramDevice {
 public:
  DramDevice(DramSpec spec, uint64_t capacity_bytes, SimClock& clock);

  uint64_t capacity_bytes() const { return capacity_; }
  const DramSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // Blocking read/write; advances the clock and returns the latency.
  Result<Duration> Read(uint64_t addr, std::span<uint8_t> out);
  Result<Duration> Write(uint64_t addr, std::span<const uint8_t> data);

  // Charges the timing and energy of an access of `bytes` without moving
  // data. Used to account metadata operations on memory-resident structures
  // (directory lookups, page-table walks) that the simulator keeps in host
  // containers rather than in the simulated byte array.
  Duration ChargeAccess(uint64_t bytes, bool is_write);

  // Models power failure. Battery-backed DRAM keeps its contents; volatile
  // DRAM loses everything (zeroed) and records the loss.
  void OnPowerLoss();
  // Unconditional loss (battery totally failed / machine dropped).
  void ForceContentLoss();
  bool contents_lost() const { return contents_lost_; }

  struct Stats {
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter content_losses;
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  Duration total_active_ns() const { return energy_.active_ns(); }
  void AccountIdleEnergy() { energy_.SettleIdle(standby_mw(), clock_.now()); }

  // An access activates one bank (~1 MiB of array): active draw is the
  // per-megabyte figure for one megabyte.
  double active_mw() const { return spec_.active_mw_per_mib; }
  // Retention (self-refresh) power covers the whole array; this is what
  // drains the battery while the machine is otherwise idle.
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  // Backing storage is materialized in fixed chunks on first write; a null
  // chunk reads as zeros. Keeps construction (and content loss) O(touched)
  // instead of O(capacity) — a 16 MiB array costs nothing until used.
  static constexpr uint64_t kChunkBytes = 64 * 1024;

  uint8_t* MaterializeChunk(uint64_t chunk);

  DramSpec spec_;
  uint64_t capacity_;
  SimClock& clock_;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  Stats stats_;
  EnergyMeter energy_;
  bool contents_lost_ = false;
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_DRAM_DEVICE_H_
