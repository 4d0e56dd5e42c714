// Simulated byte-addressable non-volatile memory (PCM class).
//
// The third tier of the paper's Section 5 hierarchy: random byte-level reads
// a small multiple of DRAM latency, asymmetrically slower writes (the
// phase-change programming pulse), no erase constraint, and contents that
// survive power loss at zero retention power. Capacity is split into equal
// contiguous banks, each an independent channel of the device's IoScheduler,
// exactly like the flash card: a write being served in a bank queues later
// requests to that bank while other banks proceed.
//
// Unlike the flash device this one carries no payload plane of its own — the
// StorageManager's refcounted page-payload tables hold the bytes for every
// byte-addressable tier (DRAM and NVM alike), so the device models timing,
// energy, per-bank wear, and attribution only.

#ifndef SSMC_SRC_DEVICE_NVM_DEVICE_H_
#define SSMC_SRC_DEVICE_NVM_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/device/banked_io.h"
#include "src/device/specs.h"
#include "src/obs/stats_export.h"
#include "src/sim/clock.h"
#include "src/sim/energy.h"
#include "src/sim/io_request.h"
#include "src/sim/io_scheduler.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class NvmDevice {
 public:
  // capacity_bytes must divide evenly into `banks`.
  NvmDevice(NvmSpec spec, uint64_t capacity_bytes, int banks, SimClock& clock);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  // --- Geometry ---------------------------------------------------------
  uint64_t capacity_bytes() const { return capacity_; }
  int num_banks() const { return io_.scheduler().num_channels(); }
  uint64_t bytes_per_bank() const { return bytes_per_bank_; }
  int BankOfAddress(uint64_t addr) const {
    return static_cast<int>(addr / bytes_per_bank_);
  }
  const NvmSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // --- Operations -------------------------------------------------------
  // Bounds-checked, then submitted as an IoRequest to the address's bank
  // channel. Blocking issues advance the shared clock to completion and the
  // returned latency includes queue wait; background issues reserve bank
  // time only. A transfer may not cross a bank boundary (callers split at
  // page granularity, pages never straddle banks).
  Result<Duration> Read(uint64_t addr, uint64_t bytes, IoIssue issue = {});
  Result<Duration> Write(uint64_t addr, uint64_t bytes, IoIssue issue = {});

  SimTime BankBusyUntil(int bank) const {
    return io_.scheduler().ChannelBusyUntil(bank);
  }
  IoSchedPolicy sched_policy() const { return io_.scheduler().policy(); }
  void set_sched_policy(IoSchedPolicy policy) {
    io_.scheduler().set_policy(policy);
  }
  IoScheduler& scheduler() { return io_.scheduler(); }
  void set_tenant_weight(TenantId tenant, uint32_t weight) {
    io_.scheduler().set_tenant_weight(tenant, weight);
  }
  void set_tenant_rate(TenantId tenant, uint64_t bytes_per_s,
                       uint64_t burst_bytes) {
    io_.scheduler().set_tenant_rate(tenant, bytes_per_s, burst_bytes);
  }

  // Observability (nullable; null detaches): the flash device's layout under
  // the "nvm" prefix — the shared banked-device tracks, histograms, and
  // request spans (banked_io.h), plus Stats counters, tenant lanes, and the
  // wear gauge (stats_export.h).
  void AttachObs(Obs* obs);

  // --- Accounting -------------------------------------------------------
  // Request attribution (IoLanes: by_class, by_tenant) is BankedIo's, the
  // same as the flash device's.
  struct Stats : IoLanes {
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter read_stall_ns;  // Time blocking reads spent waiting on banks.
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  Duration total_active_ns() const { return energy_.active_ns(); }
  void AccountIdleEnergy() { energy_.SettleIdle(standby_mw(), clock_.now()); }

  // Per-bank write wear: PCM endurance is per-line, so the interesting
  // signal is how evenly write traffic spreads across banks.
  struct WearSummary {
    uint64_t min_writes = 0;
    uint64_t max_writes = 0;
    double mean_writes = 0;
    uint64_t total_write_bytes = 0;
  };
  WearSummary SummarizeWear() const;
  uint64_t BankWriteCount(int bank) const { return bank_writes_[bank]; }

  // An access activates one chip (~1 MiB of array); standby draw scales
  // with capacity (interface only — the array retains at zero power).
  double active_mw() const { return spec_.active_mw_per_mib; }
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  IoScheduler::Dispatch SubmitOp(IoOp op, int bank, uint64_t addr,
                                 uint64_t bytes, Duration op_ns,
                                 IoIssue issue) {
    const IoScheduler::Dispatch d =
        io_.Submit(op, bank, addr, bytes, op_ns, issue);
    energy_.AddActive(active_mw(), op_ns);
    return d;
  }

  NvmSpec spec_;
  uint64_t capacity_;
  uint64_t bytes_per_bank_;
  SimClock& clock_;
  Stats stats_;
  BankedIo io_;  // Attributes into stats_.
  std::vector<uint64_t> bank_writes_;       // Write ops per bank.
  std::vector<uint64_t> bank_write_bytes_;  // Write bytes per bank.
  EnergyMeter energy_;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_NVM_DEVICE_H_
