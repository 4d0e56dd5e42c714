// Simulated direct-mapped (NOR-style) flash memory.
//
// Semantics modeled on the paper's description of flash (Section 2):
//  * random byte-level reads at DRAM-like speed (fixed access latency plus a
//    per-byte streaming cost);
//  * programming is ~100x slower than reading and can only clear bits: a
//    program targets bytes that are in the erased state (0xFF), otherwise it
//    fails with FAILED_PRECONDITION (strict mode) — this is the
//    "erase-before-write" constraint the OS must hide;
//  * erasure happens in fixed-size sectors and is slow (ms to seconds);
//  * each sector endures a limited number of erase cycles; beyond the
//    guaranteed endurance, erases fail probabilistically and the sector goes
//    bad (reads return DATA_LOSS) — this drives the wear-leveling experiment.
//
// Bank model (Section 3.3): capacity is split into equal contiguous banks,
// each an independent channel of the device's IoScheduler. Every operation
// is an IoRequest dispatched onto its bank's channel: while a program or
// erase is being served in a bank, requests to that bank queue behind it;
// requests to other banks proceed. Under the default FIFO policy dispatch
// reproduces the historical per-bank busy-until charge-latency model
// bit-for-bit; IoSchedPolicy::kPriority lets foreground reads jump queued
// flush/cleaner work (see io_request.h).
//
// Callers describe how they issue each operation with an IoIssue: the
// scheduling class, and whether the caller's clock advances to completion
// (the CPU is waiting) or the bank absorbs the time in the background (the
// storage manager's flush and cleaning paths).
//
// Threading: none. The simulator is single-threaded; "concurrency" between
// the CPU and the flash array is represented by the per-bank reservation
// timelines of the scheduler.

#ifndef SSMC_SRC_DEVICE_FLASH_DEVICE_H_
#define SSMC_SRC_DEVICE_FLASH_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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
#include "src/support/extent.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/units.h"

namespace ssmc {

class Obs;

class FlashDevice {
 public:
  // capacity_bytes must be a multiple of spec.erase_sector_bytes * banks.
  FlashDevice(FlashSpec spec, uint64_t capacity_bytes, int banks,
              SimClock& clock, uint64_t seed = 1);

  // --- Geometry ---------------------------------------------------------
  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t sector_bytes() const { return spec_.erase_sector_bytes; }
  uint64_t num_sectors() const { return capacity_ / sector_bytes(); }
  int num_banks() const { return io_.scheduler().num_channels(); }
  uint64_t sectors_per_bank() const { return sectors_per_bank_; }
  int BankOfAddress(uint64_t addr) const;
  int BankOfSector(uint64_t sector) const;

  // Advisory: start pulling the payload cache lines of [addr, addr + bytes)
  // toward the core ahead of a Read/Program. No effect on simulated state or
  // timing; never materializes an untouched sector.
  void PrefetchPayload(uint64_t addr, uint64_t bytes) const;

  // Advisory, for relocation pre-loops: pull `sector`'s extent directory and
  // each extent's refcount header toward the core. Zero-copy relocation
  // touches exactly these lines — never the payload bytes — so this is the
  // extent-plane counterpart of PrefetchPayload (which pulls the bytes).
  void PrefetchExtentIndex(uint64_t sector) const;
  const FlashSpec& spec() const { return spec_; }
  SimClock& clock() { return clock_; }

  // --- Operations -------------------------------------------------------
  // All operations validate bounds, then submit an IoRequest to the bank's
  // scheduler channel. Blocking issues advance the shared clock to the
  // request's completion and return the total latency the caller observed
  // (queue wait + service). Non-blocking issues reserve bank time and return
  // the same figure without advancing the clock (under kPriority it is the
  // dispatch-time estimate; queued work may shift later).

  // Random-access read. Foreground-blocking by default (the CPU consumes the
  // data); the cleaner's relocation reads pass a background issue so they
  // reserve bank time without advancing the caller's clock. Fails with
  // DATA_LOSS if any touched sector has worn out.
  Result<Duration> Read(uint64_t addr, std::span<uint8_t> out,
                        IoIssue issue = {});

  // Program pre-erased bytes. The span must lie within one sector. Fails with
  // FAILED_PRECONDITION if any target byte is not 0xFF.
  Result<Duration> Program(uint64_t addr, std::span<const uint8_t> data,
                           IoIssue issue = {});

  // Zero-copy variants for the FTL data plane. They share Read's and
  // Program's single implementation (validation, fault injection, simulated
  // timing, energy, stats); only the host-side payload representation
  // differs.
  //
  // ProgramExtent files the refcounted payload against the sector instead of
  // memcpying it into a flat buffer: the device becomes one more holder of
  // the extent (a counter bump), so a cleaner relocation that re-programs an
  // unchanged page moves zero payload bytes.
  Result<Duration> ProgramExtent(uint64_t addr, PayloadRef payload,
                                 IoIssue issue = {});

  // ReadExtent returns a shared ref to the stored payload when the range
  // exactly matches a previously programmed extent (the FTL's page reads —
  // no bytes move); otherwise it assembles the range into a fresh extent
  // from `pool` (whose payload_bytes() must equal `bytes`). Errors exactly
  // like Read (bounds, bank crossing, DATA_LOSS, injected faults).
  Result<PayloadRef> ReadExtent(uint64_t addr, uint64_t bytes,
                                ExtentPool& pool, IoIssue issue = {});

  // Erase one sector by index. Increments wear; may permanently fail the
  // sector once past the endurance limit.
  Result<Duration> EraseSector(uint64_t sector, IoIssue issue = {});

  // True if the sector is entirely 0xFF (cheap check used by allocators).
  bool IsSectorErased(uint64_t sector) const;
  bool IsSectorBad(uint64_t sector) const { return sectors_[sector].bad; }
  uint64_t EraseCount(uint64_t sector) const {
    return sectors_[sector].erase_count;
  }

  // Simulated time at which the given bank becomes free (completion of its
  // last reservation; monotone, like the busy-until timestamp it replaces).
  SimTime BankBusyUntil(int bank) const {
    return io_.scheduler().ChannelBusyUntil(bank);
  }

  // Request scheduling policy for all banks (default FIFO — byte-identical
  // to the pre-pipeline simulator). Switch requires an idle device.
  IoSchedPolicy sched_policy() const { return io_.scheduler().policy(); }
  void set_sched_policy(IoSchedPolicy policy) {
    io_.scheduler().set_policy(policy);
  }
  // The underlying per-bank scheduler (tests, pipeline introspection).
  IoScheduler& scheduler() { return io_.scheduler(); }

  // Per-tenant QoS knobs, forwarded to the scheduler: a kWeightedFair share
  // weight and a kTokenBucket byte-rate cap (see io_scheduler.h).
  void set_tenant_weight(TenantId tenant, uint32_t weight) {
    io_.scheduler().set_tenant_weight(tenant, weight);
  }
  void set_tenant_rate(TenantId tenant, uint64_t bytes_per_s,
                       uint64_t burst_bytes) {
    io_.scheduler().set_tenant_rate(tenant, bytes_per_s, burst_bytes);
  }

  // Erase-count change notification. Called after every EraseSector attempt
  // that bumps a sector's wear (i.e. on success AND on a wear-out failure —
  // the cycle is consumed either way), with the new count and whether the
  // sector just went bad. Lets the FTL's wear trackers stay incremental
  // instead of rescanning erase counts. At most one observer; pass nullptr
  // to unhook.
  using EraseObserver =
      std::function<void(uint64_t sector, uint64_t new_count, bool now_bad)>;
  void set_erase_observer(EraseObserver observer) {
    erase_observer_ = std::move(observer);
  }

  // Observability (nullable; null detaches): the shared banked-device tracks,
  // histograms, and request spans (banked_io.h) under "flash", plus the
  // Stats counters, tenant lanes, and wear gauges (stats_export.h).
  void AttachObs(Obs* obs);

  // Test hook: the next `count` reads touching `sector` fail with INTERNAL
  // (transient fault, distinct from wear-out DATA_LOSS). The failure is
  // injected before the request is scheduled, so it has no timing or energy
  // side effects.
  void InjectReadFaults(uint64_t sector, int count) {
    fault_sector_ = sector;
    fault_reads_remaining_ = count;
  }

  // Test hook (crash injection): after `after_programs` further successful
  // programs, the next program is torn by a simulated power failure — only
  // its first `bytes` bytes reach the medium, the op fails with INTERNAL,
  // and stats().torn_programs is bumped. Like InjectReadFaults the failure
  // fires before the request is scheduled (no timing or energy side
  // effects), and the hook is one-shot: it disarms after firing, so every
  // later program is genuine.
  void FailNextProgramAfterBytes(uint64_t bytes, uint64_t after_programs = 0) {
    torn_program_armed_ = true;
    torn_program_bytes_ = bytes;
    torn_program_skip_ = after_programs;
  }

  // Test hook (crash injection): the next EraseSector is interrupted by a
  // simulated power failure — the wear cycle is consumed (observer notified)
  // but the sector's contents stay untouched and the op fails with INTERNAL.
  // One-shot, like FailNextProgramAfterBytes.
  void InterruptNextErase() { erase_interrupt_armed_ = true; }

  // Differential payload oracle: every program additionally memcpys its
  // bytes into a flat shadow copy of the card — the representation the
  // extent layer replaced — and every Read/ReadExtent result is memcmp'd
  // against it. Mismatches are logged at kError and counted. O(bytes) per
  // op — tests only.
  void set_validate_payloads(bool on);
  bool validate_payloads() const { return validate_payloads_; }
  // Oracle disagreements observed (0 when the mode is off or every payload
  // matched the memcpy path).
  uint64_t payload_validation_failures() const {
    return payload_validation_failures_;
  }

  // --- Accounting -------------------------------------------------------
  // Keyed request attribution (IoLanes: by_class, by_tenant): how much of
  // each stream's latency was queueing behind other work vs time on the
  // medium, kept exact under reordering policies by BankedIo.
  struct Stats : IoLanes {
    Counter reads;            // Read operations.
    Counter read_bytes;
    Counter programs;         // Program operations.
    Counter programmed_bytes;
    Counter erases;           // Sector erases (includes failed attempts).
    Counter read_stall_ns;    // Time blocking reads spent waiting on banks.
    Counter bad_sectors;      // Sectors permanently failed.
    Counter torn_programs;    // Injected power-fail torn writes (tests).
    Counter interrupted_erases;  // Injected power-fail erases (tests).
  };
  const Stats& stats() const { return stats_; }
  const EnergyMeter& energy() const { return energy_; }
  // Active (busy) nanoseconds across all banks; idle time is wall minus this.
  Duration total_active_ns() const { return energy_.active_ns(); }
  // Adds standby energy for the time since the previous call not covered by
  // active time; call when settling a run's energy.
  void AccountIdleEnergy() { energy_.SettleIdle(standby_mw(), clock_.now()); }

  struct WearSummary {
    uint64_t min_erases = 0;
    uint64_t max_erases = 0;
    double mean_erases = 0;
    double stddev_erases = 0;
    uint64_t bad_sectors = 0;
  };
  WearSummary SummarizeWear() const;

  // Power model: an operation activates one chip (~1 MiB of array), so
  // active draw is the paper's per-megabyte figure for one megabyte; standby
  // (retention/interface) draw scales with the whole card.
  double active_mw() const { return spec_.active_mw_per_mib; }
  double standby_mw() const {
    return spec_.standby_mw_per_mib * (static_cast<double>(capacity_) / kMiB);
  }

 private:
  struct Sector {
    uint64_t erase_count = 0;
    // End offset (exclusive) of the highest byte programmed since the last
    // erase. Bytes at or beyond it are guaranteed still erased, so
    // append-order programs (the FTL's only pattern) skip the erased-check
    // memcmp; programs below it fall back to the full check.
    uint32_t programmed_end = 0;
    bool bad = false;
  };

  // Sector geometry is almost always a power of two; cache the shift so the
  // per-operation address decomposition is a shift/mask instead of 64-bit
  // division. -1 falls back to division for odd geometries.
  uint64_t SectorOfAddr(uint64_t addr) const {
    return sector_shift_ >= 0 ? addr >> sector_shift_ : addr / sector_bytes();
  }
  uint64_t OffsetInSector(uint64_t addr) const {
    return sector_shift_ >= 0 ? addr & (sector_bytes() - 1)
                              : addr % sector_bytes();
  }

  // Submits and attributes an operation of duration `op_ns` on `bank` and
  // charges its active energy. Returns the dispatch (wait + service = the
  // latency the caller observes).
  IoScheduler::Dispatch SubmitOp(IoOp op, int bank, uint64_t addr,
                                 uint64_t bytes, Duration op_ns,
                                 IoIssue issue) {
    const IoScheduler::Dispatch d =
        io_.Submit(op, bank, addr, bytes, op_ns, issue);
    energy_.AddActive(active_mw(), op_ns);
    return d;
  }

  // The one read path behind Read and ReadExtent: bounds, bank crossing,
  // worn-out and injected-fault checks, dispatch, clock advance and stall
  // accounting. Then `fill()` produces the bytes in the variant's
  // representation and returns a pointer to them for the payload oracle.
  // An in-range zero-byte read never calls `fill` and costs nothing.
  template <typename Fill>
  Result<Duration> ReadOp(uint64_t addr, uint64_t bytes, IoIssue issue,
                          Fill fill);

  // The one program path behind Program and ProgramExtent. `src` holds the
  // `bytes` to program; a non-null `extent` (whose payload is `src`) is
  // filed against the sector instead of copying the bytes flat.
  Result<Duration> ProgramOp(uint64_t addr, const uint8_t* src,
                             uint64_t bytes, PayloadRef* extent,
                             IoIssue issue);

  // One programmed extent within a sector: `ref`'s payload covers
  // [offset, offset + ref.size()). Entries are kept sorted by offset and
  // disjoint (erase-before-write semantics forbid overlap, enforced by the
  // erased checks — the same rule that keeps extents disjoint from any
  // flat-programmed bytes in the same sector).
  struct ExtentEntry {
    uint32_t offset;
    PayloadRef ref;
  };

  // Calls fn(lo, p, len) for each extent of `sector` intersecting
  // [off, off + n), where `p` holds that extent's share [lo, lo + len) of
  // the sector.
  template <typename Fn>
  void ForEachExtentIn(uint64_t sector, uint64_t off, uint64_t n,
                       Fn fn) const;

  // The stored extent covering exactly [off, off + n) of `sector`, or null.
  const PayloadRef* ExactExtent(uint64_t sector, uint64_t off,
                                uint64_t n) const;

  // Assembles [off, off + n) of `sector` into `dst`: flat bytes (or 0xFF for
  // unmaterialized) overlaid with every intersecting extent. Exact
  // single-extent matches short-circuit to one memcpy.
  void CopyOut(uint64_t sector, uint64_t off, uint64_t n, uint8_t* dst) const;
  // CopyOut over [addr, addr + n), which may span sectors.
  void CopyRange(uint64_t addr, uint64_t n, uint8_t* dst) const;

  // Erased check for [off, off + n) across both representations. On failure
  // returns false and stores the absolute address of the first non-erased
  // byte (for the error message) in *first_programmed_addr.
  bool RangeErased(uint64_t sector, uint64_t off, uint64_t n,
                   uint64_t* first_programmed_addr) const;

  // Returns a flat sector buffer, allocating (and 0xFF-filling) it on first
  // touch: the card's flat payloads and the validate_payloads shadow.
  uint8_t* Materialize(std::unique_ptr<uint8_t[]>& slot);
  // memcmp `got` against the shadow's [addr, addr + n); logs + counts on
  // mismatch.
  void CheckAgainstShadow(uint64_t addr, const uint8_t* got, uint64_t n);

  FlashSpec spec_;
  uint64_t capacity_;
  SimClock& clock_;
  Rng rng_;
  // Per-sector payloads, materialized on first program. A null entry means
  // the sector has never been programmed and reads as all-0xFF. Most of a
  // card stays in that state for most workloads, so construction costs no
  // capacity-sized fill (and no page faults re-touching tens of MiB).
  int sector_shift_ = -1;
  int bank_shift_ = -1;
  uint64_t sectors_per_bank_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> sector_data_;
  // Per-sector extent payloads (ProgramExtent). A sector may mix both
  // representations — flat bytes from raw Program spans, extents from the
  // FTL — with CopyOut/RangeErased merging the two views; pure-FTL sectors
  // never materialize a flat buffer at all, so erases drop refs instead of
  // memsetting.
  std::vector<std::vector<ExtentEntry>> sector_extents_;
  // One sector's worth of 0xFF, compared wholesale (memcmp) by the erased
  // checks in Program() and IsSectorErased().
  std::vector<uint8_t> erased_template_;
  std::vector<Sector> sectors_;
  // validate_payloads state (see set_validate_payloads).
  bool validate_payloads_ = false;
  uint64_t payload_validation_failures_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> shadow_data_;
  Stats stats_;
  BankedIo io_;  // Attributes into stats_.
  EnergyMeter energy_;
  EraseObserver erase_observer_;
  uint64_t fault_sector_ = 0;
  int fault_reads_remaining_ = 0;
  bool torn_program_armed_ = false;
  uint64_t torn_program_bytes_ = 0;
  uint64_t torn_program_skip_ = 0;
  bool erase_interrupt_armed_ = false;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_DEVICE_FLASH_DEVICE_H_
