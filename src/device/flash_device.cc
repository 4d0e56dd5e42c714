#include "src/device/flash_device.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

#include "src/support/log.h"

namespace ssmc {

namespace {
constexpr uint8_t kErasedByte = 0xFF;

// First entry of a sector's offset-sorted extent list at or after `off`.
template <typename Extents>
auto ExtentAtOrAfter(Extents& extents, uint64_t off) {
  return std::lower_bound(
      extents.begin(), extents.end(), off,
      [](const auto& e, uint64_t o) { return e.offset < o; });
}

void PrefetchBytes(const uint8_t* p, uint64_t n) {
  for (uint64_t i = 0; i < n; i += 64) {
    __builtin_prefetch(p + i, 0);
  }
}
}  // namespace

FlashDevice::FlashDevice(FlashSpec spec, uint64_t capacity_bytes, int banks,
                         SimClock& clock, uint64_t seed)
    : spec_(std::move(spec)),
      capacity_(capacity_bytes),
      clock_(clock),
      rng_(seed),
      io_("flash", clock, banks, stats_) {
  assert(banks >= 1);
  assert(spec_.erase_sector_bytes > 0);
  assert(capacity_ % spec_.erase_sector_bytes == 0);
  assert((capacity_ / spec_.erase_sector_bytes) % banks == 0 &&
         "sectors must divide evenly into banks");
  sector_data_.resize(capacity_ / spec_.erase_sector_bytes);
  sector_extents_.resize(capacity_ / spec_.erase_sector_bytes);
  sectors_per_bank_ = (capacity_ / spec_.erase_sector_bytes) /
                      static_cast<uint64_t>(banks);
  if (std::has_single_bit(spec_.erase_sector_bytes)) {
    sector_shift_ = std::countr_zero(spec_.erase_sector_bytes);
  }
  if (std::has_single_bit(sectors_per_bank_)) {
    bank_shift_ = std::countr_zero(sectors_per_bank_);
  }
  erased_template_.assign(spec_.erase_sector_bytes, kErasedByte);
  sectors_.resize(capacity_ / spec_.erase_sector_bytes);
}

void FlashDevice::AttachObs(Obs* obs) {
  io_.AttachObs(obs);
  static constexpr CounterField<Stats> kCounters[] = {
      {"reads", &Stats::reads},
      {"read_bytes", &Stats::read_bytes},
      {"programs", &Stats::programs},
      {"programmed_bytes", &Stats::programmed_bytes},
      {"erases", &Stats::erases},
      {"read_stall_ns", &Stats::read_stall_ns},
  };
  export_.Attach(obs, "flash", stats_, kCounters, stats_.by_tenant,
                 IoLaneStats::Fields(), [this](MetricsRegistry& m) {
                   m.AddGauge("flash/bad_sectors")
                       ->Set(static_cast<int64_t>(stats_.bad_sectors.value()));
                   m.AddGauge("flash/wear_max_erases")
                       ->Set(static_cast<int64_t>(SummarizeWear().max_erases));
                 });
}

int FlashDevice::BankOfAddress(uint64_t addr) const {
  return BankOfSector(SectorOfAddr(addr));
}

template <typename Fn>
void FlashDevice::ForEachExtentIn(uint64_t sector, uint64_t off, uint64_t n,
                                  Fn fn) const {
  const std::vector<ExtentEntry>& extents = sector_extents_[sector];
  auto it = std::upper_bound(
      extents.begin(), extents.end(), off,
      [](uint64_t o, const ExtentEntry& e) { return o < e.offset; });
  if (it != extents.begin()) {
    --it;  // The previous extent may begin before `off` and reach into it.
  }
  for (; it != extents.end() && it->offset < off + n; ++it) {
    const uint64_t lo = std::max<uint64_t>(off, it->offset);
    const uint64_t hi =
        std::min<uint64_t>(off + n, it->offset + it->ref.size());
    if (lo < hi) {
      fn(lo, it->ref.data() + (lo - it->offset), hi - lo);
    }
  }
}

void FlashDevice::PrefetchPayload(uint64_t addr, uint64_t bytes) const {
  if (bytes == 0 || addr + bytes > capacity_) {
    return;
  }
  const uint64_t sector = SectorOfAddr(addr);
  if (sector != SectorOfAddr(addr + bytes - 1)) {
    return;  // Callers' transfers never span sectors; don't bother.
  }
  const uint64_t off = OffsetInSector(addr);
  if (const uint8_t* base = sector_data_[sector].get()) {
    PrefetchBytes(base + off, bytes);
  }
  // Unmaterialized flat storage reads as 0xFF without touching memory; any
  // extent payloads intersecting the range are worth pulling in though.
  ForEachExtentIn(sector, off, bytes,
                  [](uint64_t, const uint8_t* p, uint64_t len) {
                    PrefetchBytes(p, len);
                  });
}

void FlashDevice::PrefetchExtentIndex(uint64_t sector) const {
  const std::vector<ExtentEntry>& extents = sector_extents_[sector];
  for (const ExtentEntry& e : extents) {
    e.ref.Prefetch();
  }
}

int FlashDevice::BankOfSector(uint64_t sector) const {
  return static_cast<int>(bank_shift_ >= 0 ? sector >> bank_shift_
                                           : sector / sectors_per_bank());
}

template <typename Fill>
Result<Duration> FlashDevice::ReadOp(uint64_t addr, uint64_t bytes,
                                     IoIssue issue, Fill fill) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("flash read past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  // A read may span sectors but not banks (callers split larger transfers;
  // the FTL never issues cross-bank reads).
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("flash read crosses a bank boundary");
  }
  for (uint64_t s = SectorOfAddr(addr); s <= SectorOfAddr(addr + bytes - 1);
       ++s) {
    if (sectors_[s].bad) {
      return DataLossError("read from worn-out flash sector " +
                           std::to_string(s));
    }
    if (fault_reads_remaining_ > 0 && s == fault_sector_) {
      fault_reads_remaining_ -= 1;
      return InternalError("injected read fault in flash sector " +
                           std::to_string(s));
    }
  }

  const Duration op_ns = spec_.read.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kRead, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
    clock_.AdvanceTo(d.complete);
  }
  const uint8_t* got = fill();
  if (validate_payloads_) {
    CheckAgainstShadow(addr, got, bytes);
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(bytes);
  return d.wait + op_ns;
}

Result<Duration> FlashDevice::Read(uint64_t addr, std::span<uint8_t> out,
                                   IoIssue issue) {
  return ReadOp(addr, out.size(), issue, [&] {
    CopyRange(addr, out.size(), out.data());
    return out.data();
  });
}

Result<PayloadRef> FlashDevice::ReadExtent(uint64_t addr, uint64_t bytes,
                                           ExtentPool& pool, IoIssue issue) {
  assert(pool.payload_bytes() == bytes &&
         "ReadExtent assembles into whole pool extents");
  PayloadRef payload;
  Result<Duration> read = ReadOp(addr, bytes, issue, [&] {
    if (const PayloadRef* stored =
            ExactExtent(SectorOfAddr(addr), OffsetInSector(addr), bytes)) {
      payload = *stored;  // Zero-copy: share the stored extent.
    } else {
      // Flat-programmed or fragmented range: assemble a copy, exactly what
      // Read would have produced.
      payload = pool.Allocate();
      CopyRange(addr, bytes, payload.MutableData());
    }
    return payload.data();
  });
  if (!read.ok()) {
    return read.status();
  }
  return payload;
}

void FlashDevice::CopyRange(uint64_t addr, uint64_t n, uint8_t* dst) const {
  while (n > 0) {
    const uint64_t s = SectorOfAddr(addr);
    const uint64_t off = OffsetInSector(addr);
    const uint64_t chunk = std::min(n, sector_bytes() - off);
    CopyOut(s, off, chunk, dst);
    dst += chunk;
    addr += chunk;
    n -= chunk;
  }
}

void FlashDevice::CopyOut(uint64_t sector, uint64_t off, uint64_t n,
                          uint8_t* dst) const {
  // Fast path: the range is exactly one programmed extent (the FTL's
  // page-granular reads) — one memcpy, no background fill. Extent content
  // wins over flat content trivially: erase-before-write keeps the two
  // representations disjoint, so flat bytes under an extent are 0xFF.
  if (const PayloadRef* stored = ExactExtent(sector, off, n)) {
    std::memcpy(dst, stored->data(), n);
    return;
  }
  // General path: flat (or erased) background, then overlay every
  // intersecting extent.
  if (const uint8_t* src = sector_data_[sector].get()) {
    std::memcpy(dst, src + off, n);
  } else {
    std::memset(dst, kErasedByte, n);
  }
  ForEachExtentIn(sector, off, n,
                  [&](uint64_t lo, const uint8_t* p, uint64_t len) {
                    std::memcpy(dst + (lo - off), p, len);
                  });
}

const PayloadRef* FlashDevice::ExactExtent(uint64_t sector, uint64_t off,
                                           uint64_t n) const {
  const std::vector<ExtentEntry>& extents = sector_extents_[sector];
  auto it = ExtentAtOrAfter(extents, off);
  return it != extents.end() && it->offset == off && it->ref.size() == n
             ? &it->ref
             : nullptr;
}

Result<Duration> FlashDevice::ProgramOp(uint64_t addr, const uint8_t* src,
                                        uint64_t bytes, PayloadRef* extent,
                                        IoIssue issue) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("flash program past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  const uint64_t sector = SectorOfAddr(addr);
  if (SectorOfAddr(addr + bytes - 1) != sector) {
    return InvalidArgumentError("flash program crosses a sector boundary");
  }
  Sector& meta = sectors_[sector];
  if (meta.bad) {
    return DataLossError("program to worn-out flash sector " +
                         std::to_string(sector));
  }
  // Strict NOR semantics: target bytes must be erased. Bytes at or beyond
  // the programmed watermark are erased by construction (so the FTL's
  // append-order programs skip the scan); below it, RangeErased memcmps both
  // payload representations against the all-0xFF template.
  const uint64_t off = OffsetInSector(addr);
  if (off < meta.programmed_end) {
    uint64_t first_programmed = 0;
    if (!RangeErased(sector, off, bytes, &first_programmed)) {
      return FailedPreconditionError(
          "program to non-erased flash byte at address " +
          std::to_string(first_programmed));
    }
  }

  // A torn program (FailNextProgramAfterBytes) is never scheduled, and only
  // its prefix reaches the medium.
  bool torn = false;
  uint64_t landed = bytes;
  if (torn_program_armed_) {
    if (torn_program_skip_ > 0) {
      --torn_program_skip_;
    } else {
      torn_program_armed_ = false;
      torn = true;
      landed = std::min<uint64_t>(torn_program_bytes_, bytes);
    }
  }
  Duration latency = 0;
  if (!torn) {
    const Duration op_ns = spec_.program.LatencyFor(bytes);
    const IoScheduler::Dispatch d = SubmitOp(
        IoOp::kProgram, BankOfSector(sector), addr, bytes, op_ns, issue);
    if (issue.blocking) {
      clock_.AdvanceTo(d.complete);
    }
    latency = d.wait + op_ns;
  }
  if (landed > 0) {
    if (extent != nullptr && !torn) {
      // File the ref instead of copying the bytes: the device is now one
      // more holder of the extent.
      std::vector<ExtentEntry>& extents = sector_extents_[sector];
      extents.insert(ExtentAtOrAfter(extents, off),
                     ExtentEntry{static_cast<uint32_t>(off),
                                 std::move(*extent)});
    } else {
      // Span programs, and torn prefixes of either variant (a torn extent is
      // no longer the extent the writer handed over), land flat.
      std::memcpy(Materialize(sector_data_[sector]) + off, src, landed);
    }
    if (validate_payloads_) {
      std::memcpy(Materialize(shadow_data_[sector]) + off, src, landed);
    }
    meta.programmed_end =
        std::max(meta.programmed_end, static_cast<uint32_t>(off + landed));
  }
  if (torn) {
    stats_.torn_programs.Add();
    return InternalError("injected torn program at flash address " +
                         std::to_string(addr));
  }
  stats_.programs.Add();
  stats_.programmed_bytes.Add(bytes);
  return latency;
}

Result<Duration> FlashDevice::Program(uint64_t addr,
                                      std::span<const uint8_t> data,
                                      IoIssue issue) {
  return ProgramOp(addr, data.data(), data.size(), /*extent=*/nullptr, issue);
}

Result<Duration> FlashDevice::ProgramExtent(uint64_t addr, PayloadRef payload,
                                            IoIssue issue) {
  const uint64_t size = payload.size();
  return ProgramOp(addr, size > 0 ? payload.data() : nullptr, size, &payload,
                   issue);
}

bool FlashDevice::RangeErased(uint64_t sector, uint64_t off, uint64_t n,
                              uint64_t* first_programmed_addr) const {
  const uint64_t base_addr = sector * sector_bytes();
  uint64_t first = ~uint64_t{0};
  // Flat representation: one vectorized memcmp, per-byte scan only to name
  // the offending address (identical to the pre-extent check).
  if (const uint8_t* cur = sector_data_[sector].get();
      cur != nullptr &&
      std::memcmp(cur + off, erased_template_.data(), n) != 0) {
    uint64_t i = 0;
    while (cur[off + i] == kErasedByte) {
      ++i;
    }
    first = off + i;
  }
  // Extent representation: every entry intersecting the range. Disjointness
  // means an extent's bytes are 0xFF in the flat buffer, so the minimum over
  // both scans names the true first programmed byte.
  ForEachExtentIn(sector, off, n,
                  [&](uint64_t lo, const uint8_t* p, uint64_t len) {
                    if (lo >= first ||
                        std::memcmp(p, erased_template_.data(), len) == 0) {
                      return;
                    }
                    uint64_t i = 0;
                    while (p[i] == kErasedByte) {
                      ++i;
                    }
                    first = std::min(first, lo + i);
                  });
  if (first == ~uint64_t{0}) {
    return true;
  }
  if (first_programmed_addr != nullptr) {
    *first_programmed_addr = base_addr + first;
  }
  return false;
}

Result<Duration> FlashDevice::EraseSector(uint64_t sector, IoIssue issue) {
  if (sector >= num_sectors()) {
    return OutOfRangeError("erase of nonexistent flash sector");
  }
  Sector& s = sectors_[sector];
  if (s.bad) {
    return DataLossError("erase of worn-out flash sector " +
                         std::to_string(sector));
  }

  if (erase_interrupt_armed_) {
    erase_interrupt_armed_ = false;
    // An interrupted erase still consumes the wear cycle but leaves the
    // sector's contents as they were — callers must re-erase before reuse.
    s.erase_count += 1;
    stats_.erases.Add();
    stats_.interrupted_erases.Add();
    if (erase_observer_) {
      erase_observer_(sector, s.erase_count, /*now_bad=*/false);
    }
    return InternalError("injected interrupted erase of flash sector " +
                         std::to_string(sector));
  }

  const Duration op_ns = spec_.erase_ns;
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kErase, BankOfSector(sector), sector * sector_bytes(),
               /*bytes=*/0, op_ns, issue);
  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }

  s.erase_count += 1;
  stats_.erases.Add();

  // Endurance model: within the guaranteed cycle count erases always
  // succeed. Beyond it, each erase fails (permanently retiring the sector)
  // with probability ramping linearly, reaching certainty at 2x endurance.
  if (spec_.endurance_cycles > 0 && s.erase_count > spec_.endurance_cycles) {
    const double overshoot =
        static_cast<double>(s.erase_count - spec_.endurance_cycles) /
        static_cast<double>(spec_.endurance_cycles);
    if (rng_.NextBool(std::min(1.0, overshoot))) {
      s.bad = true;
      stats_.bad_sectors.Add();
      if (erase_observer_) {
        erase_observer_(sector, s.erase_count, /*now_bad=*/true);
      }
      return DataLossError("flash sector " + std::to_string(sector) +
                           " wore out after " + std::to_string(s.erase_count) +
                           " erase cycles");
    }
  }
  if (erase_observer_) {
    erase_observer_(sector, s.erase_count, /*now_bad=*/false);
  }

  // Extent payloads are simply dropped (a refcount decrement per entry, no
  // byte traffic — other layers still aliasing an extent keep its bytes
  // alive). An already-materialized flat buffer is kept and refilled (no
  // allocator churn); a never-programmed sector stays null.
  sector_extents_[sector].clear();
  if (uint8_t* data_ptr = sector_data_[sector].get()) {
    std::memset(data_ptr, kErasedByte, sector_bytes());
  }
  if (validate_payloads_) {
    if (uint8_t* shadow = shadow_data_[sector].get()) {
      std::memset(shadow, kErasedByte, sector_bytes());
    }
  }
  s.programmed_end = 0;
  return d.wait + op_ns;
}

bool FlashDevice::IsSectorErased(uint64_t sector) const {
  for (const ExtentEntry& e : sector_extents_[sector]) {
    if (std::memcmp(e.ref.data(), erased_template_.data(), e.ref.size()) !=
        0) {
      return false;
    }
  }
  const uint8_t* data_ptr = sector_data_[sector].get();
  return data_ptr == nullptr ||
         std::memcmp(data_ptr, erased_template_.data(), sector_bytes()) == 0;
}

uint8_t* FlashDevice::Materialize(std::unique_ptr<uint8_t[]>& slot) {
  if (!slot) {
    slot.reset(new uint8_t[sector_bytes()]);
    std::memset(slot.get(), kErasedByte, sector_bytes());
  }
  return slot.get();
}

void FlashDevice::set_validate_payloads(bool on) {
  if (on == validate_payloads_) {
    return;
  }
  validate_payloads_ = on;
  if (!on) {
    shadow_data_.clear();
    return;
  }
  // Seed the shadow from the current merged contents so the oracle can be
  // switched on mid-life (tests attach it after setup writes).
  shadow_data_.resize(num_sectors());
  for (uint64_t s = 0; s < num_sectors(); ++s) {
    if (sector_data_[s] != nullptr || !sector_extents_[s].empty()) {
      CopyOut(s, 0, sector_bytes(), Materialize(shadow_data_[s]));
    }
  }
}

void FlashDevice::CheckAgainstShadow(uint64_t addr, const uint8_t* got,
                                     uint64_t n) {
  uint64_t pos = addr;
  uint64_t remaining = n;
  while (remaining > 0) {
    const uint64_t s = SectorOfAddr(pos);
    const uint64_t off = OffsetInSector(pos);
    const uint64_t chunk = std::min(remaining, sector_bytes() - off);
    const uint8_t* shadow = shadow_data_[s].get();
    bool match;
    if (shadow != nullptr) {
      match = std::memcmp(got + (pos - addr), shadow + off, chunk) == 0;
    } else {
      // Never-programmed sector: the memcpy path would have produced 0xFF.
      match = std::memcmp(got + (pos - addr), erased_template_.data(),
                          chunk) == 0;
    }
    if (!match) {
      payload_validation_failures_ += 1;
      SSMC_LOG(kError) << "flash payload oracle mismatch: read of "
                       << chunk << " bytes at address " << pos
                       << " disagrees with the memcpy shadow";
    }
    pos += chunk;
    remaining -= chunk;
  }
}

FlashDevice::WearSummary FlashDevice::SummarizeWear() const {
  WearSummary w;
  if (sectors_.empty()) {
    return w;
  }
  w.min_erases = sectors_[0].erase_count;
  double sum = 0;
  for (const Sector& s : sectors_) {
    w.min_erases = std::min(w.min_erases, s.erase_count);
    w.max_erases = std::max(w.max_erases, s.erase_count);
    sum += static_cast<double>(s.erase_count);
    if (s.bad) {
      ++w.bad_sectors;
    }
  }
  w.mean_erases = sum / static_cast<double>(sectors_.size());
  double var = 0;
  for (const Sector& s : sectors_) {
    const double d = static_cast<double>(s.erase_count) - w.mean_erases;
    var += d * d;
  }
  w.stddev_erases = std::sqrt(var / static_cast<double>(sectors_.size()));
  return w;
}

}  // namespace ssmc
