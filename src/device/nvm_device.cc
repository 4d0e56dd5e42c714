#include "src/device/nvm_device.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace ssmc {

NvmDevice::NvmDevice(NvmSpec spec, uint64_t capacity_bytes, int banks,
                     SimClock& clock)
    : spec_(std::move(spec)),
      capacity_(capacity_bytes),
      clock_(clock),
      io_("nvm", clock, banks, stats_) {
  assert(banks >= 1);
  assert(capacity_ % static_cast<uint64_t>(banks) == 0 &&
         "capacity must divide evenly into banks");
  bytes_per_bank_ = capacity_ / static_cast<uint64_t>(banks);
  bank_writes_.assign(static_cast<size_t>(banks), 0);
  bank_write_bytes_.assign(static_cast<size_t>(banks), 0);
}

void NvmDevice::AttachObs(Obs* obs) {
  io_.AttachObs(obs);
  static constexpr CounterField<Stats> kCounters[] = {
      {"reads", &Stats::reads},
      {"read_bytes", &Stats::read_bytes},
      {"writes", &Stats::writes},
      {"written_bytes", &Stats::written_bytes},
      {"read_stall_ns", &Stats::read_stall_ns},
  };
  export_.Attach(obs, "nvm", stats_, kCounters, stats_.by_tenant,
                 IoLaneStats::Fields(), [this](MetricsRegistry& m) {
                   m.AddGauge("nvm/wear_max_bank_writes")
                       ->Set(static_cast<int64_t>(SummarizeWear().max_writes));
                 });
}

Result<Duration> NvmDevice::Read(uint64_t addr, uint64_t bytes,
                                 IoIssue issue) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("nvm read past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("nvm read crosses a bank boundary");
  }
  const Duration op_ns = spec_.read.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kRead, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
    clock_.AdvanceTo(d.complete);
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(bytes);
  return d.wait + op_ns;
}

Result<Duration> NvmDevice::Write(uint64_t addr, uint64_t bytes,
                                  IoIssue issue) {
  if (addr + bytes > capacity_) {
    return OutOfRangeError("nvm write past end of device");
  }
  if (bytes == 0) {
    return Duration{0};
  }
  const int bank = BankOfAddress(addr);
  if (BankOfAddress(addr + bytes - 1) != bank) {
    return InvalidArgumentError("nvm write crosses a bank boundary");
  }
  const Duration op_ns = spec_.write.LatencyFor(bytes);
  const IoScheduler::Dispatch d =
      SubmitOp(IoOp::kProgram, bank, addr, bytes, op_ns, issue);
  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }
  stats_.writes.Add();
  stats_.written_bytes.Add(bytes);
  bank_writes_[static_cast<size_t>(bank)] += 1;
  bank_write_bytes_[static_cast<size_t>(bank)] += bytes;
  return d.wait + op_ns;
}

NvmDevice::WearSummary NvmDevice::SummarizeWear() const {
  WearSummary w;
  if (bank_writes_.empty()) {
    return w;
  }
  w.min_writes = bank_writes_[0];
  double sum = 0;
  for (size_t b = 0; b < bank_writes_.size(); ++b) {
    w.min_writes = std::min(w.min_writes, bank_writes_[b]);
    w.max_writes = std::max(w.max_writes, bank_writes_[b]);
    sum += static_cast<double>(bank_writes_[b]);
    w.total_write_bytes += bank_write_bytes_[b];
  }
  w.mean_writes = sum / static_cast<double>(bank_writes_.size());
  return w;
}

}  // namespace ssmc
