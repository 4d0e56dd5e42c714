#include "src/device/disk_device.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/obs.h"

namespace ssmc {

DiskDevice::DiskDevice(DiskSpec spec, SimClock& clock)
    : spec_(std::move(spec)), clock_(clock), sched_(clock, /*channels=*/1) {
  contents_.assign(capacity_bytes(), 0);
}

void DiskDevice::AttachObs(Obs* obs) {
  static constexpr CounterField<Stats> kCounters[] = {
      {"reads", &Stats::reads},
      {"writes", &Stats::writes},
      {"seeks", &Stats::seeks},
      {"seek_ns", &Stats::seek_ns},
      {"rotation_ns", &Stats::rotation_ns},
      {"spin_ups", &Stats::spin_ups},
      {"queue_wait_ns", &Stats::queue_wait_ns},
  };
  export_.Attach(obs, "disk", stats_, kCounters);
  obs_ = obs;
  if (obs_ == nullptr) {
    sched_.set_retire_hook(nullptr);
    return;
  }
  obs_arm_track_ = obs_->tracer().RegisterTrack("disk arm");
  MetricsRegistry& m = obs_->metrics();
  obs_wait_hist_ = m.AddHistogram("disk/wait_ns");
  obs_service_hist_ = m.AddHistogram("disk/service_ns");
  sched_.set_retire_hook([this](int, const IoRequest& req) {
    const Duration wait =
        std::max<Duration>(0, req.start_time - req.issue_time);
    const Duration service =
        std::max<Duration>(0, req.complete_time - req.start_time);
    obs_wait_hist_->Record(static_cast<uint64_t>(wait));
    obs_service_hist_->Record(static_cast<uint64_t>(service));
    obs_->tracer().Span(obs_arm_track_, IoOpName(req.op), req.start_time,
                        service, {"bytes", req.bytes},
                        {"wait_ns", static_cast<uint64_t>(wait)});
  });
}

Duration DiskDevice::SeekTime(uint64_t from_cyl, uint64_t to_cyl) const {
  if (from_cyl == to_cyl) {
    return 0;
  }
  const double dist = static_cast<double>(
      from_cyl > to_cyl ? from_cyl - to_cyl : to_cyl - from_cyl);
  const double frac =
      std::sqrt(dist / static_cast<double>(std::max<uint64_t>(1, spec_.cylinders - 1)));
  const double ns = static_cast<double>(spec_.min_seek_ns) +
                    frac * static_cast<double>(spec_.max_seek_ns -
                                               spec_.min_seek_ns);
  return static_cast<Duration>(ns);
}

Duration DiskDevice::RotationDelay(SimTime at, uint64_t sector_in_track) const {
  const Duration rot = spec_.rotation_ns;
  assert(rot > 0);
  // Platter angle is a pure function of time: angle(t) = t mod rotation.
  const Duration angle_now = at % rot;
  const Duration target =
      static_cast<Duration>(sector_in_track * static_cast<uint64_t>(rot) /
                            spec_.sectors_per_track);
  Duration delay = target - angle_now;
  if (delay < 0) {
    delay += rot;
  }
  return delay;
}

Duration DiskDevice::TransferTime(uint64_t bytes) const {
  const double ns_per_byte = 1e9 / (spec_.transfer_mib_per_s * kMiB);
  return static_cast<Duration>(static_cast<double>(bytes) * ns_per_byte);
}

void DiskDevice::EnsureSpinning() {
  const SimTime now = clock_.now();
  // Settle energy for the elapsed gap first.
  if (now > energy_accounted_until_) {
    Duration gap = now - energy_accounted_until_;
    if (spinning_ && spin_down_after_ > 0 && gap > spin_down_after_) {
      // Disk idled long enough to spin down partway through the gap.
      energy_.AddIdle(spec_.idle_mw, spin_down_after_);
      energy_.AddIdle(spec_.standby_mw, gap - spin_down_after_);
      spinning_ = false;
    } else {
      energy_.AddIdle(spinning_ ? spec_.idle_mw : spec_.standby_mw, gap);
    }
    energy_accounted_until_ = now;
  }
  if (!spinning_) {
    clock_.Advance(spec_.spin_up_ns);
    energy_.AddActive(spec_.active_mw, spec_.spin_up_ns);
    energy_accounted_until_ = clock_.now();
    spinning_ = true;
    stats_.spin_ups.Add();
    if (obs_ != nullptr) {
      obs_->tracer().Span(obs_arm_track_, "spin-up",
                          clock_.now() - spec_.spin_up_ns, spec_.spin_up_ns);
    }
  }
}

Result<Duration> DiskDevice::DoIo(uint64_t sector, uint64_t bytes,
                                  bool is_write, IoIssue issue) {
  if (bytes == 0 || bytes % sector_bytes() != 0) {
    return InvalidArgumentError("disk I/O must be whole sectors");
  }
  const uint64_t count = bytes / sector_bytes();
  if (sector + count > num_sectors()) {
    return OutOfRangeError("disk I/O past end of device");
  }

  const SimTime op_issue = clock_.now();
  EnsureSpinning();  // Spin-up (if any) advances the clock for all issues.

  // The mechanical phases depend on when the arm starts: rotation is the
  // angular distance at the post-seek instant. The scheduler evaluates the
  // service function once, at dispatch, with the request's start time —
  // identical math to advancing the clock phase by phase.
  const uint64_t target_cyl = CylinderOf(sector);
  const uint64_t from_cyl = head_cylinder_;
  Duration seek = 0;
  Duration rot = 0;
  Duration xfer = 0;
  const IoScheduler::ServiceFn service = [&](SimTime start) {
    seek = SeekTime(from_cyl, target_cyl);
    rot = RotationDelay(start + seek, SectorInTrack(sector));
    xfer = TransferTime(bytes);
    return seek + rot + xfer;
  };

  IoRequest req;
  req.op = is_write ? IoOp::kDiskWrite : IoOp::kDiskRead;
  req.addr = sector;
  req.bytes = bytes;
  req.priority = issue.priority;
  req.blocking = issue.blocking;
  const IoScheduler::Dispatch d = sched_.Submit(0, std::move(req), service);
  head_cylinder_ = target_cyl;

  if (seek > 0) {
    stats_.seeks.Add();
    stats_.seek_ns.Add(static_cast<uint64_t>(seek));
  }
  stats_.rotation_ns.Add(static_cast<uint64_t>(rot));
  stats_.transfer_ns.Add(static_cast<uint64_t>(xfer));
  stats_.queue_wait_ns.Add(static_cast<uint64_t>(d.wait));
  if (!is_write && issue.blocking) {
    stats_.read_stall_ns.Add(static_cast<uint64_t>(d.wait));
  }

  // Active energy: spin-up (already charged once inside EnsureSpinning, and
  // again here as part of the observed busy window, matching the historical
  // accounting) plus the mechanical service. Queue wait is not active time —
  // the earlier reservation charged its own service.
  const Duration spin_up_part = clock_.now() - op_issue;
  energy_.AddActive(spec_.active_mw, spin_up_part + d.service);

  if (issue.blocking) {
    clock_.AdvanceTo(d.complete);
  }
  energy_accounted_until_ = std::max(energy_accounted_until_, d.complete);
  last_op_end_ = std::max(last_op_end_, d.complete);
  return spin_up_part + d.wait + d.service;
}

Result<Duration> DiskDevice::ReadSectors(uint64_t sector,
                                         std::span<uint8_t> out,
                                         IoIssue issue) {
  Result<Duration> r = DoIo(sector, out.size(), /*is_write=*/false, issue);
  if (!r.ok()) {
    return r;
  }
  const uint64_t addr = sector * sector_bytes();
  std::copy_n(contents_.begin() + static_cast<ptrdiff_t>(addr), out.size(),
              out.begin());
  stats_.reads.Add();
  stats_.read_bytes.Add(out.size());
  return r;
}

Result<Duration> DiskDevice::WriteSectors(uint64_t sector,
                                          std::span<const uint8_t> data,
                                          IoIssue issue) {
  Result<Duration> r = DoIo(sector, data.size(), /*is_write=*/true, issue);
  if (!r.ok()) {
    return r;
  }
  const uint64_t addr = sector * sector_bytes();
  std::copy(data.begin(), data.end(),
            contents_.begin() + static_cast<ptrdiff_t>(addr));
  stats_.writes.Add();
  stats_.written_bytes.Add(data.size());
  return r;
}

void DiskDevice::AccountIdleEnergy() {
  const SimTime now = clock_.now();
  if (now <= energy_accounted_until_) {
    return;
  }
  Duration gap = now - energy_accounted_until_;
  if (spinning_ && spin_down_after_ > 0 && gap > spin_down_after_) {
    energy_.AddIdle(spec_.idle_mw, spin_down_after_);
    energy_.AddIdle(spec_.standby_mw, gap - spin_down_after_);
    spinning_ = false;
  } else {
    energy_.AddIdle(spinning_ ? spec_.idle_mw : spec_.standby_mw, gap);
  }
  energy_accounted_until_ = now;
}

}  // namespace ssmc
