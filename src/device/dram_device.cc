#include "src/device/dram_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ssmc {

DramDevice::DramDevice(DramSpec spec, uint64_t capacity_bytes, SimClock& clock)
    : spec_(std::move(spec)), capacity_(capacity_bytes), clock_(clock) {
  chunks_.resize((capacity_ + kChunkBytes - 1) / kChunkBytes);
}

uint8_t* DramDevice::MaterializeChunk(uint64_t chunk) {
  std::unique_ptr<uint8_t[]>& slot = chunks_[chunk];
  if (!slot) {
    slot.reset(new uint8_t[kChunkBytes]());
  }
  return slot.get();
}

Result<Duration> DramDevice::Read(uint64_t addr, std::span<uint8_t> out) {
  if (addr + out.size() > capacity_) {
    return OutOfRangeError("DRAM read past end of device");
  }
  const Duration d = spec_.read.LatencyFor(out.size());
  clock_.Advance(d);
  energy_.AddActive(active_mw(), d);
  uint64_t pos = addr;
  uint8_t* dst = out.data();
  uint64_t remaining = out.size();
  while (remaining > 0) {
    const uint64_t off = pos % kChunkBytes;
    const uint64_t n = std::min(remaining, kChunkBytes - off);
    if (const uint8_t* src = chunks_[pos / kChunkBytes].get()) {
      std::memcpy(dst, src + off, n);
    } else {
      std::memset(dst, 0, n);
    }
    dst += n;
    pos += n;
    remaining -= n;
  }
  stats_.reads.Add();
  stats_.read_bytes.Add(out.size());
  return d;
}

Result<Duration> DramDevice::Write(uint64_t addr,
                                   std::span<const uint8_t> data) {
  if (addr + data.size() > capacity_) {
    return OutOfRangeError("DRAM write past end of device");
  }
  const Duration d = spec_.write.LatencyFor(data.size());
  clock_.Advance(d);
  energy_.AddActive(active_mw(), d);
  uint64_t pos = addr;
  const uint8_t* src = data.data();
  uint64_t remaining = data.size();
  while (remaining > 0) {
    const uint64_t off = pos % kChunkBytes;
    const uint64_t n = std::min(remaining, kChunkBytes - off);
    std::memcpy(MaterializeChunk(pos / kChunkBytes) + off, src, n);
    src += n;
    pos += n;
    remaining -= n;
  }
  stats_.writes.Add();
  stats_.written_bytes.Add(data.size());
  return d;
}

Duration DramDevice::ChargeAccess(uint64_t bytes, bool is_write) {
  const MemoryTiming& t = is_write ? spec_.write : spec_.read;
  const Duration d = t.LatencyFor(bytes);
  clock_.Advance(d);
  energy_.AddActive(active_mw(), d);
  if (is_write) {
    stats_.writes.Add();
    stats_.written_bytes.Add(bytes);
  } else {
    stats_.reads.Add();
    stats_.read_bytes.Add(bytes);
  }
  return d;
}

void DramDevice::OnPowerLoss() {
  if (spec_.battery_backed) {
    return;  // Battery holds the contents up.
  }
  ForceContentLoss();
}

void DramDevice::ForceContentLoss() {
  // Dropping chunks zeroes the array: unmaterialized regions already read 0.
  for (std::unique_ptr<uint8_t[]>& chunk : chunks_) {
    chunk.reset();
  }
  contents_lost_ = true;
  stats_.content_losses.Add();
}

}  // namespace ssmc
