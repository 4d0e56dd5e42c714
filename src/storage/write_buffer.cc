#include "src/storage/write_buffer.h"

#include <cassert>
#include <vector>

#include "src/obs/obs.h"

namespace ssmc {

WriteBuffer::WriteBuffer(StorageManager& storage, uint64_t capacity_pages,
                         FlushFn flush_fn)
    : storage_(storage),
      capacity_pages_(capacity_pages),
      flush_fn_(std::move(flush_fn)) {
  assert(flush_fn_ && "write buffer needs a flush destination");
}

WriteBuffer::~WriteBuffer() {
  // Return DRAM pages; contents are owned by the file system's lifetime.
  for (auto& [key, entry] : entries_) {
    (void)storage_.FreeDramPage(entry.dram_page);
  }
}

void WriteBuffer::AttachObs(Obs* obs) {
  static constexpr CounterField<Stats> kCounters[] = {
      {"puts", &Stats::puts},
      {"absorbed_overwrites", &Stats::absorbed_overwrites},
      {"flushes", &Stats::flushes},
      {"flushed_bytes", &Stats::flushed_bytes},
      {"capacity_evictions", &Stats::capacity_evictions},
      {"dropped_writes", &Stats::dropped_writes},
  };
  export_.Attach(obs, "wbuf", stats_, kCounters, [this](MetricsRegistry& m) {
    m.AddGauge("wbuf/dirty_pages")->Set(static_cast<int64_t>(entries_.size()));
  });
  obs_ = obs;
  if (obs_ != nullptr) {
    obs_track_ = obs_->tracer().RegisterTrack("write buffer");
  }
}

Status WriteBuffer::Put(const BlockKey& key, std::span<const uint8_t> data,
                        SimTime now, TenantId tenant) {
  if (data.size() != page_bytes()) {
    return InvalidArgumentError("write buffer stores whole blocks");
  }
  stats_.puts.Add();
  stats_.put_bytes.Add(data.size());
  TenantIoStats& lane = stats_.by_tenant.For(tenant);
  lane.writes.Add();
  lane.written_bytes.Add(data.size());

  if (capacity_pages_ == 0) {
    // Unbuffered baseline: write straight through to flash.
    stats_.flushes.Add();
    stats_.flushed_bytes.Add(data.size());
    return flush_fn_(key, storage_.extent_pool().AllocateCopy(data.data()),
                     tenant);
  }

  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Overwrite absorbed in DRAM — this flash write never happens. The
    // block keeps its original dirty_since (the BSD 30-second rule ages
    // from first dirtying), so even hot blocks reach stable storage within
    // one age window. The billing tenant does refresh: last writer owns
    // the eventual flush.
    stats_.absorbed_overwrites.Add();
    it->second.tenant = tenant;
    storage_.WritePagePayload(it->second.dram_page, 0, data);
    return Status::Ok();
  }

  // Make room if needed by flushing the oldest dirty block.
  while (entries_.size() >= capacity_pages_) {
    assert(!lru_.empty());
    auto victim = entries_.find(lru_.front());
    assert(victim != entries_.end());
    stats_.capacity_evictions.Add();
    if (obs_ != nullptr) {
      obs_->tracer().Instant(obs_track_, "capacity-evict",
                             storage_.dram().clock().now());
    }
    SSMC_RETURN_IF_ERROR(FlushEntry(victim));
  }

  // Dirty data is the buffer's reason to exist: allocate through the
  // residency manager so the clean cache (and, under migration policies,
  // other consumers' reclaimable pages) yields before a Put fails. Under
  // kWriteBufferOnly this is exactly the raw allocator.
  Result<uint64_t> page =
      storage_.residency().AllocateDramPage(/*requester=*/nullptr);
  if (!page.ok()) {
    return page.status();
  }
  storage_.WritePagePayload(page.value(), 0, data);
  lru_.push_back(key);
  Entry entry;
  entry.dram_page = page.value();
  entry.dirty_since = now;
  entry.tenant = tenant;
  entry.lru_it = std::prev(lru_.end());
  entries_.emplace(key, entry);
  return Status::Ok();
}

Status WriteBuffer::Get(const BlockKey& key, std::span<uint8_t> out) {
  if (out.size() != page_bytes()) {
    return InvalidArgumentError("write buffer reads whole blocks");
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("block not buffered");
  }
  storage_.ReadPagePayload(it->second.dram_page, 0, out);
  return Status::Ok();
}

bool WriteBuffer::Drop(const BlockKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  stats_.dropped_writes.Add();
  stats_.dropped_bytes.Add(page_bytes());
  (void)storage_.FreeDramPage(it->second.dram_page);
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  return true;
}

Status WriteBuffer::FlushEntry(
    std::unordered_map<BlockKey, Entry, BlockKeyHash>::iterator it) {
  // Reading the buffered page costs DRAM time as before, but hands the
  // flush destination the page's own extent: no staging copy.
  PayloadRef data = storage_.ReadPagePayloadRef(it->second.dram_page);
  SSMC_RETURN_IF_ERROR(flush_fn_(it->first, data, it->second.tenant));
  stats_.flushes.Add();
  stats_.flushed_bytes.Add(data.size());
  (void)storage_.FreeDramPage(it->second.dram_page);
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  return Status::Ok();
}

Status WriteBuffer::Flush(const BlockKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::Ok();
  }
  return FlushEntry(it);
}

Status WriteBuffer::FlushOlderThan(SimTime now, Duration max_age) {
  const uint64_t flushes_before = stats_.flushes.value();
  // lru_ is in insertion order: Put's overwrite path absorbs the write into
  // the existing DRAM page and returns early — it neither refreshes
  // dirty_since nor moves the entry to the back. The front is therefore the
  // FIRST-dirtied entry, dirty_since is monotone along the list, and it is
  // safe to stop at the first young entry. This is what bounds staleness: a
  // block overwritten every second still flushes one age window after its
  // first buffered write, rather than being deferred forever.
  while (!lru_.empty()) {
    auto it = entries_.find(lru_.front());
    assert(it != entries_.end());
    if (now - it->second.dirty_since < max_age) {
      break;
    }
    SSMC_RETURN_IF_ERROR(FlushEntry(it));
  }
  if (obs_ != nullptr && stats_.flushes.value() != flushes_before) {
    obs_->tracer().Span(obs_track_, "age-flush", now,
                        storage_.dram().clock().now() - now,
                        {"blocks", stats_.flushes.value() - flushes_before});
  }
  return Status::Ok();
}

Status WriteBuffer::FlushAll() {
  const uint64_t flushes_before = stats_.flushes.value();
  const SimTime t0 = storage_.dram().clock().now();
  while (!entries_.empty()) {
    SSMC_RETURN_IF_ERROR(FlushEntry(entries_.begin()));
  }
  if (obs_ != nullptr && stats_.flushes.value() != flushes_before) {
    obs_->tracer().Span(obs_track_, "sync-flush", t0,
                        storage_.dram().clock().now() - t0,
                        {"blocks", stats_.flushes.value() - flushes_before});
  }
  return Status::Ok();
}

uint64_t WriteBuffer::DropAllUnflushed() {
  const uint64_t lost = entries_.size() * page_bytes();
  if (obs_ != nullptr && lost > 0) {
    obs_->tracer().Instant(obs_track_, "buffer-lost",
                           storage_.dram().clock().now(),
                           {"bytes_lost", lost});
  }
  for (auto& [key, entry] : entries_) {
    (void)storage_.FreeDramPage(entry.dram_page);
  }
  entries_.clear();
  lru_.clear();
  return lost;
}

}  // namespace ssmc
