// DRAM write buffer (paper Section 3.3).
//
// "The storage manager ... can buffer written data in DRAM before eventually
// flushing it to flash memory. This technique can keep the rate of writes
// into flash memory manageably low because a large percentage of write
// operations are to short-lived files or to file blocks that are soon
// overwritten." The buffer holds only dirty blocks (a clean-data file cache
// is pointless when all storage reads at memory speed — Section 3.1), backed
// by DRAM pages from the StorageManager. Because mobile DRAM is battery
// backed, buffered data is stable against ordinary power-off; only total
// battery failure loses it (experiment E10).
//
// Eviction and flushing:
//  * capacity eviction: when full, the least-recently-written dirty block is
//    flushed to flash and dropped;
//  * age flush: FlushOlderThan(age) writes back blocks dirty longer than a
//    threshold (the classical 30-second sync policy), invoked periodically
//    by the machine's flush daemon;
//  * write avoidance: Drop(key) discards a dirty block whose file was
//    deleted or truncated — that write never reaches flash, which is where
//    the 40-50% traffic reduction comes from.
//
// Flushed blocks reach the flash store as flush-class I/O requests
// (IoPriority::kFlush — see src/sim/io_request.h): below foreground reads,
// above cleaner traffic when the machine opts into priority scheduling.

#ifndef SSMC_SRC_STORAGE_WRITE_BUFFER_H_
#define SSMC_SRC_STORAGE_WRITE_BUFFER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>

#include "src/obs/stats_export.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/block_key.h"
#include "src/storage/storage_manager.h"
#include "src/support/status.h"

namespace ssmc {

class Obs;

class WriteBuffer {
 public:
  // Destination for flushed blocks; supplied by the file system, which knows
  // the flash placement of each file block. The block travels as a payload
  // ref: a flush that lands in the flash store programs the very extent the
  // buffer holds (refcount bump), never copying the bytes. The tenant is
  // whoever last dirtied the block — the flush daemon drains on everyone's
  // behalf, but the flash program is billed to the writer.
  using FlushFn =
      std::function<Status(const BlockKey&, const PayloadRef&, TenantId)>;

  // capacity_pages = 0 disables buffering entirely: every Put flushes
  // straight through (the "no NVRAM buffer" baseline of experiment E6).
  WriteBuffer(StorageManager& storage, uint64_t capacity_pages,
              FlushFn flush_fn);
  ~WriteBuffer();

  WriteBuffer(const WriteBuffer&) = delete;
  WriteBuffer& operator=(const WriteBuffer&) = delete;

  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t dirty_pages() const { return entries_.size(); }
  uint64_t page_bytes() const { return storage_.page_bytes(); }

  // Stores a whole dirty block. data.size() must equal page_bytes().
  // Overwriting an already-buffered block is absorbed in DRAM (and re-bills
  // the block to the overwriting tenant: the last writer owns the flush).
  Status Put(const BlockKey& key, std::span<const uint8_t> data, SimTime now,
             TenantId tenant = kDefaultTenant);

  // Reads a buffered block; NOT_FOUND if not buffered.
  Status Get(const BlockKey& key, std::span<uint8_t> out);

  bool Contains(const BlockKey& key) const {
    return entries_.count(key) != 0;
  }

  // Discards a dirty block without flushing (file deleted / truncated).
  // Returns true if the block was buffered.
  bool Drop(const BlockKey& key);

  // Flushes one specific block if buffered.
  Status Flush(const BlockKey& key);

  // Flushes every block dirty since before (now - max_age).
  Status FlushOlderThan(SimTime now, Duration max_age);

  // Flushes everything (sync / orderly shutdown).
  Status FlushAll();

  // Simulates sudden loss of the buffer (total battery failure): drops all
  // entries and returns the number of dirty bytes that were lost.
  uint64_t DropAllUnflushed();

  struct Stats {
    Counter puts;               // Blocks written into the buffer.
    Counter put_bytes;
    Counter absorbed_overwrites;  // Puts that hit an already-dirty block.
    Counter flushes;            // Blocks written back to flash.
    Counter flushed_bytes;
    Counter capacity_evictions; // Flushes forced by a full buffer.
    Counter dropped_writes;     // Dirty blocks discarded before flush.
    Counter dropped_bytes;
    // Per-tenant buffering: `writes`/`written_bytes` count the tenant's
    // puts (what it pushed into shared DRAM); other fields stay zero — the
    // flush side is attributed downstream by the flash store and device.
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Observability (nullable; null detaches): a "write buffer" trace track
  // with spans per age-flush / sync batch, instants for capacity evictions,
  // write-avoidance drops and buffer loss, and a Stats mirror collector
  // (dirty pages as a gauge).
  void AttachObs(Obs* obs);

 private:
  // The entry's bytes live in the storage manager's page-payload table,
  // keyed by dram_page — the page allocation is the DRAM budget token, the
  // payload extent is the content.
  struct Entry {
    uint64_t dram_page;
    SimTime dirty_since;  // First dirtying; NOT refreshed by overwrites.
    TenantId tenant;      // Last writer; the flush is billed to them.
    std::list<BlockKey>::iterator lru_it;  // Position in lru_ (front = oldest).
  };

  // Flushes and removes one entry. The iterator must be valid.
  Status FlushEntry(std::unordered_map<BlockKey, Entry, BlockKeyHash>::iterator it);

  StorageManager& storage_;
  uint64_t capacity_pages_;
  FlushFn flush_fn_;
  std::unordered_map<BlockKey, Entry, BlockKeyHash> entries_;
  std::list<BlockKey> lru_;  // Front = least recently written.
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_WRITE_BUFFER_H_
