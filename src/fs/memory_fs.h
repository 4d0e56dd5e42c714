// MemoryFileSystem — the paper's file system (Section 3.1).
//
// Everything the paper calls for:
//  * metadata is entirely memory-resident: the namespace is a tree in
//    battery-backed DRAM, looked up at DRAM speed (no metadata I/O);
//  * no block clustering — flash has no seeks, so placement is whatever the
//    flash store's log gives us;
//  * no indirect blocks — a file's block map is one flat extent vector;
//  * no traditional buffer cache — reads resolve through the residency
//    manager (src/storage/residency.h): dirty blocks come from the DRAM
//    write buffer, promoted hot blocks from its clean cache (migration
//    policies only), everything else directly from flash at byte
//    granularity;
//  * writes go to the DRAM write buffer (copy-on-write from flash for
//    partial-block updates) and reach flash only when flushed — short-lived
//    data is dropped before it ever costs a flash program;
//  * deletes drop buffered blocks (write avoidance) and trim flash blocks.
//
// The file system is also the flush destination: when the write buffer
// evicts or ages out a dirty block, the callback here allocates a flash
// block (first write) or overwrites the existing one out-of-place.

#ifndef SSMC_SRC_FS_MEMORY_FS_H_
#define SSMC_SRC_FS_MEMORY_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/obs/stats_export.h"
#include "src/sim/io_stats.h"
#include "src/sim/stats.h"
#include "src/storage/storage_manager.h"
#include "src/storage/write_buffer.h"
#include "src/support/status.h"

namespace ssmc {

class MetadataJournal;
struct JournalRecord;

struct MemoryFsOptions {
  // Write buffer capacity in pages (pages are storage.page_bytes() each).
  // 2048 pages of 512 B = 1 MiB, the size Baker et al. showed absorbs
  // 40-50% of write traffic. 0 = unbuffered write-through baseline.
  uint64_t write_buffer_pages = 2048;
  // Dirty blocks older than this are flushed by TickFlush().
  Duration flush_age = 30 * kSecond;
  // Differential oracle mode (PR 1 technique): every placement decision the
  // residency manager makes is cross-checked against the pre-residency
  // buffered->flash->hole resolution chain, counting mismatches in
  // residency_validation_failures(). A clean-cache hit where the oracle
  // says flash is the one legal divergence (under migration policies the
  // flash copy stays authoritative).
  bool validate_residency = false;
  // Durable metadata journal (ROADMAP E13). When set, every namespace
  // mutation appends a record to the journal before the operation is acked,
  // CheckpointMetadata() compacts through the journal's dense snapshot, and
  // the log is bounded by the journal's compaction advisory. Null = legacy
  // behavior, byte-identical to the pre-journal file system.
  MetadataJournal* journal = nullptr;
  // With the journal enabled, ALSO maintain the legacy block-0 checkpoint on
  // every CheckpointMetadata() so the two recovery paths can be compared
  // differentially (tests and the E13 bench).
  bool journal_oracle = false;
};

// Where a mapped file block currently lives (consumed by the VM layer for
// copy-on-write file mappings and execute-in-place).
struct BlockLocation {
  enum class Kind { kHole, kBuffered, kFlash };
  Kind kind = Kind::kHole;
  uint64_t flash_block = 0;  // Valid when kind == kFlash.
};

// Outcome of rebuilding a file system from its flash checkpoint after the
// battery-backed metadata was lost.
struct RecoveryReport {
  uint64_t directories_recovered = 0;
  uint64_t files_recovered = 0;
  uint64_t bytes_recovered = 0;  // File bytes whose blocks are in flash.
  SimTime checkpoint_age = 0;    // How stale the recovered state is.
  uint64_t journal_records_replayed = 0;  // Log-tail records applied on top
                                          // of the checkpoint (journal path).
};

class MemoryFileSystem : public FileSystem {
 public:
  MemoryFileSystem(StorageManager& storage, MemoryFsOptions options);
  ~MemoryFileSystem() override;

  // --- Crash safety (Section 3.1) ----------------------------------------
  // The namespace and inodes live in battery-backed DRAM; flash must also
  // hold a recoverable copy or a total battery failure loses every file.
  // CheckpointMetadata serializes the namespace into flash blocks anchored
  // at a fixed superblock (flash logical block 0), replacing the previous
  // checkpoint atomically (the superblock is rewritten last, out of place).
  Status CheckpointMetadata();

  // Rebuilds a file system from the checkpoint in `storage`'s flash store.
  // Used after a total battery failure: the caller constructs a fresh
  // StorageManager over the surviving FlashStore (the FTL's mapping is
  // recoverable from per-sector summaries on real hardware) and this
  // factory re-reads the superblock, rebuilds the tree, and re-registers
  // every referenced flash block with the allocator. Data written after the
  // last checkpoint — and anything still in the write buffer at the crash —
  // is gone; the report says what survived.
  static Result<std::unique_ptr<MemoryFileSystem>> RecoverFromCheckpoint(
      StorageManager& storage, MemoryFsOptions options,
      RecoveryReport* report);

  // Journal-based remount (ROADMAP E13): mounts `journal` from flash (the
  // newest valid superblock), installs its dense namespace checkpoint, and
  // replays the log tail so every mutation the journal acked before the
  // crash is restored — not just state as of the last checkpoint. Mount
  // work scales with checkpoint size + log-tail length, never with a
  // per-path walk of the namespace. `options.journal` is overwritten to
  // point at `journal`; the returned fs keeps journaling.
  static Result<std::unique_ptr<MemoryFileSystem>> RecoverFromJournal(
      MetadataJournal& journal, StorageManager& storage,
      MemoryFsOptions options, RecoveryReport* report);

  std::string name() const override { return "memory-fs"; }

  // The issuing tenant for subsequent operations: stamped onto every flash
  // read this fs issues, onto buffered dirty blocks (the eventual flush is
  // billed to the last writer), and onto per-tenant fs stats. Checkpoint
  // metadata I/O stays on the default (system) tenant. Also steers the
  // residency manager's promotion attribution.
  void set_current_tenant(TenantId tenant) override;
  TenantId current_tenant() const override { return tenant_; }

  Status Create(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Mkdir(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Result<uint64_t> Read(const std::string& path, uint64_t offset,
                        std::span<uint8_t> out) override;
  Result<uint64_t> Write(const std::string& path, uint64_t offset,
                         std::span<const uint8_t> data) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Result<FileInfo> Stat(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> List(const std::string& path) override;
  Status Sync() override;

  // Periodic age-based flush; the machine's flush daemon calls this.
  Status TickFlush(SimTime now);

  // Stable identifier of a file (used as the write-buffer key space and by
  // the VM layer for mappings).
  Result<uint64_t> FileId(const std::string& path);

  // Current location of each block of the file; blocks beyond EOF excluded.
  // VM mappings re-resolve through this after faults because the cleaner
  // relocates flash blocks.
  Result<std::vector<BlockLocation>> BlockLocations(const std::string& path);

  // Simulates total battery failure: every dirty buffered block is lost,
  // and the (battery-backed DRAM) clean cache evaporates with it — though
  // the latter costs nothing, its flash copies being authoritative.
  // Returns the number of lost dirty bytes. Flash contents survive.
  uint64_t LoseBufferedData() {
    storage_.residency().InvalidateAllClean();
    return buffer_.DropAllUnflushed();
  }

  const WriteBuffer& write_buffer() const { return buffer_; }
  WriteBuffer& write_buffer() { return buffer_; }
  StorageManager& storage() { return storage_; }
  uint64_t block_bytes() const { return storage_.page_bytes(); }

  struct Stats {
    Counter creates;
    Counter unlinks;
    Counter reads;
    Counter read_bytes;
    Counter writes;
    Counter written_bytes;
    Counter flash_direct_read_bytes;  // Bytes served straight from flash.
    Counter buffered_read_bytes;      // Bytes served from the write buffer.
    Counter clean_cached_read_bytes;  // Bytes served from the residency
                                      // manager's clean DRAM cache.
    Counter nvm_cached_read_bytes;    // Bytes served from the NVM tier.
    Counter cow_block_copies;         // Flash->DRAM copies for partial writes.
    // Per-tenant op/byte attribution at the fs boundary (reads include
    // bytes served from DRAM; the flash-only split lives in FlashStore).
    TenantIoTable by_tenant;
  };
  const Stats& stats() const { return stats_; }

  // Mismatches found by MemoryFsOptions::validate_residency (0 = the
  // residency manager agreed with the legacy resolution on every access).
  uint64_t residency_validation_failures() const {
    return residency_validation_failures_;
  }

  // Observability (nullable; null detaches): a "memory-fs" trace track with
  // data-op and checkpoint spans plus a Stats mirror collector. Also attaches
  // the embedded write buffer. The machine re-attaches after crash recovery
  // (the fs and buffer are rebuilt); track registration and collector keys
  // dedupe, so re-attachment is safe.
  void AttachObs(Obs* obs);

 private:
  struct Inode {
    uint64_t id = 0;
    uint64_t size = 0;
    // Block index -> flash logical block, or -1 if not (yet) in flash.
    // Deliberately a flat vector: "the complexity of multiple levels of
    // indirect blocks may also be eliminated."
    std::vector<int64_t> flash_blocks;
    // Last tenant to write this file; journaled (kTenantStamp) so post-crash
    // flush attribution survives remount.
    TenantId last_writer = kDefaultTenant;
  };

  struct Node {
    bool is_dir = false;
    // std::less<> enables lookups by string_view without a key copy.
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;  // Dirs only.
    Inode inode;                                            // Files only.
  };

  // Per-component metadata costs (bytes charged to DRAM per operation).
  static constexpr uint64_t kDirEntryBytes = 48;
  static constexpr uint64_t kInodeBytes = 64;
  // Flash logical block anchoring the checkpoint chain.
  static constexpr uint64_t kSuperblock = 0;

  // Serializes the namespace tree (paths, inodes, block maps) to a blob.
  void SerializeTree(const Node& node, const std::string& path,
                     std::vector<uint8_t>& out) const;
  // Releases the flash blocks of the previous checkpoint.
  void ReleaseOldCheckpoint();
  // Frees a detached checkpoint-block list, skipping blocks this manager no
  // longer holds (safe across recovery replacing the manager mid-release).
  void ReleaseCheckpointBlocks(std::vector<uint64_t> blocks);

  // Dense snapshot for the journal's checkpoint chain: parent-index +
  // basename per node instead of one full path per record, preorder, so
  // deserialization is straight array indexing with no path walks.
  void SerializeDense(std::vector<uint8_t>& out) const;
  uint32_t SerializeDenseChildren(const Node& dir, uint32_t dir_index,
                                  uint32_t next_index, uint64_t* count,
                                  std::vector<uint8_t>& out) const;

  // Appends `record` durably when journaling is on (no-op otherwise or
  // during replay). The caller must not have applied the mutation yet: a
  // failed append fails the operation with the namespace unchanged.
  Status JournalAppend(JournalRecord record);
  // Compacts the journal (through CheckpointMetadata) once its log passes
  // the configured bound. Advisory: failures are swallowed, the log just
  // stays long until the next opportunity.
  void MaybeCompact();
  // Applies one recovered log record to the in-memory state. Never touches
  // the block allocator (extents are reserved in one pass after replay).
  Status ReplayRecord(const JournalRecord& record);

  // Walks the tree, charging DRAM reads per component. Returns null if any
  // component is missing or a non-directory is traversed.
  Node* Lookup(std::string_view path);
  // Returns the parent node of `path` (charging lookups) or null.
  Node* LookupParent(std::string_view path);

  // The write buffer's flush destination. `tenant` is whoever last dirtied
  // the block (recorded by the buffer), not whoever triggered the drain.
  Status FlushBlock(const BlockKey& key, const PayloadRef& data,
                    TenantId tenant);

  // Releases one file block everywhere (buffer + flash).
  void ReleaseBlock(Inode& inode, uint64_t block_index);

  // Stages a block into the write buffer, performing copy-on-write from
  // flash (or the clean cache, at DRAM speed) when the write does not cover
  // the whole block.
  Status StageBlockWrite(Inode& inode, uint64_t block_index,
                         uint64_t offset_in_block,
                         std::span<const uint8_t> data);

  // The pre-residency placement chain, kept as the differential oracle for
  // MemoryFsOptions::validate_residency.
  Residency OracleResolve(const BlockKey& key, int64_t flash_block) const;
  // Counts a mismatch between `got` and the oracle (no-op unless
  // validate_residency is set).
  void CheckResolve(Residency got, const BlockKey& key, int64_t flash_block);

  StorageManager& storage_;
  MemoryFsOptions options_;
  WriteBuffer buffer_;
  std::unique_ptr<Node> root_;
  // Inode id -> inode (for flush callbacks); owned by the node tree.
  std::unordered_map<uint64_t, Inode*> inode_index_;
  uint64_t next_inode_id_ = 1;
  std::vector<uint64_t> checkpoint_blocks_;  // Data blocks of the last
                                             // checkpoint (superblock extra).
  SimTime last_checkpoint_at_ = -1;          // -1: never checkpointed.
  uint64_t residency_validation_failures_ = 0;
  // True while RecoverFromJournal replays records: suppresses journal
  // emission from the mutation paths replay reuses.
  bool replaying_ = false;
  TenantId tenant_ = kDefaultTenant;
  // One block-sized staging buffer, sized on first use: StageBlockWrite's
  // read-modify-write block for partial writes, and Read's copy of a dirty
  // block. Invariant: nothing StageBlockWrite calls re-enters it (a
  // write-buffer eviction drains through FlushBlock, which programs flash
  // and appends to the journal but stages nothing), and Read holds it only
  // from a WriteBuffer::Get to the copy out, so one block is never in use
  // twice.
  std::vector<uint8_t> staging_;
  Stats stats_;
  Obs* obs_ = nullptr;
  int obs_track_ = 0;
  StatsExport export_;  // Last: flushes while the state above is alive.
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_MEMORY_FS_H_
