// LogFileSystem — a Sprite-LFS-style log-structured file system over a
// magnetic disk (Rosenblum & Ousterhout [11], which the paper cites as the
// source of its garbage-collection techniques).
//
// Included as the *strong* disk baseline for experiment E3: LFS converts
// the disk FS's scattered writes into large sequential segment writes, which
// is the best a mechanical disk can do — and still loses to the memory-
// resident organization, because reads of cold data keep paying seeks. It
// also grounds E7: the flash store's cleaner is exactly this cleaner with
// erase blocks instead of segments.
//
// Structure (simplified from Sprite LFS, as its authors did for analysis):
//  * all metadata (directory tree, inodes, the inode map, segment usage
//    table) is cached in memory, as Sprite LFS aggressively did; data is
//    what pays disk I/O;
//  * dirty blocks accumulate in a one-segment RAM buffer; when it fills,
//    the whole segment is written with a single sequential transfer;
//  * the segment usage table tracks live blocks per segment; fully-dead
//    segments return to the free list immediately;
//  * a cleaner compacts low-utilization segments (lowest-usage-first,
//    liveness checked against the owning inode's block pointer) when the
//    free-segment pool runs low.

#ifndef SSMC_SRC_FS_LOG_FS_H_
#define SSMC_SRC_FS_LOG_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/device/disk_device.h"
#include "src/fs/file_system.h"
#include "src/sim/stats.h"
#include "src/support/status.h"

namespace ssmc {

struct LogFsOptions {
  uint64_t block_bytes = 4096;
  uint64_t segment_blocks = 64;  // 256 KiB segments at 4 KiB blocks.
};

class LogFileSystem : public FileSystem {
 public:
  LogFileSystem(DiskDevice& disk, LogFsOptions options);
  ~LogFileSystem() override;

  std::string name() const override { return "log-fs"; }

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

  struct Stats {
    Counter segment_writes;      // Whole segments written sequentially.
    Counter blocks_written;      // Blocks reaching disk (incl. cleaning).
    Counter cleaner_runs;        // Victim segments compacted.
    Counter cleaner_live_blocks; // Live blocks copied by the cleaner.
    Counter reads_from_buffer;   // Block reads served by the RAM buffer.
    Counter reads_from_disk;
  };
  const Stats& stats() const { return stats_; }
  uint64_t free_segments() const { return free_segments_.size(); }
  // Blocks written by callers / blocks written to disk: the LFS write cost.
  double WriteAmplification() const;

 private:
  static constexpr int64_t kHole = -1;

  struct Inode {
    uint64_t id = 0;
    uint64_t size = 0;
    // Block index -> disk block number or kHole. Blocks overridden by the
    // dirty buffer are looked up there first.
    std::vector<int64_t> blocks;
  };

  struct Node {
    bool is_dir = false;
    // std::less<> enables lookups by string_view without a key copy.
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
    Inode inode;
  };

  // One log slot: which file block occupies it (for liveness checks).
  struct SlotOwner {
    uint64_t ino = 0;
    uint64_t block_index = 0;
  };

  using DirtyKey = std::pair<uint64_t, uint64_t>;  // (ino, block index)

  Node* Lookup(std::string_view path);
  Node* LookupParent(std::string_view path);

  uint64_t SegmentOfBlock(uint64_t disk_block) const {
    return disk_block / options_.segment_blocks;
  }
  uint64_t SectorOfBlock(uint64_t disk_block) const {
    return disk_block * (options_.block_bytes / disk_.sector_bytes());
  }

  // Drops one reference to a disk block (its segment's usage falls; a fully
  // dead segment returns to the free pool).
  void KillBlock(int64_t disk_block);

  // Stages a dirty block; flushes a full segment when the buffer fills.
  Status PutDirty(Inode& inode, uint64_t block_index,
                  std::vector<uint8_t> data);

  // Writes the dirty buffer out as (part of) a segment.
  Status FlushDirtyBuffer();

  // Ensures a free segment is available, running the cleaner if needed.
  Result<uint64_t> TakeFreeSegment();

  // Compacts the lowest-utilization segment. Returns false if none.
  Result<bool> CleanOne();

  // Releases every block of the file (dirty + on-disk).
  void ReleaseFile(Inode& inode);

  DiskDevice& disk_;
  LogFsOptions options_;
  std::unique_ptr<Node> root_;
  std::unordered_map<uint64_t, Inode*> inode_index_;
  uint64_t next_inode_id_ = 1;

  uint64_t num_segments_;
  std::vector<uint32_t> usage_;                 // Live blocks per segment.
  std::vector<std::vector<SlotOwner>> summary_; // Per segment slot owners.
  std::vector<uint64_t> free_segments_;
  std::vector<bool> segment_free_;

  std::map<DirtyKey, std::vector<uint8_t>> dirty_;
  bool cleaning_ = false;
  Stats stats_;
  uint64_t user_blocks_written_ = 0;
};

}  // namespace ssmc

#endif  // SSMC_SRC_FS_LOG_FS_H_
