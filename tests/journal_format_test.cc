// On-media format units for the metadata journal (ROADMAP E13): record
// encode/decode round-trips, CRC and truncation rejection, torn-tail
// semantics, superblock A/B generation selection, and journal-level
// Format/Append/Recover round-trips over a real flash store.

#include "src/journal/journal_format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/device/dram_device.h"
#include "src/device/flash_device.h"
#include "src/ftl/flash_store.h"
#include "src/journal/journal.h"
#include "src/sim/clock.h"
#include "src/storage/storage_manager.h"
#include "src/support/rng.h"

namespace ssmc {
namespace {

JournalRecord SampleRecord() {
  JournalRecord r;
  r.type = JournalRecordType::kExtent;
  r.lsn = 0x1122334455667788ull;
  r.file_id = 42;
  r.size = 7;
  r.flash_block = 913;
  r.tenant = 5;
  r.path = "/home/user/notes.txt";
  r.path2 = "/home/user/notes.bak";
  return r;
}

TEST(JournalFormatTest, RecordRoundTripAllFields) {
  const JournalRecord in = SampleRecord();
  std::vector<uint8_t> buf;
  const uint64_t encoded = EncodeJournalRecord(in, buf);
  EXPECT_EQ(encoded, buf.size());
  EXPECT_EQ(encoded, EncodedJournalRecordSize(in));

  JournalRecord out;
  uint64_t pos = 0;
  ASSERT_TRUE(DecodeJournalRecord(buf, &pos, &out));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.lsn, in.lsn);
  EXPECT_EQ(out.file_id, in.file_id);
  EXPECT_EQ(out.size, in.size);
  EXPECT_EQ(out.flash_block, in.flash_block);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.path, in.path);
  EXPECT_EQ(out.path2, in.path2);
}

TEST(JournalFormatTest, MultiRecordSequenceDecodesInOrder) {
  std::vector<uint8_t> buf;
  for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
    JournalRecord r;
    r.type = JournalRecordType::kMkdir;
    r.lsn = lsn;
    r.path = "/d" + std::to_string(lsn);
    EncodeJournalRecord(r, buf);
  }
  // Trailing zero fill, as in a half-used log block.
  buf.resize(buf.size() + 64, 0);

  uint64_t pos = 0;
  uint64_t expect_lsn = 1;
  JournalRecord r;
  while (DecodeJournalRecord(buf, &pos, &r)) {
    EXPECT_EQ(r.lsn, expect_lsn);
    EXPECT_EQ(r.path, "/d" + std::to_string(expect_lsn));
    ++expect_lsn;
  }
  EXPECT_EQ(expect_lsn, 6u);  // All five decoded; zero fill ended the scan.
}

TEST(JournalFormatTest, CorruptRecordRejectedAndPosUntouched) {
  std::vector<uint8_t> buf;
  EncodeJournalRecord(SampleRecord(), buf);
  // Flip one payload byte: the CRC must catch it.
  buf[buf.size() - 3] ^= 0x40;

  JournalRecord out;
  uint64_t pos = 0;
  EXPECT_FALSE(DecodeJournalRecord(buf, &pos, &out));
  EXPECT_EQ(pos, 0u);
}

TEST(JournalFormatTest, TruncatedRecordRejected) {
  std::vector<uint8_t> buf;
  EncodeJournalRecord(SampleRecord(), buf);
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{7}, buf.size() - 1}) {
    std::vector<uint8_t> cut(buf.begin(), buf.begin() + keep);
    JournalRecord out;
    uint64_t pos = 0;
    EXPECT_FALSE(DecodeJournalRecord(cut, &pos, &out)) << "kept " << keep;
    EXPECT_EQ(pos, 0u);
  }
}

TEST(JournalFormatTest, TornTailStopsAtFirstBadRecord) {
  // Three records; the third is torn mid-payload (power failure). The scan
  // must yield exactly the first two and stop.
  std::vector<uint8_t> buf;
  std::vector<uint64_t> starts;
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    JournalRecord r;
    r.type = JournalRecordType::kCreate;
    r.lsn = lsn;
    r.file_id = lsn * 10;
    r.path = "/f" + std::to_string(lsn);
    starts.push_back(buf.size());
    EncodeJournalRecord(r, buf);
  }
  // Zero everything past the first few bytes of record 3 — a torn program
  // leaves a prefix followed by erased flash.
  std::memset(buf.data() + starts[2] + 5, 0, buf.size() - starts[2] - 5);

  uint64_t pos = 0;
  JournalRecord r;
  ASSERT_TRUE(DecodeJournalRecord(buf, &pos, &r));
  EXPECT_EQ(r.lsn, 1u);
  ASSERT_TRUE(DecodeJournalRecord(buf, &pos, &r));
  EXPECT_EQ(r.lsn, 2u);
  EXPECT_FALSE(DecodeJournalRecord(buf, &pos, &r));
  EXPECT_EQ(pos, starts[2]);
}

TEST(JournalFormatTest, SuperblockRoundTripAndCorruptionRejected) {
  JournalSuperblock in;
  in.generation = 17;
  in.next_lsn = 901;
  in.checkpoint_lsn = 800;
  in.checkpoint_time = 123456789;
  in.checkpoint_head = 33;
  in.checkpoint_bytes = 5000;
  in.log_tail = 77;
  in.log_blocks = 3;

  std::vector<uint8_t> raw;
  EncodeJournalSuperblock(in, 512, raw);
  ASSERT_EQ(raw.size(), 512u);

  JournalSuperblock out;
  ASSERT_TRUE(DecodeJournalSuperblock(raw, &out));
  EXPECT_EQ(out.generation, in.generation);
  EXPECT_EQ(out.next_lsn, in.next_lsn);
  EXPECT_EQ(out.checkpoint_lsn, in.checkpoint_lsn);
  EXPECT_EQ(out.checkpoint_time, in.checkpoint_time);
  EXPECT_EQ(out.checkpoint_head, in.checkpoint_head);
  EXPECT_EQ(out.checkpoint_bytes, in.checkpoint_bytes);
  EXPECT_EQ(out.log_tail, in.log_tail);
  EXPECT_EQ(out.log_blocks, in.log_blocks);

  // Any single corrupt byte in the covered region must invalidate it.
  for (const size_t at : {size_t{0}, size_t{16}, size_t{40}, size_t{79}}) {
    std::vector<uint8_t> bad = raw;
    bad[at] ^= 0x01;
    EXPECT_FALSE(DecodeJournalSuperblock(bad, &out)) << "byte " << at;
  }
}

TEST(JournalFormatTest, BlockHeaderRoundTrips) {
  std::vector<uint8_t> ckpt;
  EncodeCheckpointBlockHeader(55, ckpt);
  ASSERT_EQ(ckpt.size(), kCheckpointBlockHeaderBytes);
  uint64_t next = 0;
  ASSERT_TRUE(DecodeCheckpointBlockHeader(ckpt, &next));
  EXPECT_EQ(next, 55u);
  ckpt[0] ^= 0xFF;
  EXPECT_FALSE(DecodeCheckpointBlockHeader(ckpt, &next));

  std::vector<uint8_t> log;
  EncodeLogBlockHeader(12, 345, log);
  ASSERT_EQ(log.size(), kLogBlockHeaderBytes);
  uint64_t prev = 0, base = 0;
  ASSERT_TRUE(DecodeLogBlockHeader(log, &prev, &base));
  EXPECT_EQ(prev, 12u);
  EXPECT_EQ(base, 345u);
  log[3] ^= 0x10;
  EXPECT_FALSE(DecodeLogBlockHeader(log, &prev, &base));
}

TEST(JournalFormatTest, Crc32KnownVectorAndSeedChaining) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const char* msg = "123456789";
  std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(msg), 9);
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
  // Chaining through the seeded form must equal the one-shot CRC.
  const uint32_t head = Crc32(bytes.subspan(0, 4));
  EXPECT_EQ(Crc32(head, bytes.subspan(4)), 0xCBF43926u);
}

// Bit-at-a-time CRC-32 (reflected 0xEDB88320), the definition the table
// implementation must reproduce.
uint32_t BitwiseCrc32(uint32_t seed, std::span<const uint8_t> data) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(JournalFormatTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..600 cover the 8-byte fast loop, every tail length, and
  // records far larger than any real one; the start offsets 0..7 cover every
  // alignment of the 8-byte loads.
  for (const uint64_t data_seed : {1u, 7u, 1993u}) {
    Rng rng(data_seed);
    std::vector<uint8_t> buf(608);
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    for (size_t len = 0; len <= 600; ++len) {
      const size_t start = len % 8;
      const std::span<const uint8_t> data(buf.data() + start, len);
      const uint32_t crc_seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32(data), BitwiseCrc32(0, data)) << "len " << len;
      ASSERT_EQ(Crc32(crc_seed, data), BitwiseCrc32(crc_seed, data))
          << "len " << len << " seed " << crc_seed;
    }
  }
}

// --- Journal-level round trips over a real flash store ---------------------

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DramSpec dram_spec;
    dram_spec.read = {80, 25};
    dram_spec.write = {80, 25};
    dram_ = std::make_unique<DramDevice>(dram_spec, 2 * kMiB, clock_);
    FlashSpec flash_spec;
    flash_spec.read = {150, 100};
    flash_spec.program = {2000, 10000};
    flash_spec.erase_sector_bytes = 4096;
    flash_spec.erase_ns = 100 * kMillisecond;
    flash_spec.endurance_cycles = 1000000;
    flash_ = std::make_unique<FlashDevice>(flash_spec, 8 * kMiB, 2, clock_);
    store_ = std::make_unique<FlashStore>(*flash_, FlashStoreOptions{});
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
  }

  // Fresh manager over the same surviving store, as crash recovery does.
  void Remount() {
    manager_ = std::make_unique<StorageManager>(*dram_, *store_, 512);
  }

  SimClock clock_;
  std::unique_ptr<DramDevice> dram_;
  std::unique_ptr<FlashDevice> flash_;
  std::unique_ptr<FlashStore> store_;
  std::unique_ptr<StorageManager> manager_;
};

TEST_F(JournalTest, FormatAppendRecoverRoundTrip) {
  MetadataJournal journal(*manager_);
  ASSERT_TRUE(journal.Format().ok());
  for (uint64_t i = 0; i < 40; ++i) {
    JournalRecord r;
    r.type = JournalRecordType::kCreate;
    r.file_id = i + 1;
    r.path = "/file" + std::to_string(i);
    Result<uint64_t> lsn = journal.Append(std::move(r));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), i + 1);
  }

  Remount();
  MetadataJournal reborn(*manager_);
  Result<MetadataJournal::MountState> mount = reborn.Recover();
  ASSERT_TRUE(mount.ok());
  EXPECT_TRUE(mount.value().checkpoint.empty());
  ASSERT_EQ(mount.value().records.size(), 40u);
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(mount.value().records[i].lsn, i + 1);
    EXPECT_EQ(mount.value().records[i].path, "/file" + std::to_string(i));
  }
  // The mounted journal keeps appending where the old one stopped.
  JournalRecord r;
  r.type = JournalRecordType::kUnlink;
  r.path = "/file0";
  Result<uint64_t> lsn = reborn.Append(std::move(r));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 41u);
}

TEST_F(JournalTest, CheckpointTruncatesLogAndRecoverReturnsSnapshot) {
  MetadataJournal journal(*manager_);
  ASSERT_TRUE(journal.Format().ok());
  for (int i = 0; i < 10; ++i) {
    JournalRecord r;
    r.type = JournalRecordType::kMkdir;
    r.path = "/d" + std::to_string(i);
    ASSERT_TRUE(journal.Append(std::move(r)).ok());
  }
  std::vector<uint8_t> snapshot(3000);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    snapshot[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(journal.WriteCheckpoint(snapshot).ok());
  EXPECT_GT(journal.stats().compacted_blocks.value(), 0u);

  // One post-checkpoint record survives in the fresh log.
  JournalRecord r;
  r.type = JournalRecordType::kRmdir;
  r.path = "/d3";
  ASSERT_TRUE(journal.Append(std::move(r)).ok());

  Remount();
  MetadataJournal reborn(*manager_);
  Result<MetadataJournal::MountState> mount = reborn.Recover();
  ASSERT_TRUE(mount.ok());
  EXPECT_EQ(mount.value().checkpoint, snapshot);
  // The 10 pre-checkpoint mkdirs are compacted away; only the kCheckpoint
  // marker and the rmdir remain above checkpoint_lsn.
  ASSERT_FALSE(mount.value().records.empty());
  EXPECT_EQ(mount.value().records.back().type, JournalRecordType::kRmdir);
  EXPECT_EQ(mount.value().records.back().path, "/d3");
  for (const JournalRecord& rec : mount.value().records) {
    EXPECT_NE(rec.type, JournalRecordType::kMkdir);
  }
}

TEST_F(JournalTest, TornTailProgramLosesOnlyUnackedRecord) {
  MetadataJournal journal(*manager_);
  ASSERT_TRUE(journal.Format().ok());
  for (int i = 0; i < 5; ++i) {
    JournalRecord r;
    r.type = JournalRecordType::kCreate;
    r.file_id = i + 1;
    r.path = "/ok" + std::to_string(i);
    ASSERT_TRUE(journal.Append(std::move(r)).ok());
  }
  // The next tail program tears after 8 bytes: the record was never acked,
  // and the FTL's out-of-place write keeps the previous tail mapped.
  flash_->FailNextProgramAfterBytes(8);
  JournalRecord torn;
  torn.type = JournalRecordType::kCreate;
  torn.file_id = 99;
  torn.path = "/never-acked";
  EXPECT_FALSE(journal.Append(std::move(torn)).ok());

  Remount();
  MetadataJournal reborn(*manager_);
  Result<MetadataJournal::MountState> mount = reborn.Recover();
  ASSERT_TRUE(mount.ok());
  ASSERT_EQ(mount.value().records.size(), 5u);
  for (const JournalRecord& rec : mount.value().records) {
    EXPECT_NE(rec.path, "/never-acked");
  }
}

TEST_F(JournalTest, HighestGenerationSuperblockWins) {
  MetadataJournal journal(*manager_);
  ASSERT_TRUE(journal.Format().ok());
  const uint64_t gen_after_format = journal.generation();
  // Enough appends to roll the tail into new blocks and force more
  // superblock generations into both A and B slots.
  for (int i = 0; i < 60; ++i) {
    JournalRecord r;
    r.type = JournalRecordType::kMkdir;
    r.path = "/gen/dir-with-a-reasonably-long-name-" + std::to_string(i);
    ASSERT_TRUE(journal.Append(std::move(r)).ok());
  }
  EXPECT_GT(journal.generation(), gen_after_format);

  Remount();
  MetadataJournal reborn(*manager_);
  Result<MetadataJournal::MountState> mount = reborn.Recover();
  ASSERT_TRUE(mount.ok());
  EXPECT_EQ(reborn.generation(), journal.generation());
  EXPECT_EQ(mount.value().records.size(), 60u);
}

TEST_F(JournalTest, RecoverOnUnformattedStoreFailsPrecondition) {
  MetadataJournal journal(*manager_);
  Result<MetadataJournal::MountState> mount = journal.Recover();
  ASSERT_FALSE(mount.ok());
  EXPECT_EQ(mount.status().code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ssmc
