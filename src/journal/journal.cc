#include "src/journal/journal.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ssmc {

MetadataJournal::MetadataJournal(StorageManager& storage,
                                 MetadataJournalOptions options)
    : storage_(storage), options_(options) {}

Status MetadataJournal::WriteBlock(uint64_t block,
                                   std::span<const uint8_t> image,
                                   IoPriority priority) {
  // The log tail is the hottest block on the card; checkpoint/superblock
  // traffic is read-mostly. Route by class so bank segregation (when on)
  // places them sensibly.
  const WriteStream stream =
      priority == IoPriority::kCleaner ? WriteStream::kRelocation
                                       : WriteStream::kUser;
  Result<Duration> wrote = storage_.flash_store().Write(
      block, image, stream, priority, kJournalTenant);
  return wrote.ok() ? Status::Ok() : wrote.status();
}

Status MetadataJournal::WriteSuperblock() {
  JournalSuperblock sb;
  sb.generation = generation_ + 1;
  sb.next_lsn = next_lsn_;
  sb.checkpoint_lsn = checkpoint_lsn_;
  sb.checkpoint_time = static_cast<uint64_t>(checkpoint_time_);
  sb.checkpoint_head =
      checkpoint_block_ids_.empty() ? kNoFlashBlock : checkpoint_block_ids_[0];
  sb.checkpoint_bytes = checkpoint_bytes_;
  sb.log_tail = log_block_ids_.empty() ? kNoFlashBlock : log_block_ids_.back();
  sb.log_blocks = log_block_ids_.size();

  std::vector<uint8_t> image;
  EncodeJournalSuperblock(sb, storage_.page_bytes(), image);
  // Alternate slots by generation so the previous generation always
  // survives a torn program of the current one.
  const uint64_t slot = (sb.generation % 2 == 1) ? kSuperblockA : kSuperblockB;
  SSMC_RETURN_IF_ERROR(WriteBlock(slot, image, IoPriority::kFlush));
  generation_ = sb.generation;
  stats_.superblock_writes.Add();
  return Status::Ok();
}

Status MetadataJournal::Format() {
  assert(!formatted_ && "journal already formatted");
  SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(kSuperblockA));
  SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(kSuperblockB));
  generation_ = 0;
  next_lsn_ = 1;
  checkpoint_lsn_ = 0;
  checkpoint_time_ = 0;
  checkpoint_bytes_ = 0;
  checkpoint_block_ids_.clear();
  log_block_ids_.clear();
  tail_buf_.assign(storage_.page_bytes(), 0);
  tail_used_ = 0;
  SSMC_RETURN_IF_ERROR(WriteSuperblock());
  formatted_ = true;
  return Status::Ok();
}

Result<uint64_t> MetadataJournal::Append(JournalRecord record) {
  assert(formatted_ && "journal not formatted");
  const uint64_t bs = storage_.page_bytes();
  record.lsn = next_lsn_;
  const uint64_t size = EncodedJournalRecordSize(record);
  if (size > bs - kLogBlockHeaderBytes) {
    return FailedPreconditionError("journal record larger than a log block");
  }

  const bool fits =
      !log_block_ids_.empty() && tail_used_ + size <= bs;
  if (fits) {
    // Steady state: splice the record into the tail image and rewrite that
    // one block. The store's out-of-place program keeps the previous tail
    // version mapped if this write tears, so acked records are never at
    // risk; on failure the spliced bytes are zeroed back out so a later
    // Append cannot resurrect an un-acked record.
    std::vector<uint8_t> encoded;
    EncodeJournalRecord(record, encoded);
    std::memcpy(tail_buf_.data() + tail_used_, encoded.data(), size);
    Status wrote =
        WriteBlock(log_block_ids_.back(), tail_buf_, IoPriority::kFlush);
    if (!wrote.ok()) {
      std::memset(tail_buf_.data() + tail_used_, 0, size);
      return wrote;
    }
    tail_used_ += size;
  } else {
    // Tail full (or no log yet): open a new tail block, then publish it
    // with a superblock write. Until the superblock lands, the old tail is
    // still the chain head and the store still holds its last image — a
    // crash anywhere in between recovers the pre-append state.
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return block.status();
    }
    const uint64_t prev =
        log_block_ids_.empty() ? kNoFlashBlock : log_block_ids_.back();
    std::vector<uint8_t> image;
    image.reserve(bs);
    EncodeLogBlockHeader(prev, record.lsn, image);
    EncodeJournalRecord(record, image);
    const uint64_t used = image.size();
    image.resize(bs, 0);
    Status wrote = WriteBlock(block.value(), image, IoPriority::kFlush);
    if (wrote.ok()) {
      log_block_ids_.push_back(block.value());
      wrote = WriteSuperblock();
      if (!wrote.ok()) {
        log_block_ids_.pop_back();
      }
    }
    if (!wrote.ok()) {
      (void)storage_.FreeFlashBlock(block.value());
      return wrote;
    }
    tail_buf_ = std::move(image);
    tail_used_ = used;
  }

  next_lsn_ = record.lsn + 1;
  stats_.records.Add();
  stats_.appended_bytes.Add(size);
  stats_.log_block_writes.Add();
  return record.lsn;
}

Status MetadataJournal::WriteCheckpoint(std::span<const uint8_t> snapshot) {
  assert(formatted_ && "journal not formatted");
  const uint64_t bs = storage_.page_bytes();
  const uint64_t payload_per_block = bs - kCheckpointBlockHeaderBytes;
  const uint64_t nblocks =
      (snapshot.size() + payload_per_block - 1) / payload_per_block;

  // Stage the new chain in freshly allocated blocks. Nothing references
  // them until the superblock commits, so any failure here just returns
  // the blocks and leaves the journal's durable state untouched.
  std::vector<uint64_t> chain;
  chain.reserve(nblocks);
  auto fail_cleanup = [&](const Status& status) {
    for (const uint64_t block : chain) {
      (void)storage_.FreeFlashBlock(block);
    }
    return status;
  };
  for (uint64_t i = 0; i < nblocks; ++i) {
    Result<uint64_t> block = storage_.AllocateFlashBlock();
    if (!block.ok()) {
      return fail_cleanup(block.status());
    }
    chain.push_back(block.value());
  }
  std::vector<uint8_t> image;
  for (uint64_t i = 0; i < nblocks; ++i) {
    image.clear();
    image.reserve(bs);
    const uint64_t next = i + 1 < nblocks ? chain[i + 1] : kNoFlashBlock;
    EncodeCheckpointBlockHeader(next, image);
    const uint64_t off = i * payload_per_block;
    const uint64_t len = std::min(payload_per_block, snapshot.size() - off);
    image.insert(image.end(), snapshot.begin() + static_cast<ptrdiff_t>(off),
                 snapshot.begin() + static_cast<ptrdiff_t>(off + len));
    image.resize(bs, 0);
    // Compaction is background reclamation: cleaner-class, absorbed by the
    // banks like the store's own GC.
    Status wrote = WriteBlock(chain[i], image, IoPriority::kCleaner);
    if (!wrote.ok()) {
      return fail_cleanup(wrote);
    }
  }

  // Commit: swap in the new chain, truncate the log, write the superblock.
  std::vector<uint64_t> old_checkpoint = std::move(checkpoint_block_ids_);
  std::vector<uint64_t> old_log = std::move(log_block_ids_);
  const uint64_t old_ckpt_lsn = checkpoint_lsn_;
  const SimTime old_ckpt_time = checkpoint_time_;
  const uint64_t old_ckpt_bytes = checkpoint_bytes_;
  checkpoint_block_ids_ = std::move(chain);
  log_block_ids_.clear();
  checkpoint_lsn_ = next_lsn_;
  checkpoint_time_ = storage_.flash_store().device().clock().now();
  checkpoint_bytes_ = snapshot.size();
  Status committed = WriteSuperblock();
  if (!committed.ok()) {
    chain = std::move(checkpoint_block_ids_);
    checkpoint_block_ids_ = std::move(old_checkpoint);
    log_block_ids_ = std::move(old_log);
    checkpoint_lsn_ = old_ckpt_lsn;
    checkpoint_time_ = old_ckpt_time;
    checkpoint_bytes_ = old_ckpt_bytes;
    return fail_cleanup(committed);
  }
  tail_buf_.assign(bs, 0);
  tail_used_ = 0;

  // The old checkpoint and the whole old log are dead now that the new
  // generation references neither — reclaim them.
  uint64_t freed = 0;
  for (const uint64_t block : old_checkpoint) {
    if (storage_.FreeFlashBlock(block).ok()) {
      ++freed;
    }
  }
  for (const uint64_t block : old_log) {
    if (storage_.FreeFlashBlock(block).ok()) {
      ++freed;
    }
  }
  stats_.checkpoints.Add();
  stats_.checkpoint_bytes.Add(snapshot.size());
  stats_.compacted_blocks.Add(freed);

  // Open the fresh log with a record announcing the checkpoint.
  JournalRecord marker;
  marker.type = JournalRecordType::kCheckpoint;
  marker.flash_block = checkpoint_lsn_;
  Result<uint64_t> appended = Append(marker);
  return appended.ok() ? Status::Ok() : appended.status();
}

Result<MetadataJournal::MountState> MetadataJournal::Recover() {
  assert(!formatted_ && "Recover on a live journal");
  FlashStore& store = storage_.flash_store();
  FlashDevice& device = store.device();
  const uint64_t bs = storage_.page_bytes();
  SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(kSuperblockA));
  SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(kSuperblockB));

  // Mount reads are issued non-blocking: every chain block's successor id
  // sits in the first bytes of its header, so a real controller overlaps
  // the pointer chase with payload streaming and the banks run in
  // parallel. The clock advances to the busiest bank's completion below —
  // mount time is the bank-parallel read time, not a serial walk.
  const IoIssue mount_read{IoPriority::kForeground, /*blocking=*/false,
                           kJournalTenant};
  const SimTime mount_start = device.clock().now();

  // 1. Superblocks: the valid slot with the highest generation wins.
  JournalSuperblock sb;
  bool have_sb = false;
  std::vector<uint8_t> raw(bs);
  for (const uint64_t slot : {kSuperblockA, kSuperblockB}) {
    if (!store.Read(slot, raw, mount_read).ok()) {
      continue;  // Never written (or torn away): the sibling decides.
    }
    JournalSuperblock candidate;
    if (DecodeJournalSuperblock(raw, &candidate) &&
        (!have_sb || candidate.generation > sb.generation)) {
      sb = candidate;
      have_sb = true;
    }
  }
  if (!have_sb) {
    return FailedPreconditionError("no valid journal superblock");
  }

  MountState state;
  state.checkpoint_lsn = sb.checkpoint_lsn;
  state.checkpoint_time = static_cast<SimTime>(sb.checkpoint_time);

  // 2. Checkpoint chain.
  uint64_t block = sb.checkpoint_head;
  state.checkpoint.reserve(sb.checkpoint_bytes);
  while (block != kNoFlashBlock) {
    if (!store.Read(block, raw, mount_read).ok()) {
      return DataLossError("journal checkpoint block " +
                           std::to_string(block) + " unreadable");
    }
    uint64_t next = kNoFlashBlock;
    if (!DecodeCheckpointBlockHeader(raw, &next)) {
      return DataLossError("journal checkpoint chain is corrupt");
    }
    SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(block));
    checkpoint_block_ids_.push_back(block);
    const uint64_t want = sb.checkpoint_bytes - state.checkpoint.size();
    const uint64_t take = std::min(want, bs - kCheckpointBlockHeaderBytes);
    state.checkpoint.insert(
        state.checkpoint.end(), raw.begin() + kCheckpointBlockHeaderBytes,
        raw.begin() + static_cast<ptrdiff_t>(kCheckpointBlockHeaderBytes +
                                             take));
    block = next;
  }
  if (state.checkpoint.size() != sb.checkpoint_bytes) {
    return DataLossError("journal checkpoint is truncated");
  }

  // 3. Log chain, tail -> oldest, then replay oldest-first.
  std::vector<std::vector<uint8_t>> log_raw;  // Newest first.
  std::vector<uint64_t> log_ids_newest_first;
  block = sb.log_tail;
  while (block != kNoFlashBlock) {
    std::vector<uint8_t> img(bs);
    if (!store.Read(block, img, mount_read).ok()) {
      return DataLossError("journal log block " + std::to_string(block) +
                           " unreadable");
    }
    uint64_t prev = kNoFlashBlock;
    uint64_t base_lsn = 0;
    if (!DecodeLogBlockHeader(img, &prev, &base_lsn)) {
      return DataLossError("journal log chain is corrupt");
    }
    SSMC_RETURN_IF_ERROR(storage_.ReserveFlashBlock(block));
    log_ids_newest_first.push_back(block);
    log_raw.push_back(std::move(img));
    block = prev;
  }
  log_block_ids_.assign(log_ids_newest_first.rbegin(),
                        log_ids_newest_first.rend());

  uint64_t max_lsn = 0;
  for (size_t i = log_raw.size(); i-- > 0;) {
    const std::vector<uint8_t>& img = log_raw[i];
    uint64_t pos = kLogBlockHeaderBytes;
    JournalRecord record;
    // The first undecodable record ends the block: zero padding in a
    // sealed block, or the torn tail of the program a power failure
    // interrupted — either way nothing past it was ever acked.
    while (DecodeJournalRecord(img, &pos, &record)) {
      max_lsn = std::max(max_lsn, record.lsn);
      state.records.push_back(record);
    }
    if (i == 0) {
      // Continue appending where the tail left off, with any torn bytes
      // scrubbed from the image.
      tail_buf_ = img;
      std::fill(tail_buf_.begin() + static_cast<ptrdiff_t>(pos),
                tail_buf_.end(), 0);
      tail_used_ = pos;
    }
  }
  if (log_block_ids_.empty()) {
    tail_buf_.assign(bs, 0);
    tail_used_ = 0;
  }

  // 4. The mount's reads ran bank-parallel; the mount completes when the
  // last bank does.
  SimTime done = device.clock().now();
  for (int bank = 0; bank < device.num_banks(); ++bank) {
    done = std::max(done, device.BankBusyUntil(bank));
  }
  device.clock().AdvanceTo(done);
  (void)mount_start;

  generation_ = sb.generation;
  next_lsn_ = std::max(sb.next_lsn, max_lsn + 1);
  checkpoint_lsn_ = sb.checkpoint_lsn;
  checkpoint_time_ = static_cast<SimTime>(sb.checkpoint_time);
  checkpoint_bytes_ = sb.checkpoint_bytes;
  formatted_ = true;
  return state;
}

void MetadataJournal::AttachObs(Obs* obs) {
  static constexpr CounterField<Stats> kCounters[] = {
      {"records", &Stats::records},
      {"appended_bytes", &Stats::appended_bytes},
      {"log_block_writes", &Stats::log_block_writes},
      {"superblock_writes", &Stats::superblock_writes},
      {"checkpoints", &Stats::checkpoints},
      {"checkpoint_bytes", &Stats::checkpoint_bytes},
      {"compacted_blocks", &Stats::compacted_blocks},
  };
  export_.Attach(obs, "journal", stats_, kCounters, [this](MetricsRegistry& m) {
    m.AddGauge("journal/log_blocks")
        ->Set(static_cast<int64_t>(log_block_ids_.size()));
    m.AddGauge("journal/next_lsn")->Set(static_cast<int64_t>(next_lsn_));
  });
}

}  // namespace ssmc
