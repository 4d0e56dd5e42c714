#include "src/journal/journal_format.h"

#include <array>
#include <cstring>

namespace ssmc {
namespace {

// Magics are 8 ASCII bytes stored little-endian so a hex dump reads them.
constexpr uint64_t kSuperblockMagic = 0x314E524A434D5353ull;  // "SSMCJRN1"
constexpr uint64_t kCheckpointMagic = 0x50484B43434D5353ull;  // "SSMCCKHP"
constexpr uint64_t kLogMagic = 0x30474F4C434D5353ull;         // "SSMCLOG0"
constexpr uint16_t kFormatVersion = 1;

// Slicing-by-8 tables for the reflected CRC-32 polynomial: table[0] is the
// classic bytewise table, and table[k][b] is the CRC of byte b followed by k
// zero bytes, so eight input bytes fold into the running CRC with eight
// independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

uint32_t LoadU32(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

uint64_t ReadU64(std::span<const uint8_t> raw, uint64_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{raw[pos + i]} << (8 * i);
  return v;
}

uint32_t ReadU32(std::span<const uint8_t> raw, uint64_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{raw[pos + i]} << (8 * i);
  return v;
}

uint16_t ReadU16(std::span<const uint8_t> raw, uint64_t pos) {
  return static_cast<uint16_t>(uint16_t{raw[pos]} |
                               (uint16_t{raw[pos + 1]} << 8));
}

bool KnownRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kMkdir) &&
         type <= static_cast<uint8_t>(JournalRecordType::kCheckpoint);
}

// Record wire layout:
//   u32 crc        (over everything after this field)
//   u32 length     (bytes after the length field itself)
//   u8  type
//   u64 lsn
//   u64 file_id | u64 size/index | u64 flash_block | u16 tenant
//   u16 path_len, path bytes, u16 path2_len, path2 bytes
constexpr uint64_t kRecordFixedBytes =
    4 + 4 + 1 + 8 + 8 + 8 + 8 + 2 + 2 + 2;

}  // namespace

uint32_t Crc32(uint32_t seed, std::span<const uint8_t> data) {
  static const CrcTables t = BuildCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::span<const uint8_t> data) { return Crc32(0, data); }

const char* JournalRecordTypeName(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kMkdir: return "mkdir";
    case JournalRecordType::kCreate: return "create";
    case JournalRecordType::kUnlink: return "unlink";
    case JournalRecordType::kRmdir: return "rmdir";
    case JournalRecordType::kRename: return "rename";
    case JournalRecordType::kSetSize: return "set_size";
    case JournalRecordType::kExtent: return "extent";
    case JournalRecordType::kTenantStamp: return "tenant_stamp";
    case JournalRecordType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

uint64_t EncodedJournalRecordSize(const JournalRecord& record) {
  return kRecordFixedBytes + record.path.size() + record.path2.size();
}

uint64_t EncodeJournalRecord(const JournalRecord& record,
                             std::vector<uint8_t>& out) {
  const uint64_t start = out.size();
  const uint64_t total = EncodedJournalRecordSize(record);
  const uint32_t length = static_cast<uint32_t>(total - 8);  // After crc+len.
  out.reserve(start + total);
  AppendU32(out, 0);  // CRC placeholder.
  AppendU32(out, length);
  out.push_back(static_cast<uint8_t>(record.type));
  AppendU64(out, record.lsn);
  AppendU64(out, record.file_id);
  AppendU64(out, record.size);
  AppendU64(out, record.flash_block);
  AppendU16(out, record.tenant);
  AppendU16(out, static_cast<uint16_t>(record.path.size()));
  out.insert(out.end(), record.path.begin(), record.path.end());
  AppendU16(out, static_cast<uint16_t>(record.path2.size()));
  out.insert(out.end(), record.path2.begin(), record.path2.end());
  // CRC covers the length field onward so a truncated or bit-flipped record
  // fails closed.
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out.data() + start + 4, total - 4));
  out[start + 0] = static_cast<uint8_t>(crc);
  out[start + 1] = static_cast<uint8_t>(crc >> 8);
  out[start + 2] = static_cast<uint8_t>(crc >> 16);
  out[start + 3] = static_cast<uint8_t>(crc >> 24);
  return total;
}

bool DecodeJournalRecord(std::span<const uint8_t> data, uint64_t* pos,
                         JournalRecord* record) {
  const uint64_t p = *pos;
  if (data.size() - p < kRecordFixedBytes) return false;
  const uint32_t crc = ReadU32(data, p);
  const uint32_t length = ReadU32(data, p + 4);
  const uint64_t total = uint64_t{length} + 8;
  if (length < kRecordFixedBytes - 8 || total > data.size() - p) return false;
  if (Crc32(data.subspan(p + 4, total - 4)) != crc) return false;
  const uint8_t type = data[p + 8];
  if (!KnownRecordType(type)) return false;
  record->type = static_cast<JournalRecordType>(type);
  record->lsn = ReadU64(data, p + 9);
  record->file_id = ReadU64(data, p + 17);
  record->size = ReadU64(data, p + 25);
  record->flash_block = ReadU64(data, p + 33);
  record->tenant = ReadU16(data, p + 41);
  const uint16_t path_len = ReadU16(data, p + 43);
  if (kRecordFixedBytes - 2 + path_len > total) return false;
  record->path.assign(reinterpret_cast<const char*>(data.data() + p + 45),
                      path_len);
  const uint64_t p2_at = p + 45 + path_len;
  const uint16_t path2_len = ReadU16(data, p2_at);
  if (kRecordFixedBytes + path_len + path2_len != total) return false;
  record->path2.assign(
      reinterpret_cast<const char*>(data.data() + p2_at + 2), path2_len);
  *pos = p + total;
  return true;
}

void EncodeJournalSuperblock(const JournalSuperblock& sb, uint64_t block_bytes,
                             std::vector<uint8_t>& out) {
  out.clear();
  out.reserve(block_bytes);
  AppendU64(out, kSuperblockMagic);
  AppendU32(out, 0);  // CRC placeholder (over every byte after it).
  AppendU16(out, kFormatVersion);
  AppendU16(out, 0);  // Reserved.
  AppendU64(out, sb.generation);
  AppendU64(out, sb.next_lsn);
  AppendU64(out, sb.checkpoint_lsn);
  AppendU64(out, sb.checkpoint_time);
  AppendU64(out, sb.checkpoint_head);
  AppendU64(out, sb.checkpoint_bytes);
  AppendU64(out, sb.log_tail);
  AppendU64(out, sb.log_blocks);
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out.data() + 12, kJournalSuperblockBytes - 12));
  out[8] = static_cast<uint8_t>(crc);
  out[9] = static_cast<uint8_t>(crc >> 8);
  out[10] = static_cast<uint8_t>(crc >> 16);
  out[11] = static_cast<uint8_t>(crc >> 24);
  out.resize(block_bytes, 0);
}

bool DecodeJournalSuperblock(std::span<const uint8_t> raw,
                             JournalSuperblock* sb) {
  if (raw.size() < kJournalSuperblockBytes) return false;
  if (ReadU64(raw, 0) != kSuperblockMagic) return false;
  const uint32_t crc = ReadU32(raw, 8);
  if (Crc32(raw.subspan(12, kJournalSuperblockBytes - 12)) != crc) return false;
  if (ReadU16(raw, 12) != kFormatVersion) return false;
  sb->generation = ReadU64(raw, 16);
  sb->next_lsn = ReadU64(raw, 24);
  sb->checkpoint_lsn = ReadU64(raw, 32);
  sb->checkpoint_time = ReadU64(raw, 40);
  sb->checkpoint_head = ReadU64(raw, 48);
  sb->checkpoint_bytes = ReadU64(raw, 56);
  sb->log_tail = ReadU64(raw, 64);
  sb->log_blocks = ReadU64(raw, 72);
  return true;
}

void EncodeCheckpointBlockHeader(uint64_t next_block,
                                 std::vector<uint8_t>& out) {
  AppendU64(out, kCheckpointMagic);
  AppendU64(out, next_block);
}

bool DecodeCheckpointBlockHeader(std::span<const uint8_t> raw,
                                 uint64_t* next_block) {
  if (raw.size() < kCheckpointBlockHeaderBytes) return false;
  if (ReadU64(raw, 0) != kCheckpointMagic) return false;
  *next_block = ReadU64(raw, 8);
  return true;
}

void EncodeLogBlockHeader(uint64_t prev_block, uint64_t base_lsn,
                          std::vector<uint8_t>& out) {
  AppendU64(out, kLogMagic);
  AppendU64(out, prev_block);
  AppendU64(out, base_lsn);
}

bool DecodeLogBlockHeader(std::span<const uint8_t> raw, uint64_t* prev_block,
                          uint64_t* base_lsn) {
  if (raw.size() < kLogBlockHeaderBytes) return false;
  if (ReadU64(raw, 0) != kLogMagic) return false;
  *prev_block = ReadU64(raw, 8);
  *base_lsn = ReadU64(raw, 16);
  return true;
}

}  // namespace ssmc
