#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

namespace perfbench {

using ssmc::TraceOp;
using ssmc::TraceRecord;

void Fail(const std::string& what) { throw CheckFailure(what); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kReplayLoop:
      return "trace.replay_loop";
    case Layer::kRunUntil:
      return "sim.run_until";
    case Layer::kFsRead:
      return "fs.read";
    case Layer::kFsWrite:
      return "fs.write";
    case Layer::kFsMeta:
      return "fs.meta";
    case Layer::kGenerate:
      return "trace.generate";
    case Layer::kBuild:
      return "core.build";
    case Layer::kTeardown:
      return "core.teardown";
    case Layer::kMerge:
      return "harness.merge";
    case Layer::kRecover:
      return "journal.recover";
  }
  return "?";
}

// --- Spans -------------------------------------------------------------------

uint32_t SpanRecorder::Begin(Layer layer, uint64_t op) {
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  const uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({NowNs(), 0, op, parent, layer});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(uint32_t id) {
  spans_[id].end_ns = NowNs();
  if (open_.empty() || open_.back() != id) {
    Fail("span nesting broken");
  }
  open_.pop_back();
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_.clear();
}

std::array<int64_t, kNumLayers> SpanRecorder::SelfNs() const {
  std::array<int64_t, kNumLayers> self{};
  for (const Span& s : spans_) {
    const int64_t d = s.end_ns - s.start_ns;
    self[static_cast<size_t>(s.layer)] += d;
    if (s.parent != kNoParent) {
      self[static_cast<size_t>(spans_[s.parent].layer)] -= d;
    }
  }
  return self;
}

void SpanRecorder::WriteTsv(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (out == nullptr) {
    Fail("cannot write spans to " + path);
  }
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out.get(), "# index\tparent\top\tlayer\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char parent[16] = "-";
    if (s.parent != kNoParent) {
      std::snprintf(parent, sizeof(parent), "%u", s.parent);
    }
    std::fprintf(out.get(), "%zu\t%s\t%llu\t%s\t%lld\t%lld\n", i, parent,
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
}

// --- Byte model ----------------------------------------------------------------

namespace {

std::string ParentOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == 0 ? "/" : path.substr(0, slash);
}

std::string Describe(const TraceRecord& r) {
  return std::string(ssmc::TraceOpName(r.op)) + " " + r.path + " @" +
         std::to_string(r.offset) + "+" + std::to_string(r.length);
}

}  // namespace

ByteModel::ByteModel() { entries_["/"].is_dir = true; }

bool ByteModel::ParentIsDir(const std::string& path) const {
  const auto it = entries_.find(ParentOf(path));
  return it != entries_.end() && it->second.is_dir;
}

void ByteModel::Mkdir(const std::string& path) {
  if (!ParentIsDir(path) || entries_.count(path) != 0) {
    Fail("model: cannot mkdir " + path);
  }
  entries_[path].is_dir = true;
}

void ByteModel::Apply(const TraceRecord& r, bool ok, uint64_t transferred,
                      std::span<const uint8_t> data,
                      const ssmc::FileInfo* info) {
  const auto it = entries_.find(r.path);
  const bool exists = it != entries_.end();
  const bool is_file = exists && !it->second.is_dir;
  bool want_ok = false;
  switch (r.op) {
    case TraceOp::kCreate:
    case TraceOp::kMkdir:
      want_ok = !exists && ParentIsDir(r.path);
      if (want_ok) {
        entries_[r.path].is_dir = r.op == TraceOp::kMkdir;
      }
      break;
    case TraceOp::kUnlink:
      want_ok = is_file;
      if (want_ok) {
        entries_.erase(it);
      }
      break;
    case TraceOp::kTruncate:
      want_ok = is_file;
      if (want_ok) {
        it->second.bytes.resize(r.length, 0);
      }
      break;
    case TraceOp::kStat:
      want_ok = exists;
      if (want_ok && ok &&
          (info == nullptr || info->is_directory != it->second.is_dir ||
           info->size != it->second.bytes.size())) {
        Fail("stat disagrees with model: " + Describe(r));
      }
      break;
    case TraceOp::kRename: {
      want_ok = exists && entries_.count(r.path2) == 0 &&
                ParentIsDir(r.path2);
      if (want_ok) {
        // Move the entry and, for a directory, its whole subtree.
        std::vector<std::pair<std::string, Entry>> moved;
        moved.emplace_back(r.path2, std::move(it->second));
        entries_.erase(it);
        const std::string from_prefix = r.path + "/";
        for (auto m = entries_.lower_bound(from_prefix);
             m != entries_.end() && m->first.rfind(from_prefix, 0) == 0;) {
          moved.emplace_back(r.path2 + m->first.substr(r.path.size()),
                             std::move(m->second));
          m = entries_.erase(m);
        }
        for (auto& [path, entry] : moved) {
          entries_[path] = std::move(entry);
        }
      }
      break;
    }
    case TraceOp::kWrite:
      want_ok = is_file;
      if (want_ok && ok) {
        if (transferred != data.size()) {
          Fail("short write: " + Describe(r));
        }
        std::vector<uint8_t>& bytes = it->second.bytes;
        if (bytes.size() < r.offset + data.size()) {
          bytes.resize(r.offset + data.size(), 0);
        }
        std::memcpy(bytes.data() + r.offset, data.data(), data.size());
      }
      break;
    case TraceOp::kRead:
      want_ok = is_file;
      if (want_ok && ok) {
        const std::vector<uint8_t>& bytes = it->second.bytes;
        const uint64_t want =
            r.offset >= bytes.size()
                ? 0
                : std::min<uint64_t>(r.length, bytes.size() - r.offset);
        if (transferred != want) {
          Fail("read length disagrees with model: " + Describe(r) + " got " +
               std::to_string(transferred) + " want " + std::to_string(want));
        }
        if (want > 0 &&
            std::memcmp(data.data(), bytes.data() + r.offset, want) != 0) {
          Fail("read bytes disagree with model: " + Describe(r));
        }
      }
      break;
  }
  if (ok != want_ok) {
    Fail(std::string("fs ") + (ok ? "accepted" : "rejected") +
         " an op the model " + (want_ok ? "accepts" : "rejects") + ": " +
         Describe(r));
  }
}

void ByteModel::CheckNamespace(ssmc::FileSystem& fs) const {
  uint64_t seen = 0;
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    const std::string dir = std::move(stack.back());
    stack.pop_back();
    ssmc::Result<std::vector<std::string>> names = fs.List(dir);
    if (!names.ok()) {
      Fail("recovered fs cannot list " + dir);
    }
    for (const std::string& name : names.value()) {
      const std::string path = (dir == "/" ? "" : dir) + "/" + name;
      ssmc::Result<ssmc::FileInfo> info = fs.Stat(path);
      const auto it = entries_.find(path);
      if (!info.ok() || it == entries_.end()) {
        Fail("recovered fs has " + path + ", the model does not");
      }
      if (info.value().is_directory != it->second.is_dir ||
          info.value().size != it->second.bytes.size()) {
        Fail("recovered " + path + " differs from the model");
      }
      ++seen;
      if (it->second.is_dir) {
        stack.push_back(path);
      }
    }
  }
  if (seen + 1 != entries_.size()) {
    Fail("recovered fs lost " + std::to_string(entries_.size() - 1 - seen) +
         " model entries");
  }
}

// --- Replay --------------------------------------------------------------------

ssmc::ReplayReport ReplayOnMachine(ssmc::MobileComputer& machine,
                                   const ssmc::Trace& trace,
                                   const ReplayHooks& hooks) {
  using namespace ssmc;
  FlashDevice& flash = machine.flash();
  MemoryFileSystem& fs = machine.fs();
  SimClock& clock = machine.clock();
  EventQueue& events = machine.events();

  // Window the device lanes and read sources to this replay (as RunTrace).
  std::array<IoLaneStats, kNumIoPriorities> lanes_before;
  for (int i = 0; i < kNumIoPriorities; ++i) {
    lanes_before[static_cast<size_t>(i)].Merge(flash.stats().by_class[i]);
  }
  const TenantLaneTable tenants_before = flash.stats().by_tenant;
  const MemoryFileSystem::Stats& fstats = fs.stats();
  const uint64_t dram_before = fstats.buffered_read_bytes.value() +
                               fstats.clean_cached_read_bytes.value();
  const uint64_t nvm_before = fstats.nvm_cached_read_bytes.value();
  const uint64_t flash_before = fstats.flash_direct_read_bytes.value();

  ReplayReport report;
  ScopedSpan loop_span(hooks.spans, Layer::kReplayLoop, hooks.op_base);
  report.started = clock.now();
  uint64_t max_length = 0;
  for (const TraceRecord& r : trace.records()) {
    max_length = std::max(max_length, r.length);
  }
  std::vector<uint8_t> buffer;
  buffer.reserve(max_length);
  std::unordered_map<std::string, uint64_t> path_hash;

  TenantId current_tenant = kDefaultTenant;
  fs.set_current_tenant(current_tenant);
  uint64_t index = hooks.op_base;
  for (const TraceRecord& r : trace.records()) {
    if (r.tenant != current_tenant) {
      current_tenant = r.tenant;
      fs.set_current_tenant(current_tenant);
    }
    const SimTime due_at = std::max(clock.now(), report.started + r.at);
    {
      ScopedSpan span(hooks.spans, Layer::kRunUntil, index);
      events.RunUntil(due_at);
    }
    const SimTime before = clock.now();
    Status status;
    uint64_t transferred = 0;
    FileInfo info;
    switch (r.op) {
      case TraceOp::kWrite: {
        buffer.resize(r.length);
        // The replayer's payload pattern, so both replays write equal bytes.
        const auto [h, inserted] = path_hash.try_emplace(r.path, 0);
        if (inserted) {
          h->second = std::hash<std::string>()(r.path);
        }
        for (size_t i = 0; i < buffer.size(); ++i) {
          buffer[i] = static_cast<uint8_t>((h->second + r.offset + i) * 131);
        }
        ScopedSpan span(hooks.spans, Layer::kFsWrite, index);
        Result<uint64_t> n = fs.Write(r.path, r.offset, buffer);
        status = n.status();
        if (n.ok()) {
          transferred = n.value();
        }
        break;
      }
      case TraceOp::kRead: {
        buffer.resize(r.length);
        ScopedSpan span(hooks.spans, Layer::kFsRead, index);
        Result<uint64_t> n = fs.Read(r.path, r.offset, buffer);
        status = n.status();
        if (n.ok()) {
          transferred = n.value();
        }
        break;
      }
      default: {
        ScopedSpan span(hooks.spans, Layer::kFsMeta, index);
        switch (r.op) {
          case TraceOp::kCreate:
            status = fs.Create(r.path);
            break;
          case TraceOp::kMkdir:
            status = fs.Mkdir(r.path);
            break;
          case TraceOp::kUnlink:
            status = fs.Unlink(r.path);
            break;
          case TraceOp::kTruncate:
            status = fs.Truncate(r.path, r.length);
            break;
          case TraceOp::kRename:
            status = fs.Rename(r.path, r.path2);
            break;
          case TraceOp::kStat: {
            Result<FileInfo> stat = fs.Stat(r.path);
            status = stat.status();
            if (stat.ok()) {
              info = stat.value();
            }
            break;
          }
          default:
            break;
        }
        break;
      }
    }
    const Duration latency = clock.now() - before;
    if (r.op == TraceOp::kWrite) {
      if (status.ok()) {
        report.bytes_written += transferred;
      } else {
        report.failed_write_bytes += r.length;
      }
    } else if (r.op == TraceOp::kRead) {
      if (status.ok()) {
        report.bytes_read += transferred;
      } else {
        report.failed_read_bytes += r.length;
      }
    }
    report.ops += 1;
    if (!status.ok()) {
      report.failures += 1;
    }
    report.all_ops.Record(latency);
    report.per_op[static_cast<size_t>(r.op)].Record(latency);
    if (r.op == TraceOp::kRead) {
      report.by_tenant.For(r.tenant).reads.Record(latency);
    } else if (r.op == TraceOp::kWrite) {
      report.by_tenant.For(r.tenant).writes.Record(latency);
    }
    if (hooks.fs_ops != nullptr) {
      uint64_t& count = r.op == TraceOp::kRead    ? hooks.fs_ops->read
                        : r.op == TraceOp::kWrite ? hooks.fs_ops->write
                                                  : hooks.fs_ops->meta;
      ++count;
    }
    if (hooks.samples != nullptr) {
      if (r.op == TraceOp::kRead) {
        hooks.samples->reads.push_back(latency);
        hooks.samples->tenant_reads[r.tenant].push_back(latency);
      } else if (r.op == TraceOp::kWrite) {
        hooks.samples->writes.push_back(latency);
      }
    }
    if (hooks.model != nullptr) {
      hooks.model->Apply(r, status.ok(), transferred,
                         std::span<const uint8_t>(buffer.data(), transferred),
                         r.op == TraceOp::kStat ? &info : nullptr);
    }
    ++index;
  }
  report.finished = clock.now();

  report.tier_dram_read_bytes = fstats.buffered_read_bytes.value() +
                                fstats.clean_cached_read_bytes.value() -
                                dram_before;
  report.tier_nvm_read_bytes = fstats.nvm_cached_read_bytes.value() -
                               nvm_before;
  report.tier_flash_read_bytes =
      fstats.flash_direct_read_bytes.value() - flash_before;
  for (int i = 0; i < kNumIoPriorities; ++i) {
    const IoLaneStats& c = flash.stats().by_class[i];
    const IoLaneStats& b = lanes_before[static_cast<size_t>(i)];
    IoLaneStats& out = report.io_by_class[static_cast<size_t>(i)];
    out.requests.Add(c.requests.value() - b.requests.value());
    out.queue_wait_ns.Add(c.queue_wait_ns.value() - b.queue_wait_ns.value());
    out.service_ns.Add(c.service_ns.value() - b.service_ns.value());
  }
  report.io_by_tenant.AddDelta(flash.stats().by_tenant, tenants_before);
  return report;
}

namespace {

void Expect(uint64_t want, uint64_t got, const std::string& what,
            const std::string& field) {
  if (want != got) {
    Fail(what + ": " + field + " differs (" + std::to_string(want) + " vs " +
         std::to_string(got) + ")");
  }
}

void ExpectRecorder(const ssmc::LatencyRecorder& want,
                    const ssmc::LatencyRecorder& got, const std::string& what,
                    const std::string& field) {
  Expect(want.count(), got.count(), what, field + ".count");
  Expect(want.total_ns(), got.total_ns(), what, field + ".sum_ns");
  Expect(want.min_ns(), got.min_ns(), what, field + ".min_ns");
  Expect(want.max_ns(), got.max_ns(), what, field + ".max_ns");
}

void ExpectLane(const ssmc::IoLaneStats& want, const ssmc::IoLaneStats& got,
                const std::string& what, const std::string& field) {
  Expect(want.requests.value(), got.requests.value(), what,
         field + ".requests");
  Expect(want.queue_wait_ns.value(), got.queue_wait_ns.value(), what,
         field + ".queue_wait_ns");
  Expect(want.service_ns.value(), got.service_ns.value(), what,
         field + ".service_ns");
}

}  // namespace

void CheckReportsEqual(const ssmc::ReplayReport& want,
                       const ssmc::ReplayReport& got,
                       const std::string& what) {
  Expect(want.ops, got.ops, what, "ops");
  Expect(want.failures, got.failures, what, "failures");
  Expect(want.bytes_read, got.bytes_read, what, "bytes_read");
  Expect(want.bytes_written, got.bytes_written, what, "bytes_written");
  Expect(want.failed_read_bytes, got.failed_read_bytes, what,
         "failed_read_bytes");
  Expect(want.failed_write_bytes, got.failed_write_bytes, what,
         "failed_write_bytes");
  Expect(static_cast<uint64_t>(want.started),
         static_cast<uint64_t>(got.started), what, "started");
  Expect(static_cast<uint64_t>(want.elapsed()),
         static_cast<uint64_t>(got.elapsed()), what, "sim elapsed");
  ExpectRecorder(want.all_ops, got.all_ops, what, "all_ops");
  for (size_t i = 0; i < want.per_op.size(); ++i) {
    ExpectRecorder(
        want.per_op[i], got.per_op[i], what,
        std::string(ssmc::TraceOpName(static_cast<ssmc::TraceOp>(i))));
  }
  if (want.by_tenant.entries().size() != got.by_tenant.entries().size()) {
    Fail(what + ": tenant sets differ");
  }
  for (const auto& e : want.by_tenant.entries()) {
    const ssmc::TenantLatency* other = got.by_tenant.Find(e.tenant);
    if (other == nullptr) {
      Fail(what + ": tenant " + std::to_string(e.tenant) + " missing");
    }
    const std::string t = "tenant" + std::to_string(e.tenant);
    ExpectRecorder(e.value.reads, other->reads, what, t + ".reads");
    ExpectRecorder(e.value.writes, other->writes, what, t + ".writes");
  }
  for (size_t i = 0; i < want.io_by_class.size(); ++i) {
    ExpectLane(want.io_by_class[i], got.io_by_class[i], what,
               "io_class" + std::to_string(i));
  }
  for (const auto& e : want.io_by_tenant.entries()) {
    const ssmc::IoLaneStats* other = got.io_by_tenant.Find(e.tenant);
    ExpectLane(e.value, other != nullptr ? *other : ssmc::IoLaneStats{}, what,
               "io_tenant" + std::to_string(e.tenant));
  }
  Expect(want.io_by_tenant.entries().size(), got.io_by_tenant.entries().size(),
         what, "io tenant count");
  Expect(want.tier_dram_read_bytes, got.tier_dram_read_bytes, what,
         "tier_dram_read_bytes");
  Expect(want.tier_nvm_read_bytes, got.tier_nvm_read_bytes, what,
         "tier_nvm_read_bytes");
  Expect(want.tier_flash_read_bytes, got.tier_flash_read_bytes, what,
         "tier_flash_read_bytes");
}

}  // namespace perfbench
