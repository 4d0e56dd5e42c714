#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace ssmc {
namespace {

constexpr int32_t kEmptySlot = -1;
constexpr int32_t kTombstone = -2;

// Compaction floor: below this many dead slots the linear sweep costs more
// than the memory it returns.
constexpr size_t kCompactFloor = 64;

uint64_t HashTime(SimTime t) {
  // splitmix64 finalizer — timestamps are often multiples of large powers of
  // ten, so identity hashing would cluster badly under power-of-two masking.
  uint64_t x = static_cast<uint64_t>(t);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// --- Slot and bucket pools --------------------------------------------------

int32_t EventQueue::AllocSlot() {
  if (free_slot_ != kEmptySlot) {
    const int32_t s = free_slot_;
    free_slot_ = slots_[static_cast<size_t>(s)].next;
    return s;
  }
  slots_.emplace_back();
  return static_cast<int32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(int32_t s) {
  Slot& slot = slots_[static_cast<size_t>(s)];
  slot.fn = nullptr;
  slot.armed = false;
  ++slot.gen;  // Invalidate any EventId still pointing here.
  slot.next = free_slot_;
  free_slot_ = s;
}

int32_t EventQueue::AllocBucket(SimTime at) {
  int32_t b;
  if (free_bucket_ != kEmptySlot) {
    b = free_bucket_;
    free_bucket_ = buckets_[static_cast<size_t>(b)].next_free;
  } else {
    buckets_.emplace_back();
    b = static_cast<int32_t>(buckets_.size() - 1);
  }
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  bucket.at = at;
  bucket.head = bucket.tail = kEmptySlot;
  bucket.next_free = kEmptySlot;
  return b;
}

void EventQueue::FreeBucket(int32_t b) {
  buckets_[static_cast<size_t>(b)].next_free = free_bucket_;
  free_bucket_ = b;
}

// --- Timestamp table --------------------------------------------------------

int32_t EventQueue::FindBucket(SimTime at) const {
  if (table_.empty()) {
    return kEmptySlot;
  }
  const size_t mask = table_.size() - 1;
  size_t i = HashTime(at) & mask;
  for (;;) {
    const int32_t e = table_[i];
    if (e == kEmptySlot) {
      return kEmptySlot;
    }
    if (e != kTombstone && buckets_[static_cast<size_t>(e)].at == at) {
      return e;
    }
    i = (i + 1) & mask;
  }
}

void EventQueue::TableInsert(SimTime at, int32_t bucket) {
  // Keep load (including tombstones) under 1/2; rehashing also clears
  // tombstones.
  if (table_.empty() || (table_used_ + 1) * 2 > table_.size()) {
    Rehash(std::max<size_t>(16, table_.size() * 2));
  }
  const size_t mask = table_.size() - 1;
  size_t i = HashTime(at) & mask;
  while (table_[i] != kEmptySlot && table_[i] != kTombstone) {
    i = (i + 1) & mask;
  }
  if (table_[i] == kEmptySlot) {
    ++table_used_;
  }
  table_[i] = bucket;
  ++table_live_;
}

void EventQueue::TableErase(SimTime at) {
  const size_t mask = table_.size() - 1;
  size_t i = HashTime(at) & mask;
  for (;;) {
    const int32_t e = table_[i];
    assert(e != kEmptySlot && "erasing absent bucket time");
    if (e != kTombstone && e != kEmptySlot &&
        buckets_[static_cast<size_t>(e)].at == at) {
      table_[i] = kTombstone;
      --table_live_;
      return;
    }
    i = (i + 1) & mask;
  }
}

void EventQueue::Rehash(size_t new_slots) {
  std::vector<int32_t> old = std::move(table_);
  table_.assign(new_slots, kEmptySlot);
  table_used_ = 0;
  const size_t mask = table_.size() - 1;
  for (const int32_t e : old) {
    if (e == kEmptySlot || e == kTombstone) {
      continue;
    }
    size_t i = HashTime(buckets_[static_cast<size_t>(e)].at) & mask;
    while (table_[i] != kEmptySlot) {
      i = (i + 1) & mask;
    }
    table_[i] = e;
    ++table_used_;
  }
}

int32_t EventQueue::FindOrCreateBucket(SimTime at) {
  const int32_t found = FindBucket(at);
  if (found != kEmptySlot) {
    return found;
  }
  const int32_t b = AllocBucket(at);
  TableInsert(at, b);
  HeapPush(b);
  return b;
}

// --- Bucket heap ------------------------------------------------------------

void EventQueue::HeapPush(int32_t b) {
  heap_.push_back(b);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (buckets_[static_cast<size_t>(heap_[parent])].at <=
        buckets_[static_cast<size_t>(heap_[i])].at) {
      break;
    }
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

int32_t EventQueue::HeapPopMin() {
  const int32_t top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  size_t i = 0;
  const size_t n = heap_.size();
  for (;;) {
    const size_t l = 2 * i + 1;
    const size_t r = l + 1;
    size_t m = i;
    if (l < n && buckets_[static_cast<size_t>(heap_[l])].at <
                     buckets_[static_cast<size_t>(heap_[m])].at) {
      m = l;
    }
    if (r < n && buckets_[static_cast<size_t>(heap_[r])].at <
                     buckets_[static_cast<size_t>(heap_[m])].at) {
      m = r;
    }
    if (m == i) {
      break;
    }
    std::swap(heap_[i], heap_[m]);
    i = m;
  }
  return top;
}

// --- Public API -------------------------------------------------------------

EventQueue::EventId EventQueue::ScheduleAt(SimTime at, Callback fn) {
  assert(at >= clock_.now());
  const int32_t s = AllocSlot();
  Slot& slot = slots_[static_cast<size_t>(s)];
  slot.at = at;
  slot.fn = std::move(fn);
  slot.next = kEmptySlot;
  slot.armed = true;
  ++pending_;
  const int32_t b = FindOrCreateBucket(at);
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  if (bucket.tail == kEmptySlot) {
    bucket.head = s;
  } else {
    slots_[static_cast<size_t>(bucket.tail)].next = s;
  }
  bucket.tail = s;
  return MakeId(static_cast<uint32_t>(s), slot.gen);
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t s = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (s >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[s];
  if (slot.gen != gen || !slot.armed) {
    return false;
  }
  slot.fn = nullptr;  // Destroy now: cancellation releases captures.
  slot.armed = false;
  --pending_;
  ++cancelled_;
  CompactIfNeeded();
  return true;
}

void EventQueue::DrainBucket(int32_t b) {
  running_bucket_ = b;
  const SimTime at = buckets_[static_cast<size_t>(b)].at;
  if (at > clock_.now()) {
    clock_.AdvanceTo(at);
  }
  // Callbacks may append to this chain (same-time cascades) or cancel later
  // chain members, so re-read the head every iteration.
  for (;;) {
    Bucket& bucket = buckets_[static_cast<size_t>(b)];
    const int32_t s = bucket.head;
    if (s == kEmptySlot) {
      break;
    }
    Slot& slot = slots_[static_cast<size_t>(s)];
    bucket.head = slot.next;
    if (bucket.head == kEmptySlot) {
      bucket.tail = kEmptySlot;
    }
    if (!slot.armed) {
      --cancelled_;
      FreeSlot(s);
      continue;
    }
    Callback fn = std::move(slot.fn);
    slot.fn = nullptr;
    slot.armed = false;
    --pending_;
    FreeSlot(s);
    fn();
  }
  TableErase(at);
  FreeBucket(b);
  running_bucket_ = kEmptySlot;
}

void EventQueue::RunUntil(SimTime t) {
  while (!heap_.empty()) {
    const int32_t b = heap_.front();
    if (buckets_[static_cast<size_t>(b)].at > t) {
      break;
    }
    HeapPopMin();
    DrainBucket(b);
  }
  if (t > clock_.now()) {
    clock_.AdvanceTo(t);
  }
}

void EventQueue::RunAll() {
  while (!heap_.empty()) {
    DrainBucket(HeapPopMin());
  }
}

// --- Compaction -------------------------------------------------------------

void EventQueue::CompactIfNeeded() {
  // "More than half of all chained slots are dead": dead > live.
  if (cancelled_ > kCompactFloor && cancelled_ > pending_) {
    Compact();
  }
}

void EventQueue::Compact() {
  // The running bucket is skipped: its drain loop reclaims dead slots itself
  // and owns the chain head while callbacks run.
  size_t out = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    const int32_t b = heap_[i];
    Bucket& bucket = buckets_[static_cast<size_t>(b)];
    int32_t prev = kEmptySlot;
    int32_t s = bucket.head;
    while (s != kEmptySlot) {
      Slot& slot = slots_[static_cast<size_t>(s)];
      const int32_t next = slot.next;
      if (!slot.armed) {
        if (prev == kEmptySlot) {
          bucket.head = next;
        } else {
          slots_[static_cast<size_t>(prev)].next = next;
        }
        if (bucket.tail == s) {
          bucket.tail = prev;
        }
        --cancelled_;
        FreeSlot(s);
      } else {
        prev = s;
      }
      s = next;
    }
    if (bucket.head == kEmptySlot) {
      TableErase(bucket.at);
      FreeBucket(b);
    } else {
      heap_[out++] = b;
    }
  }
  heap_.resize(out);
  std::make_heap(heap_.begin(), heap_.end(), [this](int32_t a, int32_t b) {
    return buckets_[static_cast<size_t>(a)].at >
           buckets_[static_cast<size_t>(b)].at;
  });
}

}  // namespace ssmc
