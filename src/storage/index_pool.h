// Free-index pool behind the storage manager's page and block allocators.
//
// Section 3.3's "list of free flash memory sectors and a list of free DRAM
// pages", kept so that building one does no per-index work: two zeroed
// bitsets and an untouched reservation instead of an n-entry stack filled
// with n-1..0. The pool hands out indices in a fixed order:
//  * indices returned by Put come back first, last returned first (LIFO);
//  * otherwise the lowest never-taken index, skipping any claimed ahead.
// That is exactly the order of a stack preloaded with n-1..0 that pops from
// the top, pushes frees on top, and erases claimed entries in place.
//
// Callers check preconditions (range, used()) and map failures to their own
// typed errors.

#ifndef SSMC_SRC_STORAGE_INDEX_POOL_H_
#define SSMC_SRC_STORAGE_INDEX_POOL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace ssmc {

class IndexPool {
 public:
  explicit IndexPool(uint64_t n) : n_(n), used_(n), ahead_(n) {
    // Allocated, not touched: puts never reallocate, and a machine's
    // teardown puts back every page its write buffer still holds.
    returned_.reserve(n);
  }

  uint64_t size() const { return n_; }
  uint64_t free_count() const {
    return returned_.size() + (n_ - mark_ - claimed_ahead_);
  }
  bool used(uint64_t i) const { return used_[i]; }

  // The next free index in pool order, or nullopt when none is left.
  std::optional<uint64_t> Take() {
    if (!returned_.empty()) {
      const uint64_t i = returned_.back();
      returned_.pop_back();
      used_[i] = true;
      return i;
    }
    while (mark_ < n_ && ahead_[mark_]) {
      claimed_ahead_ -= 1;
      mark_ += 1;
    }
    if (mark_ == n_) {
      return std::nullopt;
    }
    used_[mark_] = true;
    return mark_++;
  }

  // Returns a used index to the pool.
  void Put(uint64_t i) {
    assert(used_[i]);
    used_[i] = false;
    returned_.push_back(i);
  }

  // Takes the specific free index `i` out of the pool: O(1) for a
  // never-taken index, a scan of the returned stack for one that was put.
  void Claim(uint64_t i) {
    assert(!used_[i]);
    if (i >= mark_ && !ahead_[i]) {
      // Never taken. The bit stays set once the mark passes it or the index
      // is put back, so the mark never hands it out a second time.
      ahead_[i] = true;
      claimed_ahead_ += 1;
    } else {
      auto it = std::find(returned_.begin(), returned_.end(), i);
      assert(it != returned_.end());
      returned_.erase(it);
    }
    used_[i] = true;
  }

 private:
  uint64_t n_;
  uint64_t mark_ = 0;           // Indices >= mark_ not in ahead_ never left.
  uint64_t claimed_ahead_ = 0;  // Set ahead_ bits at indices >= mark_.
  std::vector<uint64_t> returned_;  // Put indices, LIFO.
  std::vector<bool> used_;
  std::vector<bool> ahead_;  // Left the never-taken range via Claim.
};

}  // namespace ssmc

#endif  // SSMC_SRC_STORAGE_INDEX_POOL_H_
