// Sparse per-index column for per-sector and per-page device state.
//
// A machine's flash card has thousands of erase sectors and tens of
// thousands of pages, but a short workload touches a handful of them. A
// PagedColumn keeps its elements in fixed leaves of 2^kLeafShift
// value-initialised elements, allocated the first time an index inside the
// leaf is touched, so building and destroying a column does no work per
// index. Untouched indices read as absent (Find) or as a value-initialised
// T (Get).
//
// Element access costs one load more than a flat vector (the leaf pointer,
// from a table of at most size / 2^kLeafShift entries that stays cached).
// Leaves never move, so references stay valid for the column's lifetime.

#ifndef SSMC_SRC_SUPPORT_PAGED_COLUMN_H_
#define SSMC_SRC_SUPPORT_PAGED_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ssmc {

template <typename T, int kLeafShift = 8>
class PagedColumn {
 public:
  static constexpr uint64_t kLeafSize = uint64_t{1} << kLeafShift;

  // Element `i`, which must have been touched.
  T& operator[](uint64_t i) {
    assert(Find(i) != nullptr && "index was never touched");
    return leaves_[i >> kLeafShift][i & (kLeafSize - 1)];
  }
  const T& operator[](uint64_t i) const {
    assert(Find(i) != nullptr && "index was never touched");
    return leaves_[i >> kLeafShift][i & (kLeafSize - 1)];
  }

  // Element `i`, or null when its leaf was never touched.
  const T* Find(uint64_t i) const {
    const uint64_t leaf = i >> kLeafShift;
    return leaf < leaves_.size() && leaves_[leaf] != nullptr
               ? &leaves_[leaf][i & (kLeafSize - 1)]
               : nullptr;
  }
  T* Find(uint64_t i) {
    return const_cast<T*>(std::as_const(*this).Find(i));
  }

  // A copy of element `i`; T{} when it was never touched.
  T Get(uint64_t i) const {
    const T* p = Find(i);
    return p != nullptr ? *p : T{};
  }

  // Element `i`, allocating its leaf on first touch.
  T& Touch(uint64_t i) {
    const uint64_t leaf = i >> kLeafShift;
    if (leaf >= leaves_.size() || leaves_[leaf] == nullptr) [[unlikely]] {
      AddLeaf(leaf);
    }
    return leaves_[leaf][i & (kLeafSize - 1)];
  }

 private:
  [[gnu::noinline]] void AddLeaf(uint64_t leaf) {
    if (leaf >= leaves_.size()) {
      leaves_.resize(leaf + 1);
    }
    leaves_[leaf] = std::make_unique<T[]>(kLeafSize);
  }

  std::vector<std::unique_ptr<T[]>> leaves_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SUPPORT_PAGED_COLUMN_H_
