#include "core/interner.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/resource.hpp"

namespace iotls::core {

namespace {

std::uint64_t hash_of(std::string_view s) { return std::hash<std::string_view>{}(s); }

}  // namespace

std::size_t Interner::probe(std::string_view s, std::uint64_t hash) const {
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].id != kNone &&
         !(slots_[i].tag == tag && strings_[slots_[i].id] == s)) {
    i = (i + 1) & mask;
  }
  return i;
}

void Interner::rehash(std::size_t slots) {
  slots_.assign(slots, Slot{});
  const std::size_t mask = slots - 1;
  for (std::uint32_t id = 0; id < strings_.size(); ++id) {
    const std::uint64_t hash = hash_of(strings_[id]);
    std::size_t i = hash & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = {static_cast<std::uint32_t>(hash >> 32), id};
  }
}

void Interner::reserve(std::size_t n) {
  if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
}

std::uint32_t Interner::intern(std::string_view s) {
  if (2 * (strings_.size() + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::uint64_t hash = hash_of(s);
  const std::size_t i = probe(s, hash);
  if (slots_[i].id != kNone) return slots_[i].id;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  slots_[i] = {static_cast<std::uint32_t>(hash >> 32), id};
  // High-water accounting for the dominant retained allocation (string
  // payload + slot overhead); the `mem.arena.interner.*` gauges are how a
  // scrape sees "resident memory ~ O(distinct fingerprints)".
  obs::interner_arena().allocate(s.size() + sizeof(std::string) + 2 * sizeof(Slot));
  return id;
}

std::uint32_t Interner::find(std::string_view s) const {
  if (slots_.empty()) return kNone;
  return slots_[probe(s, hash_of(s))].id;
}

std::vector<std::uint32_t> Interner::ids_by_string() const {
  std::vector<std::uint32_t> out(strings_.size());
  for (std::uint32_t i = 0; i < out.size(); ++i) out[i] = i;
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return strings_[a] < strings_[b];
  });
  return out;
}

std::size_t Bitset::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t Bitset::and_count(const Bitset& a, const Bitset& b) {
  std::size_t words = std::min(a.words_.size(), b.words_.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < words; ++i) {
    n += static_cast<std::size_t>(std::popcount(a.words_[i] & b.words_[i]));
  }
  return n;
}

void DirtyRows::clear() {
  for (std::uint32_t row : rows) noted[row] = 0;
  rows.clear();
  sorted.clear();
}

void merge_dirty_rows(std::vector<PostingList>& lists, DirtyRows& dirty) {
  // Sort and dedup the tail, find where each new id lands in the prefix
  // (dropping ids the prefix already holds), then fill from the back,
  // shifting prefix blocks with one move each.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh;  // (id, slot)
  for (std::size_t i = 0; i < dirty.rows.size(); ++i) {
    PostingList& list = lists[dirty.rows[i]];
    const std::size_t prefix = dirty.sorted[i];
    auto begin = list.begin();
    auto mid = begin + static_cast<std::ptrdiff_t>(prefix);
    std::sort(mid, list.end());
    list.erase(std::unique(mid, list.end()), list.end());
    if (prefix == 0 || list[prefix - 1] < list[prefix]) continue;
    fresh.clear();
    auto slot = begin;
    for (std::size_t j = prefix; j < list.size(); ++j) {
      slot = std::lower_bound(slot, mid, list[j]);
      if (slot == mid || *slot != list[j]) {
        fresh.emplace_back(list[j], static_cast<std::uint32_t>(slot - begin));
      }
    }
    // Every prefix element in [slot, p) sorts after the id placed there.
    list.resize(prefix + fresh.size());
    begin = list.begin();
    auto end = list.end();
    std::size_t p = prefix;
    for (std::size_t j = fresh.size(); j > 0; --j) {
      auto [id, at] = fresh[j - 1];
      end = std::move_backward(begin + at, begin + static_cast<std::ptrdiff_t>(p), end);
      *--end = id;
      p = at;
    }
  }
  dirty.clear();
}

std::set<std::string> names(const Interner& domain, const PostingList& ids) {
  std::set<std::string> out;
  for (std::uint32_t id : ids) out.insert(domain.str(id));
  return out;
}

std::size_t intersect_count(const PostingList& a, const PostingList& b) {
  const PostingList& small = a.size() <= b.size() ? a : b;
  const PostingList& large = a.size() <= b.size() ? b : a;
  // Galloping: when one list is much shorter, binary-search each of its
  // members instead of merging linearly.
  if (small.size() * 16 < large.size()) {
    std::size_t n = 0;
    auto lo = large.begin();
    for (std::uint32_t id : small) {
      lo = std::lower_bound(lo, large.end(), id);
      if (lo == large.end()) break;
      if (*lo == id) {
        ++n;
        ++lo;
      }
    }
    return n;
  }
  std::size_t n = 0, i = 0, j = 0;
  while (i < small.size() && j < large.size()) {
    if (small[i] < large[j]) ++i;
    else if (large[j] < small[i]) ++j;
    else { ++n; ++i; ++j; }
  }
  return n;
}

}  // namespace iotls::core
