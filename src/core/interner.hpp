// Dense-id interning and set primitives for the §4/§5 analysis core.
//
// Every analysis in core/ joins fingerprints, vendors, devices, SNIs and
// users. The seed implementation keyed everything by std::string and paid a
// full key compare (JA3-style keys run to hundreds of bytes) on every set
// operation. The interner maps each distinct string to a dense uint32 id —
// insertion-ordered, so ids are deterministic for a deterministic input
// order — and the analyses run on sorted id posting lists and fixed-width
// bitsets instead. String views are materialized only at the report edge.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace iotls::core {

/// String <-> dense uint32 id map. Ids are assigned in first-seen order, so
/// an input processed in deterministic order (the sequential index fold)
/// yields the same ids on every run and at every --jobs level.
///
/// The map is an open-addressing table of (hash tag, id) slots, at most half
/// full, whose hits are checked against the stored string: one hash per
/// call and no node per string. It holds ids, not views, so a copy is a
/// plain member-wise copy.
class Interner {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Id of `s`, interning it if unseen.
  std::uint32_t intern(std::string_view s);

  /// Id of `s`, or kNone when it was never interned.
  std::uint32_t find(std::string_view s) const;

  /// The string behind an id (valid for the interner's lifetime; storage is
  /// reference-stable, so views handed out earlier never dangle).
  const std::string& str(std::uint32_t id) const { return strings_[id]; }

  std::uint32_t size() const { return static_cast<std::uint32_t>(strings_.size()); }
  bool empty() const { return strings_.empty(); }
  /// Size the table for `n` strings, so interning up to `n` never rehashes.
  void reserve(std::size_t n);

  /// All ids, permuted into lexicographic string order — the iteration
  /// order of the seed's std::map indexes, which report output depends on.
  std::vector<std::uint32_t> ids_by_string() const;

 private:
  struct Slot {
    std::uint32_t tag = 0;      // high half of the string's hash
    std::uint32_t id = kNone;   // kNone: empty
  };

  /// The slot holding `s`, or the empty slot where it would go.
  std::size_t probe(std::string_view s, std::uint64_t hash) const;
  /// Re-slot every id into a table of `slots` slots (a power of two).
  void rehash(std::size_t slots);

  std::deque<std::string> strings_;  // deque: stable references across growth
  std::vector<Slot> slots_;          // power-of-two size, at most half full
};

/// Fixed-width bitset over a dense id domain, sized once at finalize time.
/// Supports the one operation the Jaccard analyses need to be fast:
/// intersection cardinality via word-wise AND + popcount.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits) { resize(bits); }

  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  std::size_t size() const { return bits_; }

  /// Number of set bits.
  std::size_t count() const;

  /// |a AND b| without materializing the intersection.
  static std::size_t and_count(const Bitset& a, const Bitset& b);

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sorted-unique posting list over dense ids.
using PostingList = std::vector<std::uint32_t>;

/// The rows of a posting-list table appended to since the table was last
/// merged, each with the length of its sorted-unique prefix when it was
/// first appended to. DatasetIndex and CertIndex grow their tables with
/// append_posting() and restore sorted-unique rows with merge_dirty_rows(),
/// so a fold costs its delta, not a re-sort of history.
struct DirtyRows {
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> sorted;  // parallel to `rows`
  std::vector<std::uint8_t> noted;    // row id -> already in `rows`

  void note(std::uint32_t row, std::size_t sorted_len) {
    if (row >= noted.size()) noted.resize(row + 1, 0);
    if (noted[row]) return;
    noted[row] = 1;
    rows.push_back(row);
    sorted.push_back(static_cast<std::uint32_t>(sorted_len));
  }
  void clear();
};

/// Append `id` to row `row` of `lists`, growing the table to hold the row
/// and skipping the (very common) consecutive duplicate. The row becomes
/// dirty; full dedup happens in merge_dirty_rows(). Inline: the §4 fold
/// calls it for every relation of every event.
inline void append_posting(std::vector<PostingList>& lists, DirtyRows& dirty,
                           std::uint32_t row, std::uint32_t id) {
  if (row >= lists.size()) lists.resize(row + 1);
  PostingList& list = lists[row];
  if (!list.empty() && list.back() == id) return;
  dirty.note(row, list.size());
  list.push_back(id);
}

/// Make every dirty row sorted-unique again, then clear `dirty`. A dirty
/// row is its sorted-unique prefix plus an appended tail: the tail is sorted
/// and deduplicated and merged into the prefix from the back, so a row costs
/// O(tail log row) compares plus the shifted elements. Clean rows are not
/// touched.
void merge_dirty_rows(std::vector<PostingList>& lists, DirtyRows& dirty);

/// Unions of posting lists over one id domain, one group at a time, without
/// sorting a concatenation: add() appends a member the first time the
/// current group meets it. How a report row unions its SNIs' rows.
class UnionBuilder {
 public:
  /// Start a new group over a domain of `size` ids.
  void start(std::size_t size) {
    if (mark_.size() < size) mark_.resize(size, 0);
    ++group_;
  }
  /// Append the members of `list` new to this group to `into` (unsorted).
  void add(const PostingList& list, PostingList& into) {
    for (std::uint32_t id : list) {
      if (mark_[id] != group_) {
        mark_[id] = group_;
        into.push_back(id);
      }
    }
  }

 private:
  std::vector<std::uint32_t> mark_;  // id -> last group that took it
  std::uint32_t group_ = 0;
};

/// The strings behind `ids`, in lexicographic order: how a report prints the
/// members of a row it aggregated on ids.
std::set<std::string> names(const Interner& domain, const PostingList& ids);

/// |a ∩ b| of two sorted-unique lists (linear merge with galloping skip for
/// lopsided sizes).
std::size_t intersect_count(const PostingList& a, const PostingList& b);

}  // namespace iotls::core
