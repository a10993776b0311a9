#include "core/index.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace iotls::core {

void DatasetIndex::DirtyRows::note(std::uint32_t row, std::size_t sorted_len) {
  if (row >= noted.size()) noted.resize(row + 1, 0);
  if (noted[row]) return;
  noted[row] = 1;
  rows.push_back(row);
  sorted.push_back(static_cast<std::uint32_t>(sorted_len));
}

void DatasetIndex::DirtyRows::clear() {
  for (std::uint32_t row : rows) noted[row] = 0;
  rows.clear();
  sorted.clear();
}

/// Append to a posting list, skipping the (very common) case of consecutive
/// duplicates; full dedup happens in finalize(). `row` may be first-seen.
void DatasetIndex::append(std::vector<PostingList>& lists, DirtyRows& dirty,
                          std::uint32_t row, std::uint32_t id) {
  if (row >= lists.size()) lists.resize(row + 1);
  PostingList& list = lists[row];
  if (!list.empty() && list.back() == id) return;
  dirty.note(row, list.size());
  list.push_back(id);
}

void DatasetIndex::reserve(std::size_t expected_devices,
                           std::size_t expected_events) {
  devices_.reserve(expected_devices);
  device_vendor_.reserve(expected_devices);
  device_type_.reserve(expected_devices);
  device_fps_.reserve(expected_devices);
  // Fingerprint/SNI universes are far smaller than the event stream; a
  // sqrt-ish hint avoids rehashing without overcommitting.
  std::size_t hint = expected_events / 8 + 16;
  fps_.reserve(hint);
  snis_.reserve(hint);
}

DeviceIds DatasetIndex::intern_device(std::string_view id, std::string_view vendor,
                                      std::string_view type, std::string_view user) {
  DeviceIds ids;
  ids.vendor = vendors_.intern(vendor);
  ids.device = devices_.intern(id);
  ids.type = types_.intern(type);
  ids.user = users_.intern(user);
  if (ids.device >= device_vendor_.size()) {
    device_vendor_.resize(ids.device + 1);
    device_type_.resize(ids.device + 1);
  }
  device_vendor_[ids.device] = ids.vendor;
  device_type_[ids.device] = ids.type;
  return ids;
}

std::uint32_t DatasetIndex::intern_fp(std::string_view key,
                                      const tls::Fingerprint& fp) {
  std::uint32_t id = fps_.intern(key);
  if (id == fp_values_.size()) fp_values_.push_back(fp);
  return id;
}

void DatasetIndex::record(const DeviceIds& d, std::uint32_t sni, std::uint32_t fp) {
  append(fp_vendors_, dirty_fp_vendors_, fp, d.vendor);
  append(fp_devices_, dirty_fp_devices_, fp, d.device);
  append(fp_snis_, dirty_fp_snis_, fp, sni);
  append(vendor_fps_, dirty_vendor_fps_, d.vendor, fp);
  append(device_fps_, dirty_device_fps_, d.device, fp);
  append(sni_devices_, dirty_sni_devices_, sni, d.device);
  append(sni_vendors_, dirty_sni_vendors_, sni, d.vendor);
  append(sni_fps_, dirty_sni_fps_, sni, fp);
  append(sni_users_, dirty_sni_users_, sni, d.user);
}

void DatasetIndex::ByName::extend(const Interner& names) {
  const std::size_t old = ids.size();
  if (old == names.size()) return;
  auto head_of = [](const std::string& s) {
    unsigned char buf[16] = {};
    std::memcpy(buf, s.data(), std::min<std::size_t>(s.size(), sizeof buf));
    Head h;
    for (int i = 0; i < 8; ++i) {
      h.hi = h.hi << 8 | buf[i];
      h.lo = h.lo << 8 | buf[8 + i];
    }
    return h;
  };
  struct Entry {
    Head head;
    std::uint32_t id;
  };
  // Heads order strings exactly where they differ; on equal heads the
  // strings decide (they are unique per interner, so the order is total and
  // equals a full re-sort).
  auto less = [&names](const Entry& a, const Entry& b) {
    if (a.head != b.head) return a.head < b.head;
    return names.str(a.id) < names.str(b.id);
  };
  std::vector<Entry> fresh;
  fresh.reserve(names.size() - old);
  for (std::uint32_t id = static_cast<std::uint32_t>(old); id < names.size(); ++id) {
    fresh.push_back({head_of(names.str(id)), id});
  }
  std::sort(fresh.begin(), fresh.end(), less);

  // Merge from the back, in place.
  ids.resize(names.size());
  heads.resize(names.size());
  std::size_t p = old, k = names.size();
  for (std::size_t j = fresh.size(); j > 0;) {
    --k;
    if (p > 0 && less(fresh[j - 1], Entry{heads[p - 1], ids[p - 1]})) {
      --p;
      ids[k] = ids[p];
      heads[k] = heads[p];
    } else {
      --j;
      ids[k] = fresh[j].id;
      heads[k] = fresh[j].head;
    }
  }
}

void DatasetIndex::finalize() {
  // Vendor bitsets first, while each dirty row's new fingerprints are still
  // its unsorted tail. Growth of the fingerprint universe resizes every
  // bitset, so those are refilled from their whole row (bounded by
  // vendors x fingerprints, not by events).
  vendor_fp_bits_.resize(vendors_.size());
  for (std::uint32_t v = 0; v < vendor_fp_bits_.size(); ++v) {
    Bitset& bits = vendor_fp_bits_[v];
    if (bits.size() == fps_.size()) continue;
    bits = Bitset(fps_.size());
    if (v < vendor_fps_.size()) {
      for (std::uint32_t f : vendor_fps_[v]) bits.set(f);
    }
  }
  for (std::size_t i = 0; i < dirty_vendor_fps_.rows.size(); ++i) {
    std::uint32_t v = dirty_vendor_fps_.rows[i];
    const PostingList& list = vendor_fps_[v];
    for (std::size_t j = dirty_vendor_fps_.sorted[i]; j < list.size(); ++j) {
      vendor_fp_bits_[v].set(list[j]);
    }
  }

  // Delta merge: a dirty row is its sorted-unique prefix plus an appended
  // tail. Sort and dedup the tail, find where each new id lands in the
  // prefix (dropping ids the prefix already holds), then fill from the back,
  // shifting prefix blocks with one move each. A row costs O(tail log row)
  // compares plus the shifted elements, with no allocation per row. Rows
  // not appended to since the last finalize are untouched.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fresh;  // (id, slot)
  auto merge_dirty = [&fresh](std::vector<PostingList>& lists, DirtyRows& dirty) {
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
  };
  merge_dirty(fp_vendors_, dirty_fp_vendors_);
  merge_dirty(fp_devices_, dirty_fp_devices_);
  merge_dirty(fp_snis_, dirty_fp_snis_);
  merge_dirty(vendor_fps_, dirty_vendor_fps_);
  merge_dirty(device_fps_, dirty_device_fps_);
  merge_dirty(sni_devices_, dirty_sni_devices_);
  merge_dirty(sni_vendors_, dirty_sni_vendors_);
  merge_dirty(sni_fps_, dirty_sni_fps_);
  merge_dirty(sni_users_, dirty_sni_users_);

  vendors_by_name_.extend(vendors_);
  devices_by_name_.extend(devices_);
  snis_by_name_.extend(snis_);
  fps_by_key_.extend(fps_);
}

}  // namespace iotls::core
