#include "core/index.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "exec/pool.hpp"

namespace iotls::core {

namespace {

/// Each table's row and id columns in an EventIds, in DatasetIndex::Table
/// order.
struct Relation {
  std::uint32_t EventIds::*row;
  std::uint32_t EventIds::*id;
};
constexpr Relation kRelations[] = {
    {&EventIds::fp, &EventIds::vendor},      // fp_vendors
    {&EventIds::fp, &EventIds::device},      // fp_devices
    {&EventIds::fp, &EventIds::sni},         // fp_snis
    {&EventIds::vendor, &EventIds::fp},      // vendor_fps
    {&EventIds::device, &EventIds::fp},      // device_fps
    {&EventIds::sni, &EventIds::device},     // sni_devices
    {&EventIds::sni, &EventIds::vendor},     // sni_vendors
    {&EventIds::sni, &EventIds::fp},         // sni_fps
    {&EventIds::sni, &EventIds::user},       // sni_users
};

}  // namespace

void DatasetIndex::reserve(std::size_t expected_devices,
                           std::size_t expected_events) {
  devices_.reserve(expected_devices);
  device_vendor_.reserve(expected_devices);
  device_type_.reserve(expected_devices);
  tables_[kDeviceFps].rows.reserve(expected_devices);
  // Fingerprint/SNI universes are far smaller than the event stream, and
  // users far fewer than devices; a fraction of the events avoids
  // rehashing without overcommitting.
  std::size_t hint = expected_events / 8 + 16;
  fps_.reserve(hint);
  snis_.reserve(hint);
  users_.reserve(std::min(hint, expected_devices));
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

void DatasetIndex::record(const std::vector<EventIds>& events, int jobs) {
  static_assert(std::size(kRelations) == kTables);
  exec::parallel_for(jobs, kTables, [&](std::size_t t) {
    const Relation rel = kRelations[t];
    PostingTable& table = tables_[t];
    for (const EventIds& ev : events) {
      append_posting(table.rows, table.dirty, ev.*rel.row, ev.*rel.id);
    }
  });
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

void DatasetIndex::update_vendor_bits() {
  // Growth of the fingerprint universe resizes every bitset, so those are
  // refilled from their whole row (bounded by vendors x fingerprints, not
  // by events); otherwise a vendor takes its dirty row's new tail.
  const std::vector<PostingList>& vendor_fps = tables_[kVendorFps].rows;
  const DirtyRows& dirty = tables_[kVendorFps].dirty;
  vendor_fp_bits_.resize(vendors_.size());
  for (std::uint32_t v = 0; v < vendor_fp_bits_.size(); ++v) {
    Bitset& bits = vendor_fp_bits_[v];
    if (bits.size() == fps_.size()) continue;
    bits = Bitset(fps_.size());
    if (v < vendor_fps.size()) {
      for (std::uint32_t f : vendor_fps[v]) bits.set(f);
    }
  }
  for (std::size_t i = 0; i < dirty.rows.size(); ++i) {
    std::uint32_t v = dirty.rows[i];
    const PostingList& list = vendor_fps[v];
    for (std::size_t j = dirty.sorted[i]; j < list.size(); ++j) {
      vendor_fp_bits_[v].set(list[j]);
    }
  }
}

void DatasetIndex::finalize(int jobs) {
  // Delta merge of every relation (see merge_dirty_rows): rows not
  // appended to since the last finalize are untouched. The permutations
  // come first, as the longest tasks.
  ByName* const by_name[] = {&devices_by_name_, &fps_by_key_, &snis_by_name_,
                             &vendors_by_name_};
  const Interner* const names[] = {&devices_, &fps_, &snis_, &vendors_};
  constexpr std::size_t kPermutations = std::size(by_name);
  exec::parallel_for(jobs, kPermutations + kTables, [&](std::size_t task) {
    if (task < kPermutations) {
      by_name[task]->extend(*names[task]);
      return;
    }
    const auto t = static_cast<Table>(task - kPermutations);
    if (t == kVendorFps) update_vendor_bits();
    merge_dirty_rows(tables_[t].rows, tables_[t].dirty);
  });
}

}  // namespace iotls::core
