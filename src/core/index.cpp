#include "core/index.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace iotls::core {

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
  append_posting(fp_vendors_, dirty_fp_vendors_, fp, d.vendor);
  append_posting(fp_devices_, dirty_fp_devices_, fp, d.device);
  append_posting(fp_snis_, dirty_fp_snis_, fp, sni);
  append_posting(vendor_fps_, dirty_vendor_fps_, d.vendor, fp);
  append_posting(device_fps_, dirty_device_fps_, d.device, fp);
  append_posting(sni_devices_, dirty_sni_devices_, sni, d.device);
  append_posting(sni_vendors_, dirty_sni_vendors_, sni, d.vendor);
  append_posting(sni_fps_, dirty_sni_fps_, sni, fp);
  append_posting(sni_users_, dirty_sni_users_, sni, d.user);
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

  // Delta merge of every relation (see merge_dirty_rows): rows not
  // appended to since the last finalize are untouched.
  merge_dirty_rows(fp_vendors_, dirty_fp_vendors_);
  merge_dirty_rows(fp_devices_, dirty_fp_devices_);
  merge_dirty_rows(fp_snis_, dirty_fp_snis_);
  merge_dirty_rows(vendor_fps_, dirty_vendor_fps_);
  merge_dirty_rows(device_fps_, dirty_device_fps_);
  merge_dirty_rows(sni_devices_, dirty_sni_devices_);
  merge_dirty_rows(sni_vendors_, dirty_sni_vendors_);
  merge_dirty_rows(sni_fps_, dirty_sni_fps_);
  merge_dirty_rows(sni_users_, dirty_sni_users_);

  vendors_by_name_.extend(vendors_);
  devices_by_name_.extend(devices_);
  snis_by_name_.extend(snis_);
  fps_by_key_.extend(fps_);
}

}  // namespace iotls::core
