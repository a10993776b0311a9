#include "core/device_metrics.hpp"

#include <algorithm>

namespace iotls::core {

namespace {

/// Per-vendor device counts for each fingerprint: counts[v][f] = number of
/// vendor v's devices proposing fingerprint f. Rows allocate lazily (only
/// vendors that appear pay for a fingerprint-domain row).
std::vector<std::vector<std::uint32_t>> vendor_fp_devcount(const DatasetIndex& ix) {
  std::vector<std::vector<std::uint32_t>> counts(ix.vendors().size());
  for (std::uint32_t d = 0; d < ix.device_fps().size(); ++d) {
    std::vector<std::uint32_t>& row = counts[ix.device_vendor(d)];
    if (row.empty()) row.resize(ix.fps().size());
    for (std::uint32_t f : ix.device_fps()[d]) ++row[f];
  }
  return counts;
}

/// DoC per device, indexed by dense device id.
std::vector<double> doc_by_device(const DatasetIndex& ix) {
  auto counts = vendor_fp_devcount(ix);
  std::vector<double> out(ix.devices().size(), 0.0);
  for (std::uint32_t d = 0; d < ix.device_fps().size(); ++d) {
    const PostingList& fps = ix.device_fps()[d];
    if (fps.empty()) continue;
    const std::vector<std::uint32_t>& row = counts[ix.device_vendor(d)];
    std::size_t solo = 0;
    for (std::uint32_t f : fps) {
      if (row[f] == 1) ++solo;
    }
    out[d] = static_cast<double>(solo) / static_cast<double>(fps.size());
  }
  return out;
}

}  // namespace

std::map<std::string, double> doc_per_device(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  std::vector<double> doc = doc_by_device(ix);
  std::map<std::string, double> out;
  for (std::uint32_t d = 0; d < doc.size(); ++d) out[ix.devices().str(d)] = doc[d];
  return out;
}

std::map<std::string, double> doc_device_per_vendor(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  std::vector<double> doc = doc_by_device(ix);
  std::vector<double> sums(ix.vendors().size(), 0.0);
  std::vector<std::size_t> counts(ix.vendors().size(), 0);
  // Accumulate in lexicographic device order — the seed summed doubles in
  // std::map iteration order, and float addition is order-sensitive.
  for (std::uint32_t d : ix.devices_by_name()) {
    sums[ix.device_vendor(d)] += doc[d];
    ++counts[ix.device_vendor(d)];
  }
  std::map<std::string, double> out;
  for (std::uint32_t v = 0; v < sums.size(); ++v) {
    if (counts[v] == 0) continue;
    out[ix.vendors().str(v)] = sums[v] / static_cast<double>(counts[v]);
  }
  return out;
}

std::vector<VendorHeterogeneity> vendor_heterogeneity_top(const ClientDataset& ds,
                                                          std::size_t n) {
  const DatasetIndex& ix = ds.index();
  auto counts = vendor_fp_devcount(ix);

  std::vector<VendorHeterogeneity> rows;
  rows.reserve(ix.vendors().size());
  // Lexicographic vendor order matches the seed's map walk; the unstable
  // sort below then sees the same input sequence.
  for (std::uint32_t v : ix.vendors_by_name()) {
    VendorHeterogeneity row;
    row.vendor = ix.vendors().str(v);
    row.fingerprints = ix.vendor_fps()[v].size();
    std::size_t ten_plus = 0, single = 0;
    for (std::uint32_t f : ix.vendor_fps()[v]) {
      std::uint32_t devices = counts[v][f];
      if (devices >= 10) ++ten_plus;
      if (devices == 1) ++single;
    }
    row.shared_by_10plus =
        row.fingerprints ? static_cast<double>(ten_plus) / row.fingerprints : 0;
    row.single_device =
        row.fingerprints ? static_cast<double>(single) / row.fingerprints : 0;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const VendorHeterogeneity& a, const VendorHeterogeneity& b) {
              return a.fingerprints > b.fingerprints;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

TypeClusterStats type_clusters(const ClientDataset& ds, const std::string& vendor) {
  const DatasetIndex& ix = ds.index();
  TypeClusterStats stats;
  stats.vendor = vendor;
  std::uint32_t v = ix.vendors().find(vendor);
  if (v == Interner::kNone) return stats;
  std::map<std::uint32_t, std::set<std::uint32_t>> fp_types;  // fp -> types
  for (const ParsedEvent& e : ds.events()) {
    if (e.vendor != v) continue;
    stats.type_fps[ix.types().str(e.type)].insert(ix.fps().str(e.fp));
    fp_types[e.fp].insert(e.type);
  }
  for (const auto& [key, types] : fp_types) {
    if (types.size() == 1) ++stats.exclusive_to_one_type;
    else ++stats.shared_across_types;
  }
  return stats;
}

DeviceClusterStats device_clusters(const ClientDataset& ds,
                                   const std::string& vendor,
                                   const std::string& type_substring) {
  const DatasetIndex& ix = ds.index();
  DeviceClusterStats stats;
  stats.vendor = vendor;
  stats.type = type_substring;
  std::uint32_t v = ix.vendors().find(vendor);
  if (v == Interner::kNone) return stats;
  std::set<std::uint32_t> devices;
  std::map<std::uint32_t, std::set<std::uint32_t>> fp_devs;
  for (const ParsedEvent& e : ds.events()) {
    if (e.vendor != v) continue;
    if (ix.types().str(e.type).find(type_substring) == std::string::npos) continue;
    devices.insert(e.device);
    fp_devs[e.fp].insert(e.device);
  }
  stats.devices = devices.size();
  stats.fingerprints = fp_devs.size();
  for (const auto& [key, devs] : fp_devs) {
    if (devs.size() == 1) ++stats.single_device_fps;
  }
  return stats;
}

}  // namespace iotls::core
