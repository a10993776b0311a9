// §4.3: customization across devices within a vendor — DoC, DoC_device,
// Table 3 heterogeneity, and the Amazon per-type clustering (Figs. 3/4).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.hpp"

namespace iotls::core {

/// DoC of one device: fingerprints solely used by this device *within its
/// vendor* / fingerprints used by this device.
std::map<std::string, double> doc_per_device(const ClientDataset& ds);

/// DoC_device of a vendor: mean DoC over its devices (Fig. 2 blue line).
std::map<std::string, double> doc_device_per_vendor(const ClientDataset& ds);

/// Table 3 row: per-vendor heterogeneity of fingerprints across devices.
struct VendorHeterogeneity {
  std::string vendor;
  std::size_t fingerprints = 0;
  double shared_by_10plus = 0;  // fraction of fps used by >= 10 devices
  double single_device = 0;     // fraction of fps used by exactly 1 device
};

/// Rows for the top `n` vendors by fingerprint count, descending.
std::vector<VendorHeterogeneity> vendor_heterogeneity_top(const ClientDataset& ds,
                                                          std::size_t n);

/// Fig. 3: fingerprints per device type within one vendor.
struct TypeClusterStats {
  std::string vendor;
  std::map<std::string, std::set<std::string>> type_fps;  // type -> fp keys
  std::size_t exclusive_to_one_type = 0;  // fps seen from exactly one type
  std::size_t shared_across_types = 0;
};

TypeClusterStats type_clusters(const ClientDataset& ds, const std::string& vendor);

/// Fig. 4: device–fingerprint clusters within one device type.
struct DeviceClusterStats {
  std::string vendor;
  std::string type;
  std::size_t devices = 0;
  std::size_t fingerprints = 0;
  std::size_t single_device_fps = 0;  // fps used by exactly one device
};

DeviceClusterStats device_clusters(const ClientDataset& ds,
                                   const std::string& vendor,
                                   const std::string& type_substring);

}  // namespace iotls::core
