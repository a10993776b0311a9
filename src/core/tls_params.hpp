// App. B.3–B.10: TLS parameter analyses — versions, SCSVs, vulnerable-suite
// ordering, preferred algorithms, OCSP and GREASE usage.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "tls/ciphersuite.hpp"

namespace iotls::core {

/// Unique {device, ciphersuite list} tuples, keyed "device|s1,s2,...," (the
/// order rows come out in), each with its first event.
std::map<std::string, const ParsedEvent*> device_list_tuples(const ClientDataset& ds);

/// Table 12: proposals per TLS version (unique {device, fingerprint} pairs).
struct VersionReport {
  std::map<std::uint16_t, std::size_t> proposals;  // version code -> count
  std::size_t multi_version_devices = 0;           // devices proposing > 1 version
  std::set<std::string> ssl30_devices;
  std::map<std::string, std::size_t> ssl30_by_vendor;
  std::size_t ssl30_proposals = 0;                 // SSL 3.0 events
};

VersionReport version_report(const ClientDataset& ds);

/// B.3.1: devices proposing TLS_FALLBACK_SCSV.
struct FallbackScsvReport {
  std::set<std::string> devices;
  std::set<std::string> vendors;
};
FallbackScsvReport fallback_scsv_report(const ClientDataset& ds);

/// Fig. 11: the lowest (most preferred) index at which a vulnerable suite
/// appears, per unique {device, ciphersuite list}, grouped by vendor.
struct VulnIndexStats {
  std::string vendor;
  std::size_t tuples = 0;            // unique {device, list} tuples
  std::size_t with_vulnerable = 0;   // tuples containing a vulnerable suite
  std::size_t vulnerable_first = 0;  // tuples whose index-0 suite is vulnerable
  double mean_lowest_index = 0;      // over tuples with a vulnerable suite
  int min_lowest_index = -1;
};

std::vector<VulnIndexStats> vulnerable_index_stats(const ClientDataset& ds);

/// Fig. 12: component algorithms of the most-preferred (first) suite, per
/// vendor: component name -> fraction of tuples preferring it.
struct PreferredComponents {
  std::string vendor;
  std::size_t tuples = 0;
  std::map<std::string, double> kex_ratio;
  std::map<std::string, double> cipher_ratio;
  std::map<std::string, double> mac_ratio;
};

std::vector<PreferredComponents> preferred_components(const ClientDataset& ds);

/// Fig. 9: per-vendor inclusion of vulnerable components, counted over
/// unique {device, ciphersuite list} tuples.
struct VulnFlowRow {
  std::string vendor;
  std::map<std::string, std::size_t> tag_tuples;  // "3DES" -> #tuples
  std::size_t total_tuples = 0;
};
std::vector<VulnFlowRow> vulnerability_flows(const ClientDataset& ds);

/// B.9: OCSP status_request usage.
struct OcspReport {
  std::set<std::string> devices;  // devices sending status_request at least once
  std::set<std::string> vendors;
};
OcspReport ocsp_report(const ClientDataset& ds);

/// B.10: GREASE usage in suites and extensions.
struct GreaseReport {
  std::set<std::string> suite_devices;
  std::set<std::string> suite_vendors;
  std::set<std::string> extension_devices;
  std::set<std::string> extension_vendors;
  std::set<std::string> extension_only_devices;  // GREASE ext but never suites
};
GreaseReport grease_report(const ClientDataset& ds);

}  // namespace iotls::core
