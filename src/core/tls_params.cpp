#include "core/tls_params.hpp"

#include <algorithm>

#include "tls/fingerprint.hpp"
#include "tls/grease.hpp"

namespace iotls::core {

std::map<std::string, const ParsedEvent*> device_list_tuples(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  std::map<std::string, const ParsedEvent*> tuples;
  for (const ParsedEvent& e : ds.events()) {
    std::string key = ix.devices().str(e.device) + "|";
    for (std::uint16_t s : ix.fp_value(e.fp).cipher_suites) key += std::to_string(s) + ",";
    tuples.emplace(key, &e);
  }
  return tuples;
}

namespace {

/// First non-signalling suite of a proposal (B.8 excludes lists fronted by
/// TLS_EMPTY_RENEGOTIATION_INFO_SCSV).
std::optional<tls::CipherSuiteInfo> first_effective_suite(
    const std::vector<std::uint16_t>& suites) {
  if (suites.empty()) return std::nullopt;
  tls::CipherSuiteInfo info = tls::suite_info(suites.front());
  if (info.is_scsv) return std::nullopt;
  return info;
}

/// The device and vendor names of every event for which
/// `pred(event, its fingerprint)` holds.
template <typename Pred>
void devices_where(const ClientDataset& ds, Pred pred, std::set<std::string>& devices,
                   std::set<std::string>& vendors) {
  const DatasetIndex& ix = ds.index();
  for (const ParsedEvent& e : ds.events()) {
    if (!pred(e, ix.fp_value(e.fp))) continue;
    devices.insert(ix.devices().str(e.device));
    vendors.insert(ix.vendors().str(e.vendor));
  }
}

bool contains(const std::vector<std::uint16_t>& values, std::uint16_t v) {
  return std::find(values.begin(), values.end(), v) != values.end();
}

}  // namespace

VersionReport version_report(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  VersionReport report;
  std::map<std::uint32_t, std::set<std::uint16_t>> device_versions;
  std::set<std::pair<std::uint32_t, std::uint32_t>> counted;  // {device, fp}
  for (const ParsedEvent& e : ds.events()) {
    std::uint16_t version = ix.fp_value(e.fp).version;
    device_versions[e.device].insert(version);
    if (version == 0x0300) {
      report.ssl30_devices.insert(ix.devices().str(e.device));
      ++report.ssl30_proposals;
    }
    if (counted.emplace(e.device, e.fp).second) ++report.proposals[version];
  }
  for (const auto& [device, versions] : device_versions) {
    if (versions.size() > 1) ++report.multi_version_devices;
  }
  for (const std::string& device : report.ssl30_devices) {
    ++report.ssl30_by_vendor[ix.vendors().str(ix.device_vendor(ix.devices().find(device)))];
  }
  return report;
}

FallbackScsvReport fallback_scsv_report(const ClientDataset& ds) {
  FallbackScsvReport report;
  devices_where(
      ds,
      [](const ParsedEvent&, const tls::Fingerprint& fp) {
        return contains(fp.cipher_suites, tls::kFallbackScsv);
      },
      report.devices, report.vendors);
  return report;
}

std::vector<VulnIndexStats> vulnerable_index_stats(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  std::map<std::string, VulnIndexStats> by_vendor;
  for (const auto& [key, event] : device_list_tuples(ds)) {
    const std::string& vendor = ix.vendors().str(event->vendor);
    const std::vector<std::uint16_t>& suites = ix.fp_value(event->fp).cipher_suites;
    VulnIndexStats& stats = by_vendor[vendor];
    stats.vendor = vendor;
    ++stats.tuples;
    int lowest = -1;
    for (std::size_t i = 0; i < suites.size(); ++i) {
      if (tls::classify_suite(suites[i]) ==
          tls::SecurityLevel::kVulnerable) {
        lowest = static_cast<int>(i);
        break;
      }
    }
    if (lowest < 0) continue;
    ++stats.with_vulnerable;
    if (lowest == 0) ++stats.vulnerable_first;
    stats.mean_lowest_index += lowest;  // finalized below
    if (stats.min_lowest_index < 0 || lowest < stats.min_lowest_index)
      stats.min_lowest_index = lowest;
  }
  std::vector<VulnIndexStats> out;
  for (auto& [vendor, stats] : by_vendor) {
    if (stats.with_vulnerable > 0)
      stats.mean_lowest_index /= static_cast<double>(stats.with_vulnerable);
    out.push_back(std::move(stats));
  }
  std::sort(out.begin(), out.end(), [](const VulnIndexStats& a, const VulnIndexStats& b) {
    // Paper's Fig. 11 sorts by mean index ascending (worst practice first),
    // vendors with no vulnerable proposals last.
    bool a_has = a.with_vulnerable > 0, b_has = b.with_vulnerable > 0;
    if (a_has != b_has) return a_has;
    if (!a_has) return a.vendor < b.vendor;
    return a.mean_lowest_index < b.mean_lowest_index;
  });
  return out;
}

std::vector<PreferredComponents> preferred_components(const ClientDataset& ds) {
  std::map<std::string, PreferredComponents> by_vendor;
  std::map<std::string, std::map<std::string, std::size_t>> kex_counts, cipher_counts,
      mac_counts;
  const DatasetIndex& ix = ds.index();
  for (const auto& [key, event] : device_list_tuples(ds)) {
    auto first = first_effective_suite(ix.fp_value(event->fp).cipher_suites);
    if (!first.has_value()) continue;
    const std::string& vendor = ix.vendors().str(event->vendor);
    PreferredComponents& pc = by_vendor[vendor];
    pc.vendor = vendor;
    ++pc.tuples;
    ++kex_counts[vendor][tls::kex_auth_name(first->kex_auth)];
    ++cipher_counts[vendor][tls::cipher_name(first->cipher)];
    ++mac_counts[vendor][tls::mac_name(first->mac)];
  }
  std::vector<PreferredComponents> out;
  for (auto& [vendor, pc] : by_vendor) {
    auto ratio = [&](std::map<std::string, std::size_t>& counts,
                     std::map<std::string, double>& into) {
      for (const auto& [name, count] : counts) {
        into[name] = static_cast<double>(count) / static_cast<double>(pc.tuples);
      }
    };
    ratio(kex_counts[vendor], pc.kex_ratio);
    ratio(cipher_counts[vendor], pc.cipher_ratio);
    ratio(mac_counts[vendor], pc.mac_ratio);
    out.push_back(std::move(pc));
  }
  return out;
}

std::vector<VulnFlowRow> vulnerability_flows(const ClientDataset& ds) {
  const DatasetIndex& ix = ds.index();
  std::map<std::string, VulnFlowRow> by_vendor;
  for (const auto& [key, event] : device_list_tuples(ds)) {
    const std::string& vendor = ix.vendors().str(event->vendor);
    VulnFlowRow& row = by_vendor[vendor];
    row.vendor = vendor;
    ++row.total_tuples;
    for (const std::string& tag :
         tls::list_vulnerable_components(ix.fp_value(event->fp).cipher_suites)) {
      ++row.tag_tuples[tag];
    }
  }
  std::vector<VulnFlowRow> out;
  out.reserve(by_vendor.size());
  for (auto& [vendor, row] : by_vendor) out.push_back(std::move(row));
  return out;
}

OcspReport ocsp_report(const ClientDataset& ds) {
  OcspReport report;
  devices_where(
      ds,
      [](const ParsedEvent&, const tls::Fingerprint& fp) {
        return contains(fp.extensions, 5);  // status_request
      },
      report.devices, report.vendors);
  return report;
}

GreaseReport grease_report(const ClientDataset& ds) {
  GreaseReport report;
  devices_where(
      ds, [](const ParsedEvent& e, const tls::Fingerprint&) { return e.grease_suite; },
      report.suite_devices, report.suite_vendors);
  devices_where(
      ds, [](const ParsedEvent& e, const tls::Fingerprint&) { return e.grease_extension; },
      report.extension_devices, report.extension_vendors);
  for (const std::string& device : report.extension_devices) {
    if (report.suite_devices.count(device) == 0)
      report.extension_only_devices.insert(device);
  }
  return report;
}

}  // namespace iotls::core
