#include "core/longitudinal.hpp"

#include <algorithm>
#include <cmath>

namespace iotls::core {

LongitudinalReport longitudinal_analysis(const ClientDataset& ds,
                                         std::int64_t start, std::int64_t end) {
  const DatasetIndex& ix = ds.index();
  LongitudinalReport report;
  const std::int64_t midpoint = start + (end - start) / 2;

  // Per device: fingerprints by half, plus per-fingerprint SNI sets so a
  // "replacement" means a *successor for the same role* — the new
  // fingerprint talks to servers the vanished one talked to. Without the
  // overlap requirement, rare one-off stacks that happen to land in a
  // single half masquerade as updates.
  std::map<std::string, std::pair<std::set<std::string>, std::set<std::string>>> halves;
  std::map<std::string, std::map<std::string, std::set<std::string>>> device_fp_snis;
  for (const ParsedEvent& e : ds.events()) {
    if (e.day < start || e.day > end) continue;
    const std::string& device = ix.devices().str(e.device);
    const std::string& fp = ix.fps().str(e.fp);
    auto& [early, late] = halves[device];
    (e.day < midpoint ? early : late).insert(fp);
    device_fp_snis[device][fp].insert(ix.snis().str(e.sni));
  }
  for (const auto& [device, sets] : halves) {
    const auto& [early, late] = sets;
    if (early.empty() || late.empty()) continue;  // not observed in both halves
    DeviceTimeline timeline;
    timeline.device_id = device;
    timeline.vendor = ix.vendors().str(ix.device_vendor(ix.devices().find(device)));
    timeline.observed_in_both_halves = true;
    ++report.devices_observed_both_halves;
    for (const std::string& fp : early) {
      if (late.count(fp) == 0) timeline.early_only.insert(fp);
    }
    for (const std::string& fp : late) {
      if (early.count(fp) == 0) timeline.late_only.insert(fp);
    }

    // Successor check: some vanished fingerprint and some new fingerprint
    // share at least one SNI on this device.
    const auto& fp_snis = device_fp_snis[device];
    for (const std::string& gone : timeline.early_only) {
      for (const std::string& fresh : timeline.late_only) {
        for (const std::string& sni : fp_snis.at(gone)) {
          if (fp_snis.at(fresh).count(sni) > 0) timeline.successor_found = true;
        }
      }
    }
    if (timeline.stack_replaced()) {
      ++report.devices_with_replacement;
      ++report.replacements_by_vendor[timeline.vendor];
    }
    report.timelines.push_back(std::move(timeline));
  }

  // Monthly version mix.
  std::map<std::int64_t, std::map<std::uint16_t, std::size_t>> months;
  for (const ParsedEvent& e : ds.events()) {
    if (e.day < start || e.day > end) continue;
    std::int64_t month = start + ((e.day - start) / 30) * 30;
    ++months[month][ix.fp_value(e.fp).version];
  }
  double prev_tls12 = -1;
  for (const auto& [month, versions] : months) {
    MonthlyVersionShare share;
    share.month_start = month;
    for (const auto& [version, count] : versions) share.events += count;
    if (share.events == 0) continue;
    for (const auto& [version, count] : versions) {
      share.share[version] =
          static_cast<double>(count) / static_cast<double>(share.events);
    }
    double tls12 = share.share.count(0x0303) ? share.share.at(0x0303) : 0;
    if (prev_tls12 >= 0) {
      report.max_monthly_tls12_swing =
          std::max(report.max_monthly_tls12_swing, std::abs(tls12 - prev_tls12));
    }
    prev_tls12 = tls12;
    report.monthly_versions.push_back(std::move(share));
  }
  return report;
}

}  // namespace iotls::core
