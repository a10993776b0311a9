// Fleet audit: generate the crowdsourced fleet and run the paper's complete
// client-side analysis (§4) — library matching, customization metrics,
// vendor sharing, vulnerability assessment.
#include <cstdio>

#include "core/dataset.hpp"
#include "core/device_metrics.hpp"
#include "core/library_match.hpp"
#include "core/sharing.hpp"
#include "core/vendor_metrics.hpp"
#include "devicesim/fleet.hpp"
#include "util/dates.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  auto corpus = corpus::LibraryCorpus::standard();
  auto universe = devicesim::ServerUniverse::standard();
  auto fleet = devicesim::generate_fleet({}, corpus, universe);
  std::printf("fleet: %zu devices, %zu users, %zu ClientHello events\n",
              fleet.devices.size(), fleet.users.size(), fleet.events.size());

  auto ds = core::ClientDataset::from_fleet(fleet);
  const core::DatasetIndex& ix = ds.index();
  std::printf("parsed: %zu events (%zu dropped), %u distinct fingerprints, "
              "%u vendors, %u SNIs\n\n",
              ds.events().size(), ds.dropped_events(), ix.fps().size(),
              ix.vendors().size(), ix.snis().size());

  auto match = core::match_against_corpus(ds, corpus, days(2020, 8, 1));
  std::printf("library matches: %zu fingerprints (%s) against %zu libraries\n",
              match.matches.size(), fmt_percent(match.match_ratio()).c_str(),
              match.matched_libraries);

  auto degree = core::fingerprint_degree_distribution(ds);
  std::printf("vendor-unique fingerprints: %s of %zu\n",
              fmt_percent(degree.ratio1()).c_str(), degree.total);

  auto vuln = core::vulnerability_stats(ds);
  std::printf("fingerprints with vulnerable components: %zu (%s), 3DES in %zu\n",
              vuln.vulnerable_fps,
              fmt_percent(static_cast<double>(vuln.vulnerable_fps) /
                          vuln.total_fps).c_str(),
              vuln.by_tag.count("3DES") ? vuln.by_tag.at("3DES") : 0);

  auto doc = core::doc_vendor(ds);
  std::printf("vendors with DoC > 0.5: %s\n",
              fmt_percent(core::fraction_above(doc, 0.5)).c_str());

  auto ties = core::server_tied_fingerprints(ds, corpus);
  std::printf("server-tied fingerprints: %s of SNIs, %zu cross-vendor rows\n",
              fmt_percent(ties.tied_ratio()).c_str(), ties.cross_vendor_rows.size());

  std::printf("\nworst vendors by vulnerable share of their fingerprints:\n");
  auto flows = core::classify_fingerprints(ds);
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_vendor;  // vuln/total
  for (const auto& fs : flows) {
    for (std::uint32_t vendor : ix.fp_vendors()[ix.fps().find(fs.fp_key)]) {
      auto& [v, t] = per_vendor[ix.vendors().str(vendor)];
      ++t;
      if (!fs.vulnerable_tags.empty()) ++v;
    }
  }
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [vendor, counts] : per_vendor) {
    if (counts.second >= 5) {
      ranked.emplace_back(static_cast<double>(counts.first) / counts.second, vendor);
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < ranked.size() && i < 8; ++i) {
    std::printf("  %-18s %s vulnerable\n", ranked[i].second.c_str(),
                fmt_percent(ranked[i].first).c_str());
  }
  return 0;
}
