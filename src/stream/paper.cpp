// The paper's tables and figures as text, one renderer per registry entry.
// Each reads the ingest's client index, its resident CertDataset and world,
// and the standard corpus and universe; the printed "[paper: ...]" values
// are the reference numbers from the paper.
#include "stream/paper.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "acme/renewal.hpp"
#include "core/case_studies.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/device_metrics.hpp"
#include "core/issuers.hpp"
#include "core/library_match.hpp"
#include "core/longitudinal.hpp"
#include "core/semantic.hpp"
#include "core/sharing.hpp"
#include "core/tls_params.hpp"
#include "core/vendor_metrics.hpp"
#include "corpus/corpus.hpp"
#include "ct/monitor.hpp"
#include "devicesim/scenario.hpp"
#include "devicesim/vendors.hpp"
#include "net/vantage.hpp"
#include "report/chart.hpp"
#include "report/dot.hpp"
#include "report/table.hpp"
#include "tls/version.hpp"
#include "util/dates.hpp"
#include "util/strings.hpp"
#include "x509/revocation.hpp"

namespace iotls::stream::paper {

namespace {

/// printf, appended to `out`.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, args);
  out.resize(at + static_cast<std::size_t>(n));
  va_end(args);
}

/// The header every entry opens with.
std::string banner(const char* experiment, const char* description) {
  const char* rule = "==============================================================\n";
  std::string out = rule;
  appendf(out, "%s — %s\n", experiment, description);
  return out + rule;
}

const corpus::LibraryCorpus& standard_corpus() {
  static const corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  return corpus;
}

/// `part` of `whole` as a percentage; 0.00% when `whole` is 0.
std::string share(std::size_t part, std::size_t whole) {
  return fmt_percent(whole ? double(part) / whole : 0);
}

/// map.at(key), or zero when `key` is absent.
template <typename Map, typename Key>
typename Map::mapped_type at_or_zero(const Map& map, const Key& key) {
  auto it = map.find(key);
  return it == map.end() ? typename Map::mapped_type{} : it->second;
}

/// {count, name} pairs of `counts`, largest count first (name descending
/// among equal counts).
std::vector<std::pair<std::size_t, std::string>> by_count_descending(
    const std::map<std::string, std::size_t>& counts) {
  std::vector<std::pair<std::size_t, std::string>> out;
  for (const auto& [name, count] : counts) out.emplace_back(count, name);
  std::sort(out.rbegin(), out.rend());
  return out;
}

/// The first `limit` values joined by `sep`, then `sep...` if any remain.
template <typename Values>
std::string join_upto(const Values& values, std::size_t limit, const char* sep) {
  std::string out;
  std::size_t shown = 0;
  for (const auto& v : values) {
    if (shown++ == limit) {
      out += std::string(sep) + "...";
      break;
    }
    if (!out.empty()) out += sep;
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
      out += std::to_string(v);
    } else {
      out += v;
    }
  }
  return out;
}

}  // namespace

// §4.1: device fingerprints matched against the known-library corpus.
TextReport s41_library_match(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const corpus::LibraryCorpus& corpus = standard_corpus();
  std::string out = banner("S4.1", "TLS library matching against 6,891 known builds");
  appendf(out,
          "corpus: %zu builds (%zu OpenSSL, %zu wolfSSL, %zu Mbed TLS, "
          "%zu curl+OpenSSL, %zu curl+wolfSSL), %zu distinct fingerprints\n",
          corpus.size(), corpus.count_family(corpus::Family::kOpenSsl),
          corpus.count_family(corpus::Family::kWolfSsl),
          corpus.count_family(corpus::Family::kMbedTls),
          corpus.count_family(corpus::Family::kCurlOpenSsl),
          corpus.count_family(corpus::Family::kCurlWolfSsl),
          corpus.distinct_fingerprints());

  auto report = core::match_against_corpus(ingest.client(), corpus, kCaptureEnd);
  appendf(out, "device fingerprints: %zu\n", report.total_fingerprints);
  appendf(out, "matched fingerprints: %zu (%s)   [paper: 23 (2.55%%)]\n",
          report.matches.size(), fmt_percent(report.match_ratio()).c_str());
  appendf(out,
          "matched libraries: %zu, unsupported as of 2020: %zu   "
          "[paper: 16 matched, 14 unsupported]\n",
          report.matched_libraries, report.unsupported_libraries);
  for (const auto& [family, count] : report.by_family) {
    appendf(out, "  family %-14s : %zu matched fingerprints\n",
            corpus::family_name(family).c_str(), count);
  }

  report::Table table({"fingerprint (ja3 of key)", "library", "supported", "devices"});
  const core::DatasetIndex& ix = ingest.client().index();
  for (const auto& m : report.matches) {
    table.add_row({ix.fp_value(ix.fps().find(m.fp_key)).ja3(), m.library,
                   m.supported ? "yes" : "no", std::to_string(m.device_count)});
  }
  return {out + "\n" + table.render()};
}

// Fig. 1: the vendor–fingerprint bipartite graph (DOT) and Table 13.
TextReport fig01_vendor_graph(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Fig. 1", "TLS fingerprint overview by vendors (bipartite graph)");
  auto graph = core::vendor_fp_graph(ingest.client());
  std::size_t vulnerable = 0;
  for (const auto& [key, level] : graph.fp_level) {
    vulnerable += (level == tls::SecurityLevel::kVulnerable);
  }
  appendf(out, "vendor nodes: %zu, fingerprint nodes: %zu, edges: %zu\n",
          graph.vendor_index.size(), graph.fp_level.size(), graph.edges.size());
  appendf(out, "vulnerable fingerprint nodes (red): %zu\n", vulnerable);

  std::string dot = report::vendor_fp_dot(graph);
  appendf(out, "DOT written to fig01_vendor_graph.dot (%zu bytes)\n", dot.size());

  // Table 13: vendor index mapping.
  report::Table table({"Index", "Vendor", "Index", "Vendor"});
  const auto& vendors = devicesim::vendor_table();
  for (std::size_t i = 0; i < vendors.size(); i += 2) {
    std::vector<std::string> row = {std::to_string(vendors[i].index), vendors[i].name};
    if (i + 1 < vendors.size()) {
      row.push_back(std::to_string(vendors[i + 1].index));
      row.push_back(vendors[i + 1].name);
    }
    table.add_row(row);
  }
  out += "\nTable 13 vendor-index mapping:\n" + table.render();
  return {out, {{"fig01_vendor_graph.dot", std::move(dot)}}};
}

// Table 2: fingerprint degree distribution (#vendors using a fingerprint).
TextReport table02_degree(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 2", "fingerprint degree distribution across vendors");
  auto dist = core::fingerprint_degree_distribution(ingest.client());
  report::Table table({"Degree", "1", "2", "3 - 5", "> 5"});
  table.add_row({"%.Fingerprints", fmt_percent(dist.ratio1()),
                 fmt_percent(dist.ratio2()), fmt_percent(dist.ratio3to5()),
                 fmt_percent(dist.ratio_gt5())});
  table.add_row({"#.Fingerprints", std::to_string(dist.degree1),
                 std::to_string(dist.degree2), std::to_string(dist.degree3to5),
                 std::to_string(dist.degree_gt5)});
  out += table.render();
  appendf(out, "total fingerprints: %zu   [paper: 903]\n", dist.total);
  out += "paper row:       77.47%  11.43%  8.32%  2.78%\n";
  return {out};
}

// Fig. 2: CDFs of DoC_vendor and DoC_device.
TextReport fig02_doc_cdf(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Fig. 2", "degree of TLS fingerprint customization (CDFs)");
  auto doc_v = core::doc_vendor(ingest.client());
  auto doc_d = core::doc_device_per_vendor(ingest.client());
  std::vector<double> v_values, d_values;
  for (const auto& [vendor, value] : doc_v) v_values.push_back(value);
  for (const auto& [vendor, value] : doc_d) d_values.push_back(value);

  const std::vector<double> thresholds = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0};
  out += report::render_cdf("DoC_vendor", v_values, thresholds) + "\n";
  out += report::render_cdf("DoC_device", d_values, thresholds) + "\n";

  appendf(out, "vendors with >= 1 unique fingerprint: %s   [paper: >70%%]\n",
          fmt_percent(core::fraction_with_unique(doc_v)).c_str());
  appendf(out, "vendors with DoC_vendor > 0.5:        %s   [paper: ~40%%]\n",
          fmt_percent(core::fraction_above(doc_v, 0.5)).c_str());
  std::size_t at_one = 0;
  for (double v : d_values) at_one += (v >= 0.999);
  appendf(out, "vendors with DoC_device = 1:          %s   [paper: ~20%%]\n",
          share(at_one, d_values.size()).c_str());
  return {out};
}

// Table 3: fingerprint heterogeneity across devices, top 10 vendors.
TextReport table03_heterogeneity(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out =
      banner("Table 3", "fingerprint heterogeneity across devices (top 10 vendors)");
  report::Table table({"Vendor", "#.Fingerprints", "%.shared by 10+ devices",
                       "%.used by 1 device"});
  for (const auto& row : core::vendor_heterogeneity_top(ingest.client(), 10)) {
    table.add_row({row.vendor, std::to_string(row.fingerprints),
                   fmt_percent(row.shared_by_10plus), fmt_percent(row.single_device)});
  }
  out += table.render();
  out += "paper top rows: Amazon 244 / 12.30% / 68.85%; Google 172 / "
         "11.05% / 65.12%; Synology 107 / 3.74% / 67.29%\n";
  return {out};
}

// Figs. 3 & 4: Amazon fingerprints by device type (DOT), Echo clusters.
TextReport fig03_amazon(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Figs. 3/4", "Amazon fingerprints by device type / Echo clusters");
  auto clusters = core::type_clusters(ingest.client(), "Amazon");
  appendf(out, "Amazon device types: %zu\n", clusters.type_fps.size());
  appendf(out, "fingerprints exclusive to one type: %zu   [paper: 180]\n",
          clusters.exclusive_to_one_type);
  appendf(out, "fingerprints shared across types:   %zu\n\n",
          clusters.shared_across_types);

  report::Table table({"Device type", "#.Fingerprints"});
  for (const auto& [type, fps] : clusters.type_fps) {
    table.add_row({type, std::to_string(fps.size())});
  }
  out += table.render() + "\n";

  std::string dot = report::type_cluster_dot(clusters);
  appendf(out, "DOT written to fig03_amazon_types.dot (%zu bytes)\n\n", dot.size());

  auto echo = core::device_clusters(ingest.client(), "Amazon", "Echo");
  appendf(out,
          "Fig. 4 (Echo devices): %zu devices, %zu fingerprints, "
          "%zu single-device fingerprints\n",
          echo.devices, echo.fingerprints, echo.single_device_fps);
  out += "[paper: far more than the 8 fingerprints prior lab work saw]\n";
  return {out, {{"fig03_amazon_types.dot", std::move(dot)}}};
}

// Table 4: vendor tuples with Jaccard similarity >= 0.2, by bucket.
TextReport table04_jaccard(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 4", "vendor tuples with Jaccard similarity >= 0.2");
  auto pairs = core::vendor_similarities(ingest.client(), 0.2);
  report::Table table({"Jaccard bucket", "Vendor tuple", "jaccard"});
  for (const auto& bucket : core::bucket_similarities(pairs)) {
    std::string label = bucket.lo >= 1.0 ? "1"
                                         : "[" + fmt_double(bucket.lo, 1) + ", " +
                                               fmt_double(bucket.hi, 1) + ")";
    for (const auto& pair : bucket.pairs) {
      table.add_row({label, "{" + pair.vendor_a + ", " + pair.vendor_b + "}",
                     fmt_double(pair.jaccard, 3)});
    }
  }
  out += table.render();
  out += "\npaper rows include: {HDHomeRun,SiliconDust}=1, {Sharp,TCL} in "
         "[0.7,1), {Arlo,NETGEAR} in [0.4,0.7), {Onkyo,Pioneer}, "
         "{Denon,Marantz}, {Synology,Western Digital}, {Nvidia,Xiaomi}...\n";
  return {out};
}

// Table 5: server-tied fingerprints shared across vendors.
TextReport table05_server_fp(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 5", "server-tied fingerprints across vendors");
  core::ServerTieReport report = ingest.server_ties();
  appendf(out,
          "SNIs tied to a server-specific fingerprint: %zu / %zu (%s)"
          "   [paper: 17.42%%]\n",
          report.tied_snis, report.total_snis, fmt_percent(report.tied_ratio()).c_str());
  appendf(out, "cross-vendor {SLD, fingerprint} rows: %zu   [paper: 37 SNIs]\n\n",
          report.cross_vendor_rows.size());

  report::Table table({"Second-level domain", "#.FQDNs", "Vulnerability",
                       "#.Visiting devices", "Device vendors"});
  for (const auto& row : report.cross_vendor_rows) {
    table.add_row({row.sld, std::to_string(row.fqdns.size()),
                   row.vulnerable_tags.empty() ? "-" : join(row.vulnerable_tags, ","),
                   std::to_string(row.devices.size()),
                   join_upto(row.vendors, SIZE_MAX, ",")});
  }
  return {out + table.render()};
}

// Table 6 + §5.1: the server certificate dataset and certificate sharing.
TextReport table06_cert_summary(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const core::CertDataset& certs = *ingest.certs();
  report::Table table({"metric", "measured", "paper"});
  auto row = [&](const char* metric, std::string measured, const char* paper) {
    table.add_row({metric, std::move(measured), paper});
  };
  auto sharing = certs.sharing_stats();
  row("#.Servers (FQDNs) reachable", std::to_string(certs.reachable_snis()), "1151");
  row("#.SNIs extracted", std::to_string(certs.extracted_snis()), "1194");
  row("#.Leaf certificates", std::to_string(certs.leaves().size()), "842");
  row("#.Issuer organizations", std::to_string(certs.index().issuers().size()), "33");
  row("#.Distinct SLDs", std::to_string(certs.distinct_slds()), "357");
  row("servers per certificate (mean)", fmt_double(sharing.mean_servers_per_cert, 2), "1.72");
  row("servers per certificate (max)", std::to_string(sharing.max_servers_per_cert), "32");
  row("certs on multiple IPs", fmt_percent(sharing.multi_ip_ratio), "64.96%");
  row("IPs per multi-IP cert (mean)", fmt_double(sharing.mean_ips_per_cert, 2), "5.43");
  row("IPs per cert (max)", std::to_string(sharing.max_ips_per_cert), "93");
  return {banner("Table 6", "IoT server certificate dataset") + table.render()};
}

// Fig. 5: leaf issuers per device vendor.
TextReport fig05_issuer_matrix(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const core::CertDataset& certs = *ingest.certs();
  const auto& is_public = ingest.world().issuer_is_public;
  std::string out = banner("Fig. 5", "issuer x vendor matrix");
  auto report = core::issuer_report(certs, is_public);
  appendf(out, "issuer organizations: %zu   [paper: 33]\n", report.issuer_organizations);
  appendf(out, "private-CA leaves: %zu / %zu (%s)   [paper: 9.86%%]\n",
          report.private_leaves, report.leaves,
          fmt_percent(report.private_ratio).c_str());
  appendf(out, "DigiCert share: %s   [paper: 47.26%%]\n",
          fmt_percent(at_or_zero(report.issuer_share, "DigiCert")).c_str());
  appendf(out, "vendors meeting only public CAs: %zu   [paper: 31]\n",
          report.public_only_vendors.size());
  appendf(out, "self-signing vendors: %zu   [paper: 16]\n",
          report.self_signing_vendors.size());
  std::string only;
  for (const auto& v : report.vendor_only_vendors) only += v + " ";
  appendf(out,
          "vendors visiting ONLY vendor-signed servers: %zu (%s)  "
          "[paper: Canary, Tuya, Obihai]\n\n",
          report.vendor_only_vendors.size(), only.c_str());

  // The matrix itself: top issuers (rows) x top vendors (columns).
  auto matrix = core::issuer_matrix(certs, is_public);
  std::size_t n_issuers = std::min<std::size_t>(matrix.issuer_order.size(), 12);
  std::size_t n_vendors = std::min<std::size_t>(matrix.vendor_order.size(), 14);
  std::vector<std::string> headers = {"issuer \\ vendor"};
  for (std::size_t j = 0; j < n_vendors; ++j) {
    headers.push_back(matrix.vendor_order[j].substr(0, 7));
  }
  report::Table table(headers);
  for (std::size_t i = 0; i < n_issuers; ++i) {
    const std::string& issuer = matrix.issuer_order[i];
    std::vector<std::string> row = {
        (matrix.issuer_public[issuer] ? "[pub] " : "[prv] ") + issuer.substr(0, 20)};
    for (std::size_t j = 0; j < n_vendors; ++j) {
      const auto& column = matrix.ratio[matrix.vendor_order[j]];
      auto it = column.find(issuer);
      row.push_back(it == column.end() || it->second == 0 ? "."
                                                          : fmt_double(it->second, 2));
    }
    table.add_row(row);
  }
  return {out + table.render()};
}

// Table 7: certificate chains with validation failure.
TextReport table07_invalid_chains(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 7", "certificate chains with validation failure");
  core::ChainReport report = ingest.chains();
  appendf(out, "validated: %zu, trusted: %zu, failing: %zu\n", report.validated,
          report.trusted, report.validated - report.trusted);
  appendf(out, "private-leaf chains failing validation: %s   [paper: 45.78%%]\n\n",
          fmt_percent(report.private_leaf_failure_ratio).c_str());

  report::Table table({"Domain", "#.FQDNs", "Leaf issued by", "Status", "Chain len",
                       "#.devices", "Vendors"});
  for (const auto& row : report.failure_rows) {
    table.add_row({row.sld, std::to_string(row.fqdns), row.leaf_issuer,
                   x509::chain_status_name(row.status),
                   join_upto(row.chain_lengths, SIZE_MAX, ","),
                   std::to_string(row.devices.size()), join_upto(row.vendors, 5, ",")});
  }
  return {out + table.render()};
}

// Table 8: expired certificates.
TextReport table08_expired(StreamIngest& ingest, const devicesim::FleetDataset*) {
  core::ChainReport report = ingest.chains();
  report::Table table({"Domain", "Not after", "Issued by", "#.devices", "Vendors",
                       "expired during capture?"});
  for (const auto& row : report.expired) {
    table.add_row({row.sld, format_date(row.not_after), row.issuer,
                   std::to_string(row.devices.size()),
                   join_upto(row.vendors, SIZE_MAX, ", "),
                   row.not_after < kCaptureEnd ? "yes" : "no"});
  }
  return {banner("Table 8", "expired certificates") + table.render() +
          "\npaper: skyegloup.com 2018-07-31 Gandi (7 devices, Denon/Marantz); "
          "wink.com 2019-04-17 COMODO (11 devices, Samsung/Wink)\n"};
}

// Table 9: variance in Netflix certificate validity periods.
TextReport table09_netflix(StreamIngest& ingest, const devicesim::FleetDataset*) {
  auto rows = core::issuer_validity_variance(*ingest.certs(), ingest.world(), "Netflix");
  report::Table table({"Leaf issuer", "Leaf validity days", "Topmost issuer", "#.Cert",
                       "In CT"});
  for (const auto& row : rows) {
    table.add_row({row.leaf_issuer_cn, join_upto(row.validity_days, 8, ","),
                   row.topmost_issuer, std::to_string(row.certs),
                   row.any_in_ct ? "True" : "False"});
  }
  return {banner("Table 9", "variance in certificate validity periods by Netflix") +
          table.render() +
          "\npaper: 8150-day self-signed chain; 30,31,32,33,34,36,396-day "
          "leaves under VeriSign; all False in CT\n"};
}

// Fig. 6: validity periods and CT status by vendor.
TextReport fig06_validity(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Fig. 6", "validity periods and CT status by vendor");
  core::CtReport report = ingest.ct();
  appendf(out, "{server, leaf, vendor} tuples: %zu   [paper: 4,949]\n", report.tuples);
  appendf(out, "public leaves in CT: %zu / %zu; NOT in CT: %zu   [paper: 8 missing]\n",
          report.public_leaves_in_ct, report.public_leaves,
          report.public_not_logged.size());
  appendf(out, "private leaves in CT: %zu / %zu   [paper: 0]\n",
          report.private_leaves_in_ct, report.private_leaves);
  appendf(out, "vendor-signed leaves with validity > 5y: %s   [paper: 46.67%%]\n",
          fmt_percent(report.private_long_validity_ratio).c_str());
  appendf(out,
          "max public validity: %lld days; max private: %lld days "
          "  [paper: <1000 vs up to 36,500]\n\n",
          static_cast<long long>(report.max_public_validity),
          static_cast<long long>(report.max_private_validity));

  out += "public leaves absent from CT (the anomaly set):\n";
  for (const auto& point : report.public_not_logged) {
    appendf(out, "  %-45s issuer=%s\n", point.sni.c_str(), point.leaf_issuer.c_str());
  }

  // Per-vendor validity summary of the private/vendor-signed chains.
  std::map<std::string, std::vector<double>> private_validity;
  for (const auto& point : core::ct_points(*ingest.certs(), ingest.world())) {
    if (point.chain_class != core::ChainClass::kPublicLeafPublicRoot) {
      private_validity[point.vendor].push_back(static_cast<double>(point.validity_days));
    }
  }
  out += "\nper-vendor validity (private/vendor-signed chains):\n";
  for (const auto& [vendor, values] : private_validity) {
    out += report::render_summary(vendor, report::summarize(values));
  }
  return {out};
}

// Fig. 7 + Table 17 (§6.1): the smart-TV case study, lab pcap included.
TextReport fig07_smart_tv(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Fig. 7 / Table 17", "smart-TV case study (Amazon vs Roku)");
  auto study = core::smart_tv_study(ingest.world(), devicesim::ServerUniverse::standard(),
                                    standard_corpus(), kProbeDay);
  appendf(out,
          "lab capture: %zu pcap packets -> %zu ClientHellos -> %zu "
          "fingerprints recovered\n",
          study.pcap_packets, study.pcap_hellos, study.pcap_fingerprints);
  for (const core::SmartTvGroup* group : {&study.amazon, &study.roku}) {
    appendf(out, "\n--- %s group (%zu servers) ---\n", group->group.c_str(),
            group->servers);
    report::Table table({"Issuer", "kind", "#.certs", "in CT", "validity (days)"});
    for (const auto& pts : group->issuers) {
      auto summary = report::summarize(
          std::vector<double>(pts.validity_days.begin(), pts.validity_days.end()));
      table.add_row({pts.issuer, pts.issuer_public ? "public" : "private",
                     std::to_string(pts.total),
                     std::to_string(pts.in_ct) + "/" + std::to_string(pts.total),
                     std::to_string(static_cast<long long>(summary.min)) + ".." +
                         std::to_string(static_cast<long long>(summary.max))});
    }
    out += table.render();
    auto list = [](const std::vector<std::string>& domains) {
      std::string joined;
      for (const std::string& d : domains) joined += d + " ";
      return joined.empty() ? std::string("-") : joined;
    };
    out += "Table 17 rows:\n";
    appendf(out, "  incomplete chain : %s\n", list(group->invalid.incomplete_chain).c_str());
    appendf(out, "  untrusted root   : %s\n", list(group->invalid.untrusted_root).c_str());
    appendf(out, "  self-signed      : %s\n", list(group->invalid.self_signed).c_str());
    appendf(out, "  expired          : %s\n", list(group->invalid.expired).c_str());
  }
  out += "\npaper shape: Amazon ~400-day Amazon/DigiCert certs, all in CT; "
         "Roku mixes public CAs with ~5,000-day Roku-signed certs, none in CT\n";
  return {out};
}

// Table 10: release dates of major library versions in the corpus.
TextReport table10_releases(StreamIngest&, const devicesim::FleetDataset*) {
  // One row per (family, era prefix): earliest release and latest member.
  struct Row {
    std::int64_t first_release = 0;
    std::string last_version;
    std::int64_t last_release = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& lib : standard_corpus().entries()) {
    if (lib.family == corpus::Family::kCurlOpenSsl ||
        lib.family == corpus::Family::kCurlWolfSsl)
      continue;
    // Group by the major.minor prefix of the version string.
    const std::string& version = lib.version;
    std::size_t last_dot = version.rfind('.');
    std::string key =
        last_dot == std::string::npos ? version : version.substr(0, last_dot);
    Row& row = rows[key];
    if (row.first_release == 0 || lib.release_day < row.first_release)
      row.first_release = lib.release_day;
    if (lib.release_day >= row.last_release) {
      row.last_release = lib.release_day;
      row.last_version = lib.version;
    }
  }

  report::Table table({"Lineage", "First release", "Last minor version", "Released"});
  for (const auto& [key, row] : rows) {
    table.add_row({key, format_date(row.first_release), row.last_version,
                   format_date(row.last_release)});
  }
  return {banner("Table 10", "release dates of major library versions") +
          table.render()};
}

// Table 11: semantics-aware fingerprinting categories.
TextReport table11_semantic(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 11", "semantics-aware fingerprinting");
  auto report = core::semantic_match(ingest.client(), standard_corpus(), kCaptureEnd);
  appendf(out, "unique {device, ciphersuite list} tuples: %zu   [paper: 5,827]\n\n",
          report.total());

  report::Table table({"Category", "%Total", "#.Vendors", "%Outdated"});
  for (auto cat : {core::SemanticCategory::kExact,
                   core::SemanticCategory::kSameSetDifferentOrder,
                   core::SemanticCategory::kSameComponent,
                   core::SemanticCategory::kSimilarComponent,
                   core::SemanticCategory::kCustomization}) {
    table.add_row({core::semantic_category_name(cat),
                   share(at_or_zero(report.counts, cat), report.total()),
                   std::to_string(at_or_zero(report.vendor_counts, cat)),
                   fmt_percent(at_or_zero(report.outdated_ratio, cat))});
  }
  return {out + table.render() +
          "\npaper row: 10.69% / 0.46% / 6.42% / 35.80% / 46.63%\n"};
}

// Fig. 8: ciphersuite-list Jaccard vs the most likely library.
TextReport fig08_cs_jaccard(StreamIngest& ingest, const devicesim::FleetDataset*) {
  auto report = core::semantic_match(ingest.client(), standard_corpus(), kCaptureEnd);
  std::vector<double> same, similar;
  for (const auto& tuple : report.tuples) {
    if (tuple.category == core::SemanticCategory::kSameComponent)
      same.push_back(tuple.suite_jaccard);
    if (tuple.category == core::SemanticCategory::kSimilarComponent)
      similar.push_back(tuple.suite_jaccard);
  }
  const std::vector<double> thresholds = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  return {banner("Fig. 8", "ciphersuite-list Jaccard vs most likely library") +
          report::render_cdf("Same component", same, thresholds) + "\n" +
          report::render_cdf("Similar component", similar, thresholds) + "\n" +
          report::render_summary("same-component jaccard", report::summarize(same)) +
          report::render_summary("similar-component jaccard",
                                 report::summarize(similar))};
}

// Table 12 + App. B.3.2: TLS versions proposed.
TextReport table12_versions(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 12", "TLS versions proposed by IoT devices");
  auto report = core::version_report(ingest.client());
  report::Table table({"TLS version", "#.Proposals"});
  for (auto it = report.proposals.rbegin(); it != report.proposals.rend(); ++it) {
    table.add_row({tls::version_name(it->first), std::to_string(it->second)});
  }
  out += table.render();
  out += "\npaper: TLS 1.2 5214, TLS 1.1 18, TLS 1.0 236, SSL 3.0 31\n";
  appendf(out, "devices proposing > 1 version: %zu   [paper: 194]\n",
          report.multi_version_devices);
  appendf(out,
          "devices proposing SSL 3.0: %zu across %zu vendors "
          "(%zu proposals)   [paper: 26 devices / 6 vendors / 31]\n",
          report.ssl30_devices.size(), report.ssl30_by_vendor.size(),
          report.ssl30_proposals);
  for (const auto& [vendor, count] : report.ssl30_by_vendor) {
    appendf(out, "  %-18s %zu\n", vendor.c_str(), count);
  }
  return {out};
}

// Fig. 9 + §4.2: vulnerable ciphersuite components by vendor.
TextReport fig09_vuln_flows(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Fig. 9 / S4.2", "vulnerable ciphersuite components by vendor");
  auto stats = core::vulnerability_stats(ingest.client());
  const std::size_t des3 = at_or_zero(stats.by_tag, "3DES");
  appendf(out,
          "fingerprints with >= 1 vulnerable component: %zu / %zu (%s)"
          "   [paper: 403 (44.63%%)]\n",
          stats.vulnerable_fps, stats.total_fps,
          share(stats.vulnerable_fps, stats.total_fps).c_str());
  appendf(out, "of those, used by multiple devices: %s   [paper: 31.76%%]\n",
          share(stats.vulnerable_multi_device, stats.vulnerable_fps).c_str());
  appendf(out, "fingerprints containing 3DES: %zu (%s)   [paper: 376 (41.64%%)]\n",
          des3, share(des3, stats.total_fps).c_str());
  appendf(out,
          "ANON/EXPORT/NULL fingerprints: %zu from %zu devices of %zu vendors"
          "   [paper: 31 / 27 / 14]\n\n",
          stats.severe_fps, stats.severe_devices, stats.severe_vendors);

  auto flows = core::vulnerability_flows(ingest.client());
  std::sort(flows.begin(), flows.end(),
            [](const core::VulnFlowRow& a, const core::VulnFlowRow& b) {
              return a.total_tuples > b.total_tuples;
            });
  report::Table table(
      {"Vendor", "tuples", "3DES", "RC4", "DES", "RC2", "NULL", "EXPORT", "ANON"});
  std::size_t shown = 0;
  for (const auto& row : flows) {
    if (shown++ == 20) break;
    auto cell = [&](const char* tag) {
      auto it = row.tag_tuples.find(tag);
      return it == row.tag_tuples.end() ? std::string(".") : std::to_string(it->second);
    };
    table.add_row({row.vendor, std::to_string(row.total_tuples), cell("3DES"),
                   cell("RC4"), cell("DES"), cell("RC2"), cell("NULL"), cell("EXPORT"),
                   cell("ANON")});
  }
  return {out + table.render()};
}

// Fig. 10 (App. B.5): DoC across devices, per vendor.
TextReport fig10_doc_devices(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const core::DatasetIndex& ix = ingest.client().index();
  std::map<std::string, std::vector<double>> by_vendor;
  for (const auto& [device, doc] : core::doc_per_device(ingest.client())) {
    by_vendor[ix.vendors().str(ix.device_vendor(ix.devices().find(device)))].push_back(
        doc);
  }
  std::vector<std::pair<std::string, report::Summary>> rows;
  for (auto& [vendor, values] : by_vendor) {
    rows.emplace_back(vendor, report::summarize(values));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.mean > b.second.mean;
  });
  std::string out = banner("Fig. 10", "degree of customization across devices, per vendor");
  for (const auto& [vendor, summary] : rows) {
    out += report::render_summary(vendor, summary);
  }
  return {out};
}

// Fig. 11 (App. B.7): lowest index of a vulnerable ciphersuite by vendor.
TextReport fig11_vuln_index(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::size_t vendors_vuln_first = 0, vendors_never = 0;
  report::Table table({"Vendor", "tuples", "with vuln", "vuln first",
                       "mean lowest idx", "min idx"});
  for (const auto& row : core::vulnerable_index_stats(ingest.client())) {
    if (row.vulnerable_first > 0) ++vendors_vuln_first;
    if (row.with_vulnerable == 0) ++vendors_never;
    table.add_row({row.vendor, std::to_string(row.tuples),
                   std::to_string(row.with_vulnerable),
                   std::to_string(row.vulnerable_first),
                   row.with_vulnerable ? fmt_double(row.mean_lowest_index, 1) : "-",
                   row.min_lowest_index >= 0 ? std::to_string(row.min_lowest_index)
                                             : "-"});
  }
  std::string out = banner("Fig. 11", "lowest index of vulnerable ciphersuites by vendor") +
      table.render();
  appendf(out, "\nvendors with a vulnerable suite most-preferred: %zu   [paper: 13]\n",
          vendors_vuln_first);
  appendf(out, "vendors never proposing a vulnerable suite: %zu   [paper: 7]\n",
          vendors_never);
  return {out};
}

// Fig. 12 (App. B.8): components of the most-preferred ciphersuite.
TextReport fig12_preferred(StreamIngest& ingest, const devicesim::FleetDataset*) {
  auto rows = core::preferred_components(ingest.client());
  auto top = [](const std::map<std::string, double>& ratios) {
    std::string best = "-";
    double best_ratio = 0;
    for (const auto& [name, ratio] : ratios) {
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = name + " (" + fmt_percent(ratio, 0) + ")";
      }
    }
    return best;
  };
  report::Table table({"Vendor", "tuples", "top kex+auth", "top cipher", "top MAC"});
  for (const auto& row : rows) {
    table.add_row({row.vendor, std::to_string(row.tuples), top(row.kex_ratio),
                   top(row.cipher_ratio), top(row.mac_ratio)});
  }
  std::string out = banner("Fig. 12", "most-preferred ciphersuite components by vendor") +
      table.render();

  // The two headline quirks.
  for (const auto& row : rows) {
    if (row.vendor == "Belkin") {
      appendf(out, "\nBelkin fronts RC4_128 in %s of tuples   [paper: all devices]\n",
              fmt_percent(at_or_zero(row.cipher_ratio, "RC4_128")).c_str());
    }
    if (row.vendor == "Synology") {
      double anon = 0;
      for (const auto& [name, ratio] : row.kex_ratio) {
        if (name == "DH_ANON" || name == "KRB5_EXPORT") anon += ratio;
      }
      appendf(out,
              "Synology fronts DH_ANON/KRB5_EXPORT in %s of tuples "
              "  [paper: only such vendor]\n",
              fmt_percent(anon).c_str());
    }
  }
  return {out};
}

// Fig. 13 (App. C.3): CT presence of leaves by chain class.
TextReport fig13_ct_private(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_class;  // in/out
  std::set<std::string> seen;
  for (const auto& point : core::ct_points(*ingest.certs(), ingest.world())) {
    if (!seen.insert(point.leaf_fingerprint).second) continue;  // dedup leaves
    auto& [in_ct, not_in_ct] = by_class[core::chain_class_name(point.chain_class)];
    ++(point.in_ct ? in_ct : not_in_ct);
  }
  report::Table table({"chain class", "leaves in CT", "leaves NOT in CT"});
  for (const auto& [cls, counts] : by_class) {
    table.add_row({cls, std::to_string(counts.first), std::to_string(counts.second)});
  }
  return {banner("Fig. 13", "CT presence vs private-issuer chains") + table.render() +
          "\npaper: no private-leaf chain is CT-logged, including the "
          "private-leaf/public-root chains that COULD be submitted\n"};
}

// Table 14 (App. C.2): chains with private issuers; CN mismatches.
TextReport table14_private_chains(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Table 14", "certificate chains with private issuers");
  core::ChainReport report = ingest.chains();
  for (const auto& [title, rows] :
       {std::pair{"Private root CA", &report.private_root_rows},
        std::pair{"Self-signed certificate", &report.self_signed_rows}}) {
    appendf(out, "\n%s:\n", title);
    report::Table table({"Domain", "#.FQDNs", "Leaf issued by", "Chain len",
                         "#.devices", "Vendors"});
    for (const auto& row : *rows) {
      table.add_row({row.sld, std::to_string(row.fqdns), row.leaf_issuer,
                     join_upto(row.chain_lengths, SIZE_MAX, ","),
                     std::to_string(row.devices.size()), join_upto(row.vendors, 4, ",")});
    }
    out += table.render();
  }

  out += "\nCommon Name mismatches (§5.3):\n";
  const core::CertIndex& ix = ingest.certs()->index();
  for (const core::SniValidation* v : report.cn_mismatches) {
    const std::uint32_t sni = ix.snis().find(v->sni);
    std::string vendors;
    for (const auto& vendor : core::names(ix.vendors(), ix.sni_vendors()[sni])) {
      vendors += vendor + " ";
    }
    appendf(out, "  %-30s issuer=%-22s devices=%zu vendors=%s\n", v->sni.c_str(),
            v->leaf_issuer.c_str(), ix.sni_devices()[sni].size(), vendors.c_str());
  }
  return {out + "[paper: a2.tuyaus.com, Tuya-signed, visited by 3 Tuya devices]\n"};
}

// Table 15 (App. C.1): the most popular SLDs of the IoT servers.
TextReport table15_slds(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const core::CertDataset& certs = *ingest.certs();
  report::Table table({"SLD", "#.Servers (FQDNs)", "Contacted by #.devices"});
  for (const auto& row : certs.popular_slds(30)) {
    table.add_row({row.sld, std::to_string(row.servers), std::to_string(row.devices)});
  }
  std::string out = banner("Table 15", "popular SLDs of the IoT servers") + table.render();
  appendf(out, "\ndistinct SLDs: %zu   [paper: 357]\n", certs.distinct_slds());
  return {out + "paper top: amazon.com 57/556, google.com 24/499, googleapis.com "
                "35/420, netflix.com 30/327\n"};
}

// Table 16 (App. C.4.1): certificates across geographic vantage points.
TextReport table16_geo(StreamIngest& ingest, const devicesim::FleetDataset*) {
  auto geo = ingest.certs()->geo_comparison();
  auto row = [](const char* label, const std::map<net::VantagePoint, std::size_t>& m) {
    std::vector<std::string> cells = {label};
    for (net::VantagePoint v : {net::VantagePoint::kNewYork, net::VantagePoint::kFrankfurt,
                                net::VantagePoint::kSingapore}) {
      cells.push_back(std::to_string(at_or_zero(m, v)));
    }
    return cells;
  };
  report::Table table({"", "New York", "Frankfurt", "Singapore"});
  table.add_row(row("#.SNIs with certificate extracted", geo.extracted));
  table.add_row({"#.SNIs shared across all places", std::to_string(geo.shared_all), "", ""});
  table.add_row(row("#.SNIs exclusive in this location", geo.exclusive));
  return {banner("Table 16", "certificates across geographic locations") +
          table.render() +
          "\npaper: 1151/1149/1150 extracted; 1087 shared; 106/99/82 exclusive\n"};
}

// App. B.3.1 / B.9 / B.10: TLS_FALLBACK_SCSV, OCSP and GREASE usage.
TextReport app_b_extensions(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("App. B", "FALLBACK_SCSV / OCSP / GREASE usage");
  auto fallback = core::fallback_scsv_report(ingest.client());
  appendf(out, "TLS_FALLBACK_SCSV: %zu devices of %zu vendors   [paper: 20 / 6]\n",
          fallback.devices.size(), fallback.vendors.size());
  auto ocsp = core::ocsp_report(ingest.client());
  appendf(out, "OCSP status_request: %zu devices of %zu vendors   [paper: 648 / 33]\n",
          ocsp.devices.size(), ocsp.vendors.size());
  auto grease = core::grease_report(ingest.client());
  appendf(out,
          "GREASE in ciphersuites: %zu devices of %zu vendors   [paper: 501 / 23]\n",
          grease.suite_devices.size(), grease.suite_vendors.size());
  appendf(out,
          "GREASE in extensions:   %zu devices of %zu vendors   [paper: 503 / 15]\n",
          grease.extension_devices.size(), grease.extension_vendors.size());
  appendf(out, "GREASE only in extensions: %zu devices   [paper: 2]\n",
          grease.extension_only_devices.size());
  return {out};
}

// §6.2: PKI on the local network.
TextReport s62_local_pki(StreamIngest&, const devicesim::FleetDataset*) {
  auto study = core::local_network_study();
  report::Table table({"client -> server", "port", "TLS", "certs visible", "leaf CN",
                       "root CN", "root validity (d)", "root trusted", "in CT"});
  for (const auto& obs : study.observations) {
    const bool visible = obs.certificates_visible;
    table.add_row({obs.client + " -> " + obs.server, std::to_string(obs.port),
                   obs.tls_version == 0x0304 ? "1.3" : "1.2",
                   visible ? "yes" : "no (encrypted)", obs.leaf_common_name,
                   obs.root_common_name,
                   visible ? std::to_string(obs.validity_days) : "-",
                   visible ? (obs.root_in_client_store ? "yes" : "NO") : "-",
                   visible ? (obs.in_ct ? "yes" : "NO") : "-"});
  }
  std::string out = banner("S6.2", "PKI on the local network") + table.render();
  appendf(out, "\nintermediates valid for 20+ years: %zu   [paper: both Cast ICAs]\n",
          study.long_validity_roots);
  return {out};
}

// Ablation (DESIGN.md §5): sensitivity to the fingerprint definition.
TextReport ablation_fpdef(StreamIngest&, const devicesim::FleetDataset* fleet) {
  report::Table table(
      {"definition", "#.fingerprints", "degree-1 share", "vendors DoC>0.5"});
  auto run = [&](const char* label, const tls::FingerprintOptions& opts) {
    auto ds = core::ClientDataset::from_fleet(*fleet, opts);
    auto dist = core::fingerprint_degree_distribution(ds);
    auto doc = core::doc_vendor(ds);
    table.add_row({label, std::to_string(dist.total), fmt_percent(dist.ratio1()),
                   fmt_percent(core::fraction_above(doc, 0.5))});
  };
  run("3-tuple (paper)", {});
  run("ciphersuites only", {.include_extensions = false, .include_version = false});
  run("no version field", {.include_version = false});
  run("GREASE kept", {.strip_grease = false});
  return {banner("Ablation", "fingerprint definition sensitivity") + table.render() +
          "\nreading: coarser keys collapse fingerprints (fewer, more "
          "shared); keeping GREASE explodes GREASE-rotating clients into "
          "per-connection fingerprints\n"};
}

// Ablation (DESIGN.md §5): Jaccard vs overlap coefficient.
TextReport ablation_similarity(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("Ablation", "Jaccard vs overlap coefficient");
  auto pairs = core::vendor_similarities(ingest.client(), 0.0);
  std::size_t jaccard_02 = 0, overlap_02 = 0, disagree = 0;
  for (const auto& pair : pairs) {
    bool j = pair.jaccard >= 0.2;
    bool o = pair.overlap_coefficient >= 0.2;
    jaccard_02 += j;
    overlap_02 += o;
    disagree += (j != o);
  }
  appendf(out, "vendor pairs with any overlap: %zu\n", pairs.size());
  appendf(out,
          "pairs >= 0.2 by Jaccard: %zu; by overlap coefficient: %zu; "
          "metrics disagree on %zu pairs\n\n",
          jaccard_02, overlap_02, disagree);

  report::Table table({"Vendor tuple", "jaccard", "overlap", "note"});
  std::size_t shown = 0;
  for (const auto& pair : pairs) {
    if (pair.overlap_coefficient < 0.2 || pair.jaccard >= 0.2) continue;
    if (shown++ == 12) break;
    table.add_row({"{" + pair.vendor_a + ", " + pair.vendor_b + "}",
                   fmt_double(pair.jaccard, 3), fmt_double(pair.overlap_coefficient, 3),
                   "subset-like: overlap inflates similarity"});
  }
  return {out + table.render()};
}

// Ablation (DESIGN.md §5): the §5.1 SNI user-threshold.
TextReport ablation_threshold(StreamIngest& ingest, const devicesim::FleetDataset*) {
  report::Table table(
      {"min users", "SNIs kept", "reachable", "leaf certs", "issuer orgs"});
  for (std::size_t threshold : {1u, 2u, 3u, 5u, 10u}) {
    auto certs = core::CertDataset::collect(ingest.client(), ingest.world(), threshold);
    table.add_row({std::to_string(threshold), std::to_string(certs.extracted_snis()),
                   std::to_string(certs.reachable_snis()),
                   std::to_string(certs.leaves().size()),
                   std::to_string(certs.index().issuers().size())});
  }
  return {banner("Ablation", "SNI user-threshold sensitivity") + table.render() +
          "\nreading: raising the threshold trims the long tail of rarely "
          "visited servers first; issuer diversity shrinks more slowly\n"};
}

// Extension (§7): the vendor-signed estate of a world of its own under two
// simulated years of ACME-style automated renewal.
TextReport ext_acme(StreamIngest&, const devicesim::FleetDataset*) {
  // A private world copy we are allowed to mutate.
  auto universe = devicesim::ServerUniverse::standard();
  devicesim::SimWorld world = devicesim::build_world(universe);

  // Collect the vendor-signed (private-issuer) servers — §5.4's problem set.
  std::vector<net::SimServer*> estate;
  for (const devicesim::ServerSpec& spec : universe.specs()) {
    if (spec.issuer_public || !spec.reachable) continue;
    if (const net::SimServer* server = world.internet.find(spec.fqdn)) {
      estate.push_back(const_cast<net::SimServer*>(server));
    }
  }

  // The ACME deployment: a Let's Encrypt-style directory whose root the
  // trust stores already carry.
  auto acme_root = x509::CertificateAuthority::make_root(
      "ISRG Root X1", "Let's Encrypt", x509::CaKind::kPublicTrust, days(2015, 6, 4),
      days(2040, 6, 4));
  auto acme_intermediate =
      acme_root.subordinate("R3", days(2020, 9, 4), days(2035, 9, 4));
  ct::CtLog acme_log("acme-oak");
  ct::CtIndex ct_index;
  for (const auto& log : world.logs) ct_index.add_log(log.get());
  ct_index.add_log(&acme_log);

  acme::AcmeDirectory directory(&acme_intermediate, {}, &acme_log);
  acme::ChallengeBoard board;
  acme::RenewalAgent agent(&directory, &board, "IoT Vendor Consortium");
  for (net::SimServer* server : estate) agent.manage(server);

  const std::int64_t start = kProbeDay;
  acme::EstateHealth before = acme::measure_estate(estate, ct_index, start);
  // Two simulated years of weekly agent runs.
  for (std::int64_t day = start; day <= start + 730; day += 7) agent.tick(day);
  acme::EstateHealth after = acme::measure_estate(estate, ct_index, start + 730);

  report::Table table({"metric", "before ACME", "after 2y of ACME"});
  auto row = [&](const char* name, std::size_t b, std::size_t a) {
    table.add_row({name, std::to_string(b), std::to_string(a)});
  };
  row("vendor-signed servers", before.servers, after.servers);
  row("serving an EXPIRED certificate", before.expired, after.expired);
  row("expiring within 30 days", before.expiring_30d, after.expiring_30d);
  row("validity period > 5 years", before.validity_over_5y, after.validity_over_5y);
  row("CT-logged", before.ct_logged, after.ct_logged);
  table.add_row({"mean validity period (days)", fmt_double(before.mean_validity_days, 0),
                 fmt_double(after.mean_validity_days, 0)});
  std::string out = banner("EXT: ACME", "automated certificate management for IoT vendors") +
                    table.render();
  appendf(out, "\nrenewals performed: %zu, failures: %zu, ACME issuances: %zu\n",
          agent.renewals(), agent.failures(), directory.issued_count());
  return {out + "reading: the §5.4 pathology (decade-long unlogged vendor certs) "
                "disappears once issuance is automated — the paper's §7 thesis\n"};
}

// Extension (§7): CT log health and an audit of the probed estate.
TextReport ext_ct_monitor(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("EXT: CT monitor", "auditing the IoT certificate estate");
  const devicesim::SimWorld& world = ingest.world();
  // Log watching: verify append-only behaviour of the world's logs.
  for (const auto& log : world.logs) {
    ct::LogWatcher watcher(log.get());
    watcher.observe();
    watcher.observe();
    appendf(out, "log %-12s size=%-6llu healthy=%s\n", log->name().c_str(),
            static_cast<unsigned long long>(log->size()),
            watcher.log_healthy() ? "yes" : "NO");
  }

  // Estate audit over every reachable leaf.
  std::vector<std::pair<std::string, x509::Certificate>> estate;
  for (const core::SniRecord& record : ingest.certs()->records()) {
    if (!record.reachable || record.chain.empty()) continue;
    estate.emplace_back(record.sni, record.chain.front());
  }
  auto report = ct::audit_estate(estate, world.ct_index, {}, kProbeDay);
  appendf(out, "\naudited %zu certificates; %zu findings\n", report.certificates,
          report.findings.size());

  report::Table counts({"finding", "count"});
  for (const auto& [finding, count] : report.counts) {
    counts.add_row({ct::finding_name(finding), std::to_string(count)});
  }
  out += counts.render();

  report::Table issuers({"issuer with unlogged certs", "count"});
  for (const auto& [count, issuer] : by_count_descending(report.unlogged_by_issuer)) {
    issuers.add_row({issuer, std::to_string(count)});
  }
  return {out + "\n" + issuers.render() +
          "\nreading: exactly the §5.4 gap — private CAs dominate the "
          "unlogged set; an auditing mechanism makes it visible\n"};
}

// Extension: OCSP stapling coverage by issuer kind, and a revocation drill
// on one stapling server.
TextReport ext_revocation(StreamIngest& ingest, const devicesim::FleetDataset*) {
  const auto& is_public_issuer = ingest.world().issuer_is_public;
  const std::vector<core::SniRecord>& records = ingest.certs()->records();
  std::size_t public_servers = 0, public_stapled = 0;
  std::size_t private_servers = 0, private_stapled = 0;
  std::size_t staples_valid = 0;
  for (const core::SniRecord& record : records) {
    if (!record.reachable || record.chain.empty()) continue;
    auto it = is_public_issuer.find(record.chain.front().issuer.organization);
    const bool is_public = it == is_public_issuer.end() || it->second;
    ++(is_public ? public_servers : private_servers);
    (is_public ? public_stapled : private_stapled) += record.stapled;
    staples_valid += record.staple_valid;
  }

  report::Table table({"server class", "servers", "stapling OCSP", "share"});
  table.add_row({"public-CA issued", std::to_string(public_servers),
                 std::to_string(public_stapled), share(public_stapled, public_servers)});
  table.add_row({"vendor/private-CA issued", std::to_string(private_servers),
                 std::to_string(private_stapled),
                 share(private_stapled, private_servers)});
  std::string out = banner("EXT: revocation", "OCSP stapling coverage and revocation drill") +
      table.render();
  appendf(out, "all served staples verify: %s\n\n",
          staples_valid == public_stapled + private_stapled ? "yes" : "NO");

  // Revocation drill: compromise one stapling server, revoke, re-staple.
  auto victim = std::find_if(records.begin(), records.end(), [](const auto& record) {
    return record.stapled && record.reachable;
  });
  if (victim != records.end()) {
    auto ca = x509::CertificateAuthority::make_root("Drill CA", "DrillOrg",
                                                    x509::CaKind::kPublicTrust, 15000,
                                                    40000);
    x509::KeyRegistry keys;
    ca.publish_key(keys);
    x509::IssueRequest req;
    req.subject.common_name = victim->sni;
    req.not_before = kProbeDay - 100;
    req.not_after = kProbeDay + 300;
    x509::Certificate leaf = ca.issue(req);
    x509::Crl crl(&ca);
    x509::OcspResponder responder(&ca, &crl, 7);

    auto before = responder.respond(leaf, kProbeDay);
    crl.revoke(leaf.serial, kProbeDay);
    auto after = responder.respond(leaf, kProbeDay + 1);
    appendf(out, "revocation drill on %s:\n", victim->sni.c_str());
    appendf(out, "  before revocation: %s (verifies: %s)\n",
            x509::revocation_status_name(before.status).c_str(),
            x509::verify_ocsp(before, keys) ? "yes" : "no");
    appendf(out, "  after revocation:  %s (verifies: %s), stale after %lld days\n",
            x509::revocation_status_name(after.status).c_str(),
            x509::verify_ocsp(after, keys) ? "yes" : "no",
            static_cast<long long>(after.next_update - after.this_update));
  }
  return {out + "\nreading: only public-CA servers have any revocation path; the "
                "vendor-signed estate (§5.3) has none — compromise means "
                "replacing firmware, not certificates\n"};
}

// Extension (§7): firmware-update detection and the monthly version mix.
TextReport ext_longitudinal(StreamIngest& ingest, const devicesim::FleetDataset*) {
  std::string out = banner("EXT: longitudinal", "TLS behaviour over the device life cycle");
  auto report =
      core::longitudinal_analysis(ingest.client(), days(2019, 4, 29), kCaptureEnd);
  appendf(out, "devices observed in both halves of the window: %zu\n",
          report.devices_observed_both_halves);
  appendf(out,
          "devices with a detected stack replacement (firmware update): "
          "%zu (%s)\n\n",
          report.devices_with_replacement,
          share(report.devices_with_replacement, report.devices_observed_both_halves)
              .c_str());

  auto ranked = by_count_descending(report.replacements_by_vendor);
  report::Table table({"Vendor", "devices with stack replacement"});
  for (std::size_t i = 0; i < ranked.size() && i < 12; ++i) {
    table.add_row({ranked[i].second, std::to_string(ranked[i].first)});
  }
  out += table.render() + "\n";

  report::Table months({"month start", "events", "TLS 1.2", "TLS 1.0", "SSL 3.0"});
  for (const auto& m : report.monthly_versions) {
    auto share = [&](std::uint16_t v) {
      auto it = m.share.find(v);
      return it == m.share.end() ? std::string("-") : fmt_percent(it->second, 1);
    };
    months.add_row({format_date(m.month_start), std::to_string(m.events), share(0x0303),
                    share(0x0301), share(0x0300)});
  }
  out += months.render();
  appendf(out,
          "\nmax month-over-month TLS 1.2 swing: %s   "
          "[paper: no trend observed over the capture]\n",
          fmt_percent(report.max_monthly_tls12_swing, 1).c_str());
  return {out};
}

// Extension: every observed device→server connection replayed under
// browser-grade validation.
TextReport ext_strict_client(StreamIngest& ingest, const devicesim::FleetDataset*) {
  core::ChainReport report = ingest.chains();
  // Index validation outcomes by SNI.
  std::map<std::string, const core::SniValidation*> by_sni;
  for (const core::SniValidation* v : report.validations) by_sni[v->sni] = v;

  std::size_t connections = 0, refused = 0;
  std::map<std::string, std::size_t> refused_reason;
  std::set<std::uint32_t> affected_devices, affected_vendors;
  const core::DatasetIndex& ix = ingest.client().index();
  for (const core::ParsedEvent& e : ingest.client().events()) {
    auto it = by_sni.find(ix.snis().str(e.sni));
    if (it == by_sni.end()) continue;  // server dark by probe time
    ++connections;
    const auto& v = *it->second;
    std::string reason;
    if (!x509::chain_trusted(v.result.status)) {
      reason = x509::chain_status_name(v.result.status);
    } else if (v.result.expired) {
      reason = "expired certificate";
    } else if (!v.result.hostname_ok) {
      reason = "hostname mismatch";
    }
    if (reason.empty()) continue;
    ++refused;
    ++refused_reason[reason];
    affected_devices.insert(e.device);
    affected_vendors.insert(e.vendor);
  }

  std::string out = banner("EXT: strict client",
                           "replaying connections under browser-grade validation");
  appendf(out, "replayed device connections: %zu\n", connections);
  appendf(out,
          "a strict client would REFUSE: %zu (%s), touching %zu devices "
          "of %zu vendors\n\n",
          refused, share(refused, connections).c_str(),
          affected_devices.size(), affected_vendors.size());

  report::Table table({"refusal reason", "connections"});
  for (const auto& [reason, count] : refused_reason) {
    table.add_row({reason, std::to_string(count)});
  }
  return {out + table.render() +
          "\nreading: every one of these connections HAPPENED in the wild "
          "— the §5.3 evidence that IoT clients skip validation; a strict "
          "policy would have bricked these device features instead, which "
          "is exactly the availability/security tension §7 discusses\n"};
}

}  // namespace iotls::stream::paper
