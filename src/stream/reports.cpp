#include "stream/reports.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/device_metrics.hpp"
#include "core/issuers.hpp"
#include "core/vendor_metrics.hpp"
#include "obs/trace.hpp"
#include "stream/paper.hpp"

namespace iotls::stream {

namespace {

obs::Json set_json(const std::set<std::string>& values) {
  obs::Json::Array out;
  for (const std::string& v : values) out.emplace_back(v);
  return obs::Json(std::move(out));
}

obs::Json report_table02(StreamIngest& ingest) {
  core::DegreeDistribution d =
      core::fingerprint_degree_distribution(ingest.client());
  return obs::Json(obs::Json::Object{
      {"table", "table02"},
      {"total", static_cast<std::int64_t>(d.total)},
      {"degree1", static_cast<std::int64_t>(d.degree1)},
      {"degree2", static_cast<std::int64_t>(d.degree2)},
      {"degree3to5", static_cast<std::int64_t>(d.degree3to5)},
      {"degree_gt5", static_cast<std::int64_t>(d.degree_gt5)},
      {"ratio1", d.ratio1()},
  });
}

/// {"<head_key>": head, "rows": rows}: the shape of the row reports.
obs::Json rows_document(const char* head_key, const char* head, obs::Json::Array rows) {
  obs::Json::Object out;
  out.reserve(2);
  out.emplace_back(head_key, head);
  out.emplace_back("rows", std::move(rows));
  return obs::Json(std::move(out));
}

// Rows and documents are built by moving their members in: an
// Object{{...}} initializer list copies every member, nested arrays too.

obs::Json report_table03(StreamIngest& ingest) {
  std::vector<core::VendorHeterogeneity> top =
      core::vendor_heterogeneity_top(ingest.client(), 10);
  obs::Json::Array rows;
  rows.reserve(top.size());
  for (core::VendorHeterogeneity& row : top) {
    obs::Json::Object out;
    out.reserve(4);
    out.emplace_back("vendor", std::move(row.vendor));
    out.emplace_back("fingerprints", static_cast<std::int64_t>(row.fingerprints));
    out.emplace_back("shared_by_10plus", row.shared_by_10plus);
    out.emplace_back("single_device", row.single_device);
    rows.emplace_back(std::move(out));
  }
  return rows_document("table", "table03", std::move(rows));
}

obs::Json report_table04(StreamIngest& ingest) {
  std::vector<core::VendorSimilarity> similar =
      core::vendor_similarities(ingest.client(), 0.2);
  obs::Json::Array rows;
  rows.reserve(similar.size());
  for (core::VendorSimilarity& sim : similar) {
    obs::Json::Object out;
    out.reserve(4);
    out.emplace_back("vendor_a", std::move(sim.vendor_a));
    out.emplace_back("vendor_b", std::move(sim.vendor_b));
    out.emplace_back("jaccard", sim.jaccard);
    out.emplace_back("overlap_coefficient", sim.overlap_coefficient);
    rows.emplace_back(std::move(out));
  }
  return rows_document("table", "table04", std::move(rows));
}

obs::Json report_table05(StreamIngest& ingest) {
  core::ServerTieReport tie = ingest.server_ties();
  obs::Json::Array rows;
  rows.reserve(tie.cross_vendor_rows.size());
  for (core::ServerTiedFingerprint& row : tie.cross_vendor_rows) {
    obs::Json::Object out;
    out.reserve(5);
    out.emplace_back("sld", std::move(row.sld));
    out.emplace_back("fp_key", std::move(row.fp_key));
    out.emplace_back("fqdns", set_json(row.fqdns));
    out.emplace_back("devices", static_cast<std::int64_t>(row.devices.size()));
    out.emplace_back("vendors", set_json(row.vendors));
    rows.emplace_back(std::move(out));
  }
  obs::Json::Object out;
  out.reserve(4);
  out.emplace_back("table", "table05");
  out.emplace_back("total_snis", static_cast<std::int64_t>(tie.total_snis));
  out.emplace_back("tied_snis", static_cast<std::int64_t>(tie.tied_snis));
  out.emplace_back("rows", std::move(rows));
  return obs::Json(std::move(out));
}

// The server-side reports below run only once the ingest has a resident
// CertDataset (render_report checks).

obs::Json report_certs(StreamIngest& ingest) {
  const core::CertDataset& certs = *ingest.certs();
  core::CertDataset::SharingStats stats = certs.sharing_stats();
  return obs::Json(obs::Json::Object{
      {"report", "certs"},
      {"extracted_snis", static_cast<std::int64_t>(certs.extracted_snis())},
      {"reachable_snis", static_cast<std::int64_t>(certs.reachable_snis())},
      {"distinct_leaves", static_cast<std::int64_t>(certs.leaves().size())},
      {"issuer_organizations",
       static_cast<std::int64_t>(certs.index().issuers().size())},
      {"mean_servers_per_cert", stats.mean_servers_per_cert},
      {"max_servers_per_cert",
       static_cast<std::int64_t>(stats.max_servers_per_cert)},
      {"certs_on_multiple_ips",
       static_cast<std::int64_t>(stats.certs_on_multiple_ips)},
  });
}

obs::Json chain_rows_json(std::vector<core::DomainChainRow>& rows) {
  obs::Json::Array out;
  out.reserve(rows.size());
  for (core::DomainChainRow& row : rows) {
    obs::Json::Object json;
    json.reserve(6);
    json.emplace_back("sld", std::move(row.sld));
    json.emplace_back("issuer", std::move(row.leaf_issuer));
    json.emplace_back("status", x509::chain_status_slug(row.status));
    json.emplace_back("fqdns", static_cast<std::int64_t>(row.fqdns));
    json.emplace_back("devices", static_cast<std::int64_t>(row.devices.size()));
    json.emplace_back("vendors", set_json(row.vendors));
    out.emplace_back(std::move(json));
  }
  return obs::Json(std::move(out));
}

obs::Json report_chains(StreamIngest& ingest) {
  core::ChainReport chains = ingest.chains();
  obs::Json::Array expired;
  expired.reserve(chains.expired.size());
  for (core::ExpiredRow& row : chains.expired) {
    obs::Json::Object json;
    json.reserve(3);
    json.emplace_back("sni", std::move(row.sni));
    json.emplace_back("not_after", row.not_after);
    json.emplace_back("issuer", std::move(row.issuer));
    expired.emplace_back(std::move(json));
  }
  obs::Json::Object out;
  out.reserve(9);
  out.emplace_back("report", "chains");
  out.emplace_back("validated", static_cast<std::int64_t>(chains.validated));
  out.emplace_back("trusted", static_cast<std::int64_t>(chains.trusted));
  out.emplace_back("failure_rows", chain_rows_json(chains.failure_rows));
  out.emplace_back("private_root_rows", chain_rows_json(chains.private_root_rows));
  out.emplace_back("self_signed_rows", chain_rows_json(chains.self_signed_rows));
  out.emplace_back("expired", std::move(expired));
  out.emplace_back("cn_mismatches",
                   static_cast<std::int64_t>(chains.cn_mismatches.size()));
  out.emplace_back("private_leaf_failure_ratio", chains.private_leaf_failure_ratio);
  return obs::Json(std::move(out));
}

obs::Json report_issuers(StreamIngest& ingest) {
  core::IssuerReport issuers =
      core::issuer_report(*ingest.certs(), ingest.world().issuer_is_public);
  obs::Json::Object share;
  share.reserve(issuers.issuer_share.size());
  for (const auto& [org, ratio] : issuers.issuer_share) {
    share.emplace_back(org, ratio);
  }
  obs::Json::Object out;
  out.reserve(9);
  out.emplace_back("report", "issuers");
  out.emplace_back("issuer_organizations",
                   static_cast<std::int64_t>(issuers.issuer_organizations));
  out.emplace_back("leaves", static_cast<std::int64_t>(issuers.leaves));
  out.emplace_back("private_leaves", static_cast<std::int64_t>(issuers.private_leaves));
  out.emplace_back("private_ratio", issuers.private_ratio);
  out.emplace_back("issuer_share", std::move(share));
  out.emplace_back("public_only_vendors", set_json(issuers.public_only_vendors));
  out.emplace_back("self_signing_vendors", set_json(issuers.self_signing_vendors));
  out.emplace_back("vendor_only_vendors", set_json(issuers.vendor_only_vendors));
  return obs::Json(std::move(out));
}

obs::Json report_ct(StreamIngest& ingest) {
  core::CtReport ct = ingest.ct();
  obs::Json::Array anomalies;
  anomalies.reserve(ct.public_not_logged.size());
  for (core::CtPoint& p : ct.public_not_logged) {
    obs::Json::Object json;
    json.reserve(3);
    json.emplace_back("sni", std::move(p.sni));
    json.emplace_back("vendor", std::move(p.vendor));
    json.emplace_back("issuer", std::move(p.leaf_issuer));
    anomalies.emplace_back(std::move(json));
  }
  obs::Json::Object out;
  out.reserve(9);
  out.emplace_back("report", "ct");
  out.emplace_back("tuples", static_cast<std::int64_t>(ct.tuples));
  out.emplace_back("public_leaves", static_cast<std::int64_t>(ct.public_leaves));
  out.emplace_back("public_leaves_in_ct", static_cast<std::int64_t>(ct.public_leaves_in_ct));
  out.emplace_back("public_not_logged", std::move(anomalies));
  out.emplace_back("private_leaves", static_cast<std::int64_t>(ct.private_leaves));
  out.emplace_back("private_leaves_in_ct",
                   static_cast<std::int64_t>(ct.private_leaves_in_ct));
  out.emplace_back("max_public_validity", ct.max_public_validity);
  out.emplace_back("max_private_validity", ct.max_private_validity);
  return obs::Json(std::move(out));
}

/// Add the names of the vendors whose devices contact `sni` to `out`, for
/// annotating stack results with who talks to the servers behind them.
void add_vendors(const core::CertIndex& ix, const std::string& sni,
                 std::set<std::string>& out) {
  const std::uint32_t id = ix.snis().find(sni);
  if (id == core::CertIndex::kNone) return;
  for (std::uint32_t v : ix.sni_vendors()[id]) out.insert(ix.vendors().str(v));
}

obs::Json report_stacks(StreamIngest& ingest) {
  // Server-side dual of Table 4/5: instead of clustering *clients* by the
  // fingerprints they send, cluster *servers* by the stack fingerprint the
  // battery elicits. Clusters are keyed on the New York / IPv4 digest (the
  // paper's primary vantage).
  const net::StackSurvey& survey = ingest.stacks();
  const core::CertIndex& ix = ingest.certs()->index();

  struct Cluster {
    std::vector<std::string> servers;  // records() order == lexicographic
    std::set<std::string> vendors;
  };
  std::map<std::string, Cluster> clusters;
  std::size_t fingerprinted = 0;
  std::size_t unanswered = 0;
  for (const net::ServerStackResult& result : survey.results) {
    const net::StackFingerprint* fp =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv4);
    if (fp == nullptr || !fp->answered) {
      ++unanswered;
      continue;
    }
    ++fingerprinted;
    Cluster& cluster = clusters[fp->digest];
    cluster.servers.push_back(result.sni);
    add_vendors(ix, result.sni, cluster.vendors);
  }

  // Rows: clusters of >= 2 servers, largest first, digest breaking ties.
  std::vector<std::pair<std::string, const Cluster*>> ordered;
  for (const auto& [digest, cluster] : clusters) {
    if (cluster.servers.size() >= 2) ordered.emplace_back(digest, &cluster);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second->servers.size() != b.second->servers.size()) {
                return a.second->servers.size() > b.second->servers.size();
              }
              return a.first < b.first;
            });

  std::size_t clustered_servers = 0;
  std::size_t cross_vendor_clusters = 0;
  obs::Json::Array rows;
  for (const auto& [digest, cluster] : ordered) {
    clustered_servers += cluster->servers.size();
    bool cross_vendor = cluster->vendors.size() > 1;
    if (cross_vendor) ++cross_vendor_clusters;
    obs::Json::Array fqdns;
    for (std::size_t i = 0; i < cluster->servers.size() && i < 5; ++i) {
      fqdns.emplace_back(cluster->servers[i]);
    }
    // Members are moved in: an Object{{...}} initializer list would copy
    // each nested array once more.
    obs::Json::Object row;
    row.reserve(5);
    row.emplace_back("digest", digest);
    row.emplace_back("servers", static_cast<std::int64_t>(cluster->servers.size()));
    row.emplace_back("example_fqdns", std::move(fqdns));
    row.emplace_back("vendors", set_json(cluster->vendors));
    row.emplace_back("cross_vendor", cross_vendor);
    rows.emplace_back(std::move(row));
  }

  obs::Json::Object out;
  out.reserve(8);
  out.emplace_back("report", "stacks");
  out.emplace_back("battery", static_cast<std::int64_t>(
                                  net::StackFingerprinter::standard_battery().size()));
  out.emplace_back("servers_fingerprinted", static_cast<std::int64_t>(fingerprinted));
  out.emplace_back("unanswered", static_cast<std::int64_t>(unanswered));
  out.emplace_back("distinct_stacks", static_cast<std::int64_t>(clusters.size()));
  out.emplace_back("clustered_servers", static_cast<std::int64_t>(clustered_servers));
  out.emplace_back("cross_vendor_clusters",
                   static_cast<std::int64_t>(cross_vendor_clusters));
  out.emplace_back("rows", std::move(rows));
  return obs::Json(std::move(out));
}

obs::Json report_dualstack(StreamIngest& ingest) {
  // Table 16 extended across address families: does the v6 frontend serve
  // the same stack and certificate the v4 frontend does? Compared at New
  // York, the paper's primary vantage.
  const net::StackSurvey& survey = ingest.stacks();
  const core::CertIndex& ix = ingest.certs()->index();

  std::size_t snis = 0;
  std::size_t v4_unanswered = 0;
  std::size_t v6_absent = 0;
  std::size_t consistent = 0;
  std::size_t stack_divergent = 0;
  std::size_t cert_divergent = 0;
  obs::Json::Array rows;
  for (const net::ServerStackResult& result : survey.results) {
    ++snis;
    const net::StackFingerprint* v4 =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv4);
    const net::StackFingerprint* v6 =
        result.at(net::VantagePoint::kNewYork, net::AddressFamily::kIPv6);
    if (v4 == nullptr || !v4->answered) {
      ++v4_unanswered;
      continue;
    }
    if (v6 == nullptr || !v6->answered) {
      ++v6_absent;  // no AAAA record (or a dark v6 frontend)
      continue;
    }
    bool stack_div = v4->digest != v6->digest;
    bool cert_div = !v4->leaf_fp.empty() && !v6->leaf_fp.empty() &&
                    v4->leaf_fp != v6->leaf_fp;
    if (!stack_div && !cert_div) {
      ++consistent;
      continue;
    }
    if (stack_div) ++stack_divergent;
    if (cert_div) ++cert_divergent;
    std::set<std::string> vendors;
    add_vendors(ix, result.sni, vendors);
    obs::Json::Object row;
    row.reserve(6);
    row.emplace_back("sni", result.sni);
    row.emplace_back("stack_divergent", stack_div);
    row.emplace_back("cert_divergent", cert_div);
    row.emplace_back("v4_digest", v4->digest);
    row.emplace_back("v6_digest", v6->digest);
    row.emplace_back("vendors", set_json(vendors));
    rows.emplace_back(std::move(row));
  }

  obs::Json::Object out;
  out.reserve(8);
  out.emplace_back("report", "dualstack");
  out.emplace_back("snis", static_cast<std::int64_t>(snis));
  out.emplace_back("v4_unanswered", static_cast<std::int64_t>(v4_unanswered));
  out.emplace_back("v6_absent", static_cast<std::int64_t>(v6_absent));
  out.emplace_back("consistent", static_cast<std::int64_t>(consistent));
  out.emplace_back("stack_divergent", static_cast<std::int64_t>(stack_divergent));
  out.emplace_back("cert_divergent", static_cast<std::int64_t>(cert_divergent));
  out.emplace_back("rows", std::move(rows));
  return obs::Json(std::move(out));
}

struct Report {
  const char* name;
  unsigned needs;  // ReportNeeds bits
  obs::Json (*json)(StreamIngest&);    // set for a JSON entry
  paper::TextRenderer* text;           // set for a text entry
};

/// Every entry: the JSON reports in serving order, then the paper's tables
/// and figures in paper order.
constexpr Report kReports[] = {
    {"table02", 0, report_table02, nullptr},
    {"table03", 0, report_table03, nullptr},
    {"table04", 0, report_table04, nullptr},
    {"table05", 0, report_table05, nullptr},
    {"certs", kNeedsCerts, report_certs, nullptr},
    {"chains", kNeedsCerts, report_chains, nullptr},
    {"issuers", kNeedsCerts, report_issuers, nullptr},
    {"ct", kNeedsCerts, report_ct, nullptr},
    {"stacks", kNeedsCerts, report_stacks, nullptr},
    {"dualstack", kNeedsCerts, report_dualstack, nullptr},

    {"s41_library_match", 0, nullptr, paper::s41_library_match},
    {"fig01_vendor_graph", 0, nullptr, paper::fig01_vendor_graph},
    {"table02_degree", 0, nullptr, paper::table02_degree},
    {"fig02_doc_cdf", 0, nullptr, paper::fig02_doc_cdf},
    {"table03_heterogeneity", 0, nullptr, paper::table03_heterogeneity},
    {"fig03_amazon", kNeedsEvents, nullptr, paper::fig03_amazon},
    {"table04_jaccard", 0, nullptr, paper::table04_jaccard},
    {"table05_server_fp", 0, nullptr, paper::table05_server_fp},
    {"table06_cert_summary", kNeedsCerts, nullptr, paper::table06_cert_summary},
    {"fig05_issuer_matrix", kNeedsCerts, nullptr, paper::fig05_issuer_matrix},
    {"table07_invalid_chains", kNeedsCerts, nullptr, paper::table07_invalid_chains},
    {"table08_expired", kNeedsCerts, nullptr, paper::table08_expired},
    {"table09_netflix", kNeedsCerts, nullptr, paper::table09_netflix},
    {"fig06_validity", kNeedsCerts, nullptr, paper::fig06_validity},
    {"fig07_smart_tv", kNeedsCerts, nullptr, paper::fig07_smart_tv},
    {"table10_releases", 0, nullptr, paper::table10_releases},
    {"table11_semantic", kNeedsEvents, nullptr, paper::table11_semantic},
    {"fig08_cs_jaccard", kNeedsEvents, nullptr, paper::fig08_cs_jaccard},
    {"table12_versions", kNeedsEvents, nullptr, paper::table12_versions},
    {"fig09_vuln_flows", kNeedsEvents, nullptr, paper::fig09_vuln_flows},
    {"fig10_doc_devices", 0, nullptr, paper::fig10_doc_devices},
    {"fig11_vuln_index", kNeedsEvents, nullptr, paper::fig11_vuln_index},
    {"fig12_preferred", kNeedsEvents, nullptr, paper::fig12_preferred},
    {"fig13_ct_private", kNeedsCerts, nullptr, paper::fig13_ct_private},
    {"table14_private_chains", kNeedsCerts, nullptr, paper::table14_private_chains},
    {"table15_slds", kNeedsCerts, nullptr, paper::table15_slds},
    {"table16_geo", kNeedsCerts, nullptr, paper::table16_geo},
    {"app_b_extensions", kNeedsEvents, nullptr, paper::app_b_extensions},
    {"s62_local_pki", 0, nullptr, paper::s62_local_pki},
    {"ablation_fpdef", kNeedsFleet, nullptr, paper::ablation_fpdef},
    {"ablation_similarity", 0, nullptr, paper::ablation_similarity},
    {"ablation_threshold", kNeedsCerts, nullptr, paper::ablation_threshold},
    {"ext_acme", 0, nullptr, paper::ext_acme},
    {"ext_ct_monitor", kNeedsCerts, nullptr, paper::ext_ct_monitor},
    {"ext_revocation", kNeedsCerts, nullptr, paper::ext_revocation},
    {"ext_longitudinal", kNeedsEvents, nullptr, paper::ext_longitudinal},
    {"ext_strict_client", kNeedsCerts | kNeedsEvents, nullptr, paper::ext_strict_client},
};

const Report* find_report(const std::string& name) {
  for (const Report& report : kReports) {
    if (name == report.name) return &report;
  }
  return nullptr;
}

/// The names of the entries with a JSON (or else text) renderer, in table
/// order.
std::vector<std::string> names_of(bool json) {
  std::vector<std::string> out;
  for (const Report& report : kReports) {
    if ((report.json != nullptr) == json) out.emplace_back(report.name);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& report_names() {
  static const std::vector<std::string> names = names_of(true);
  return names;
}

const std::vector<std::string>& text_report_names() {
  static const std::vector<std::string> names = names_of(false);
  return names;
}

std::optional<unsigned> report_needs(const std::string& name) {
  const Report* report = find_report(name);
  if (report == nullptr) return std::nullopt;
  return report->needs;
}

std::optional<obs::Json> render_report(const std::string& name,
                                       StreamIngest& ingest) {
  const Report* report = find_report(name);
  if (report == nullptr || report->json == nullptr) return std::nullopt;
  // One item per rendered document; a refused render is a failure.
  auto span = obs::tracer().span(std::string("analysis.") + report->name);
  span.add_items();
  if ((report->needs & kNeedsCerts) != 0 && ingest.certs() == nullptr) {
    const char* error = ingest.config().certs ? "no epoch folded yet"
                                              : "daemon running without --certs";
    span.fail(error);
    return obs::Json(obs::Json::Object{{"error", error}});
  }
  return report->json(ingest);
}

std::optional<TextReport> render_text_report(
    const std::string& name, StreamIngest& ingest,
    const devicesim::FleetDataset* fleet) {
  const Report* report = find_report(name);
  if (report == nullptr || report->text == nullptr) return std::nullopt;
  auto span = obs::tracer().span(std::string("analysis.") + report->name);
  span.add_items();
  const char* missing = nullptr;
  if ((report->needs & kNeedsCerts) != 0 && ingest.certs() == nullptr) {
    missing = "an ingest with certs and a folded epoch";
  } else if ((report->needs & kNeedsEvents) != 0 &&
             !ingest.client().retain_events()) {
    missing = "an ingest that retains events";
  } else if ((report->needs & kNeedsFleet) != 0 && fleet == nullptr) {
    missing = "the raw fleet";
  }
  if (missing != nullptr) {
    span.fail(missing);
    throw std::logic_error(name + " needs " + missing);
  }
  return report->text(ingest, fleet);
}

}  // namespace iotls::stream
