// Integration tests for the §5/§6 server-side analyses over the standard
// simulated world. The heavy fixtures are built once and shared.
#include <gtest/gtest.h>

#include "core/case_studies.hpp"
#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "devicesim/fleet.hpp"
#include "util/dates.hpp"

namespace iotls::core {
namespace {

struct Fixture {
  corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  devicesim::FleetDataset fleet = devicesim::generate_fleet({}, corpus, universe);
  ClientDataset client = ClientDataset::from_fleet(fleet);
  devicesim::SimWorld world = devicesim::build_world(universe);
  CertDataset certs = CertDataset::collect(client, world);
  std::int64_t probe_day = days(2022, 4, 15);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ---------------------------------------------------------------- dataset

TEST(CertDatasetTest, HeadlineCounts) {
  const auto& f = fixture();
  EXPECT_EQ(f.certs.extracted_snis(), 1194u);
  EXPECT_EQ(f.certs.reachable_snis(), 1151u);  // 43 dark servers (§3)
  // 842 leaves in the paper; the simulator must land in the same regime.
  EXPECT_GT(f.certs.leaves().size(), 700u);
  EXPECT_LT(f.certs.leaves().size(), 950u);
  EXPECT_GE(f.certs.index().issuers().size(), 25u);
  EXPECT_LE(f.certs.index().issuers().size(), 40u);
}

TEST(CertDatasetTest, EveryReachableRecordHasChain) {
  const CertIndex& ix = fixture().certs.index();
  const std::vector<SniRecord>& records = fixture().certs.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].reachable) continue;
    EXPECT_FALSE(records[i].chain.empty()) << records[i].sni;
    EXPECT_FALSE(ix.sni_devices()[ix.record_sni()[i]].empty()) << records[i].sni;
  }
}

TEST(CertDatasetTest, SldPopularityHeadedByAmazonGoogle) {
  auto top = fixture().certs.popular_slds(5);
  ASSERT_GE(top.size(), 2u);
  std::set<std::string> head = {top[0].sld, top[1].sld};
  EXPECT_TRUE(head.count("amazon.com") || head.count("google.com") ||
              head.count("googleapis.com"))
      << top[0].sld << ", " << top[1].sld;
  // Long-tail: top SLD reached by hundreds of devices, median far less.
  EXPECT_GT(top[0].devices, 300u);
}

TEST(CertDatasetTest, CertificateSharingRegime) {
  auto sharing = fixture().certs.sharing_stats();
  EXPECT_GT(sharing.mean_servers_per_cert, 1.1);
  EXPECT_GT(sharing.max_servers_per_cert, 20u);   // the google-wide leaf
  EXPECT_GT(sharing.multi_ip_ratio, 0.3);
  EXPECT_GT(sharing.max_ips_per_cert, 50u);
}

TEST(CertDatasetTest, GeoMostlyConsistent) {
  auto geo = fixture().certs.geo_comparison();
  std::size_t ny = geo.extracted.at(net::VantagePoint::kNewYork);
  EXPECT_EQ(ny, 1151u);
  EXPECT_EQ(geo.extracted.at(net::VantagePoint::kFrankfurt), 1149u);
  EXPECT_EQ(geo.extracted.at(net::VantagePoint::kSingapore), 1150u);
  // Table 16's shape: the overwhelming majority shares one certificate.
  EXPECT_GT(geo.shared_all, 1000u);
  EXPECT_GT(geo.exclusive.at(net::VantagePoint::kNewYork), 5u);
}

TEST(CertDatasetTest, UserThresholdMonotone) {
  const auto& f = fixture();
  auto strict = CertDataset::collect(f.client, f.world, 3);
  EXPECT_LT(strict.extracted_snis(), f.certs.extracted_snis());
  EXPECT_LE(strict.leaves().size(), f.certs.leaves().size());
}

// ---------------------------------------------------------------- issuers

TEST(Issuers, PrivateShareNearPaper) {
  const auto& f = fixture();
  auto report = issuer_report(f.certs, f.world.issuer_is_public);
  EXPECT_GT(report.private_ratio, 0.05);  // paper: 9.86%
  EXPECT_LT(report.private_ratio, 0.15);
  EXPECT_GT(report.issuer_share.at("DigiCert"), 0.35);  // paper: 47.26%
  EXPECT_LT(report.issuer_share.at("DigiCert"), 0.60);
}

TEST(Issuers, IsolatedVendorsOnlyMeetThemselves) {
  const auto& f = fixture();
  auto report = issuer_report(f.certs, f.world.issuer_is_public);
  EXPECT_EQ(report.vendor_only_vendors,
            (std::set<std::string>{"Canary", "Obihai", "Tuya"}));
  EXPECT_GE(report.self_signing_vendors.size(), 12u);  // paper: 16
}

TEST(Issuers, MatrixColumnsSumToOne) {
  const auto& f = fixture();
  auto matrix = issuer_matrix(f.certs, f.world.issuer_is_public);
  for (const auto& [vendor, column] : matrix.ratio) {
    double sum = 0;
    for (const auto& [issuer, ratio] : column) sum += ratio;
    EXPECT_NEAR(sum, 1.0, 1e-9) << vendor;
  }
}

TEST(Issuers, VendorAliasTable) {
  EXPECT_EQ(issuer_org_for_vendor("Samsung"), "Samsung Electronics");
  EXPECT_EQ(issuer_org_for_vendor("Dish Network"), "EchoStar");
  EXPECT_EQ(issuer_org_for_vendor("Wyze"), "");
}

// ---------------------------------------------------------------- chains

TEST(Chains, PaperFailureRowsAppear) {
  const auto& f = fixture();
  auto report = validate_dataset(f.certs, f.world, f.probe_day);

  std::set<std::string> failing_slds;
  for (const auto& row : report.failure_rows) failing_slds.insert(row.sld);
  EXPECT_TRUE(failing_slds.count("netflix.com"));
  EXPECT_TRUE(failing_slds.count("roku.com"));
  EXPECT_TRUE(failing_slds.count("nest.com"));
  EXPECT_TRUE(failing_slds.count("samsungcloudsolution.net"));
  EXPECT_TRUE(failing_slds.count("nintendo.net"));

  // netflix.com failures reach devices across many vendors (paper: 21).
  for (const auto& row : report.failure_rows) {
    if (row.sld == "netflix.com" && row.leaf_issuer == "Netflix") {
      EXPECT_GE(row.vendors.size(), 8u);
      EXPECT_GE(row.devices.size(), 30u);
    }
  }
}

TEST(Chains, ExpiredRowsMatchPaper) {
  const auto& f = fixture();
  auto report = validate_dataset(f.certs, f.world, f.probe_day);
  std::set<std::string> expired_slds;
  for (const auto& row : report.expired) expired_slds.insert(row.sld);
  EXPECT_TRUE(expired_slds.count("skyegloup.com"));
  EXPECT_TRUE(expired_slds.count("wink.com"));
  // Both were already expired during the capture window (Table 8's point).
  for (const auto& row : report.expired) {
    if (row.sld == "skyegloup.com" || row.sld == "wink.com") {
      EXPECT_LT(row.not_after, days(2019, 5, 1)) << row.sld;
    }
  }
}

TEST(Chains, SelfSignedAndPrivateRootRows) {
  const auto& f = fixture();
  auto report = validate_dataset(f.certs, f.world, f.probe_day);
  std::set<std::string> self_signed;
  for (const auto& row : report.self_signed_rows) self_signed.insert(row.sld);
  EXPECT_TRUE(self_signed.count("tuyaus.com"));
  EXPECT_TRUE(self_signed.count("dishaccess.tv"));
  EXPECT_TRUE(self_signed.count("samsunghrm.com"));
  EXPECT_TRUE(self_signed.count("ueiwsp.com"));

  std::set<std::string> private_roots;
  for (const auto& row : report.private_root_rows) private_roots.insert(row.sld);
  EXPECT_TRUE(private_roots.count("canaryis.com"));
  EXPECT_TRUE(private_roots.count("lgtvsdp.com"));
}

TEST(Chains, CnMismatchIsTuya) {
  const auto& f = fixture();
  auto report = validate_dataset(f.certs, f.world, f.probe_day);
  bool found = false;
  for (const SniValidation* v : report.cn_mismatches) {
    if (v->sni == "a2.tuyaus.com") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Chains, PrivateLeafFailureRatioNearPaper) {
  const auto& f = fixture();
  auto report = validate_dataset(f.certs, f.world, f.probe_day);
  // Paper: 45.78% of private-CA leaves sit in failing chains.
  EXPECT_GT(report.private_leaf_failure_ratio, 0.3);
  EXPECT_LT(report.private_leaf_failure_ratio, 1.0);
}

// ---------------------------------------------------------------- CT

TEST(Ct, PrivateLeavesNeverLogged) {
  const auto& f = fixture();
  auto report = ct_report(f.certs, f.world);
  EXPECT_EQ(report.private_leaves_in_ct, 0u);
  EXPECT_GT(report.private_leaves, 30u);
}

TEST(Ct, EightPublicAnomalies) {
  const auto& f = fixture();
  auto report = ct_report(f.certs, f.world);
  EXPECT_EQ(report.public_not_logged.size(), 8u);  // §5.4's exact anomaly count
  std::map<std::string, int> by_issuer;
  for (const auto& point : report.public_not_logged) ++by_issuer[point.leaf_issuer];
  EXPECT_EQ(by_issuer["Microsoft Corporation"], 4);
  EXPECT_EQ(by_issuer["Apple"], 2);
  EXPECT_EQ(by_issuer["Sectigo"], 1);
  EXPECT_EQ(by_issuer["DigiCert"], 1);
}

TEST(Ct, ValiditySplitAroundThousandDays) {
  const auto& f = fixture();
  auto report = ct_report(f.certs, f.world);
  EXPECT_LT(report.max_public_validity, 1000);
  EXPECT_GT(report.max_private_validity, 5000);
  EXPECT_GT(report.private_long_validity_ratio, 0.3);  // paper: 46.67%
}

TEST(Ct, NetflixValidityVariance) {
  const auto& f = fixture();
  auto rows = issuer_validity_variance(f.certs, f.world, "Netflix");
  ASSERT_GE(rows.size(), 2u);
  // Longest chain: the 8,150-day self-signed estate; none logged.
  EXPECT_EQ(*rows[0].validity_days.rbegin(), 8150);
  bool has_short = false;
  for (const auto& row : rows) {
    EXPECT_FALSE(row.any_in_ct);
    if (*row.validity_days.begin() <= 36) has_short = true;
  }
  EXPECT_TRUE(has_short);  // the 30-36 day leaves under VeriSign
}

// ---------------------------------------------------------------- case studies

TEST(CaseStudies, SmartTvGroupsDiffer) {
  const auto& f = fixture();
  auto study = smart_tv_study(f.world, f.universe, f.corpus, f.probe_day);
  EXPECT_GT(study.pcap_packets, 20u);
  EXPECT_EQ(study.pcap_hellos, study.pcap_packets);  // one hello per flow
  EXPECT_GE(study.pcap_fingerprints, 2u);

  // Roku's estate mixes public and private issuers with huge validity
  // spread; Amazon's stays public/short (Fig. 7's contrast).
  bool roku_private = false;
  std::int64_t roku_max = 0;
  for (const auto& pts : study.roku.issuers) {
    if (!pts.issuer_public) roku_private = true;
    for (std::int64_t d : pts.validity_days) roku_max = std::max(roku_max, d);
  }
  EXPECT_TRUE(roku_private);
  EXPECT_GT(roku_max, 4000);

  std::int64_t amazon_max = 0;
  for (const auto& pts : study.amazon.issuers) {
    for (std::int64_t d : pts.validity_days) amazon_max = std::max(amazon_max, d);
  }
  EXPECT_LT(amazon_max, 1000);
  EXPECT_FALSE(study.roku.invalid.untrusted_root.empty() &&
               study.roku.invalid.incomplete_chain.empty());
}

TEST(CaseStudies, LocalNetworkPki) {
  auto study = local_network_study();
  ASSERT_EQ(study.observations.size(), 5u);
  // TLS 1.3 link hides its certificates.
  const LocalObservation* macbook = nullptr;
  const LocalObservation* echo_link = nullptr;
  for (const auto& obs : study.observations) {
    if (obs.client == "MacBook") macbook = &obs;
    if (obs.server == "Echo") echo_link = &obs;
  }
  ASSERT_NE(macbook, nullptr);
  EXPECT_FALSE(macbook->certificates_visible);
  ASSERT_NE(echo_link, nullptr);
  EXPECT_EQ(echo_link->port, 55443);
  EXPECT_EQ(echo_link->leaf_common_name, "192.168.1.23");  // IP as CN
  EXPECT_EQ(echo_link->chain_length, 1u);

  // Cast-PKI links: the visible chain tops out at a "Chromecast ICA ..."
  // certificate signed by "Cast Root CA" — 20+ year validity, in no store,
  // in no CT log.
  std::size_t cast_links = 0;
  for (const auto& obs : study.observations) {
    if (obs.root_common_name != "Cast Root CA") continue;
    ++cast_links;
    EXPECT_FALSE(obs.root_in_client_store);
    EXPECT_FALSE(obs.in_ct);
    EXPECT_GE(obs.validity_days, 20 * 365);
  }
  EXPECT_EQ(cast_links, 3u);
  EXPECT_EQ(study.long_validity_roots, 3u);
}

}  // namespace
}  // namespace iotls::core
