// Tests for the simulated internet and the TLS prober.
#include <gtest/gtest.h>

#include "net/internet.hpp"
#include "net/prober.hpp"
#include "tls/alert.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"
#include "x509/authority.hpp"

namespace iotls::net {
namespace {

x509::CertificateAuthority test_ca() {
  return x509::CertificateAuthority::make_root("Net Test CA", "NetTest",
                                               x509::CaKind::kPublicTrust, 15000,
                                               30000);
}

SimServer make_server(const std::string& sni, const x509::CertificateAuthority& ca) {
  SimServer server;
  server.sni = sni;
  server.ips = {"203.0.113.5"};
  x509::IssueRequest req;
  req.subject.common_name = sni;
  req.san_dns = {sni};
  req.not_before = 18000;
  req.not_after = 19500;
  server.default_chain = {ca.issue(req), ca.certificate()};
  return server;
}

Bytes client_flight(const std::string& sni,
                    std::vector<std::uint16_t> suites = {0xc02f, 0x009c}) {
  tls::ClientHello ch;
  ch.cipher_suites = std::move(suites);
  ch.set_sni(sni);
  Bytes msg = ch.encode();
  return tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                             BytesView(msg.data(), msg.size()));
}

// ---------------------------------------------------------------- SimServer

TEST(SimServer, NegotiatesServerPreference) {
  SimServer server;
  server.supported_suites = {0xc030, 0xc02f, 0x009c};
  EXPECT_EQ(server.negotiate({0x009c, 0xc02f}), 0xc030 == 0xc030 ? 0xc02f : 0);
  // Server order wins: client offers 009c first but server prefers c02f.
  EXPECT_EQ(server.negotiate({0x009c, 0xc02f}), 0xc02f);
  EXPECT_EQ(server.negotiate({0x1301}), 0);  // no overlap
}

TEST(SimServer, NegotiatesClientPreferenceWhenConfigured) {
  SimServer server;
  server.supported_suites = {0xc030, 0xc02f, 0x009c};
  server.honor_client_order = true;
  EXPECT_EQ(server.negotiate({0x0a0a, 0x009c, 0xc02f}), 0x009c);  // GREASE skipped
}

TEST(SimServer, PerVantageChains) {
  auto ca = test_ca();
  SimServer server = make_server("cdn.example.com", ca);
  x509::IssueRequest req;
  req.subject.common_name = "cdn.example.com";
  req.not_before = 18001;
  req.not_after = 19500;
  server.per_vantage_chain[VantagePoint::kFrankfurt] = {ca.issue(req)};
  EXPECT_NE(server.chain_for(VantagePoint::kFrankfurt).front().fingerprint(),
            server.chain_for(VantagePoint::kNewYork).front().fingerprint());
  EXPECT_EQ(server.chain_for(VantagePoint::kSingapore).front().fingerprint(),
            server.chain_for(VantagePoint::kNewYork).front().fingerprint());
}

TEST(SimServer, RegionalReachability) {
  SimServer server;
  server.reachable = true;
  server.unreachable_from = {VantagePoint::kFrankfurt};
  EXPECT_TRUE(server.reachable_from(VantagePoint::kNewYork));
  EXPECT_FALSE(server.reachable_from(VantagePoint::kFrankfurt));
  server.reachable = false;
  EXPECT_FALSE(server.reachable_from(VantagePoint::kNewYork));
}

// ---------------------------------------------------------------- SimInternet

TEST(SimInternet, FullHandshakeOverWireBytes) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));

  Bytes flight = client_flight("api.example.com");
  ConnectResult answer = internet.connect(VantagePoint::kNewYork,
                                          BytesView(flight.data(), flight.size()));
  ASSERT_TRUE(answer.ok()) << answer.error->what();
  const Bytes& response = answer.response;
  auto records = tls::parse_records(BytesView(response.data(), response.size()));
  Bytes payload = tls::handshake_payload(records);
  auto msgs = tls::split_handshakes(BytesView(payload.data(), payload.size()));
  ASSERT_EQ(msgs.size(), 3u);  // ServerHello, Certificate, Done
  EXPECT_EQ(msgs[0].type, tls::HandshakeType::kServerHello);
  EXPECT_EQ(msgs[1].type, tls::HandshakeType::kCertificate);
  EXPECT_EQ(msgs[2].type, tls::HandshakeType::kServerHelloDone);
}

TEST(SimInternet, UnknownSniRefused) {
  SimInternet internet;
  Bytes flight = client_flight("nowhere.example.com");
  ConnectResult answer =
      internet.connect(VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error->kind(), NetError::Kind::kNoRoute);
  EXPECT_STREQ(answer.error->what(), "no route to host: nowhere.example.com");
  EXPECT_TRUE(answer.response.empty());
}

TEST(SimInternet, UnreachableServerTimesOut) {
  auto ca = test_ca();
  SimInternet internet;
  SimServer server = make_server("dark.example.com", ca);
  server.reachable = false;
  internet.add_server(std::move(server));
  Bytes flight = client_flight("dark.example.com");
  ConnectResult answer =
      internet.connect(VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.error->kind(), NetError::Kind::kTimeout);
  EXPECT_STREQ(answer.error->what(), "connection timed out: dark.example.com");
}

TEST(SimInternet, NoSharedSuiteYieldsFatalAlert) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));
  Bytes flight = client_flight("api.example.com", {0x1301});  // TLS1.3-only
  ConnectResult answer = internet.connect(VantagePoint::kNewYork,
                                          BytesView(flight.data(), flight.size()));
  ASSERT_TRUE(answer.ok());
  const Bytes& response = answer.response;
  auto alert = tls::find_alert(BytesView(response.data(), response.size()));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->level, tls::AlertLevel::kFatal);
  EXPECT_EQ(alert->description, tls::AlertDescription::kHandshakeFailure);
}

TEST(Prober, ReportsAlertAsHandshakeRefusal) {
  auto ca = test_ca();
  SimInternet internet;
  SimServer server = make_server("tls13only-client.example.com", ca);
  server.supported_suites = {0x1301};  // nothing the prober offers
  internet.add_server(std::move(server));
  TlsProber prober(internet);
  ProbeResult result = prober.probe("tls13only-client.example.com",
                                    VantagePoint::kNewYork);
  EXPECT_FALSE(result.reachable);
  EXPECT_EQ(result.error, ProbeError::kAlert);
  EXPECT_NE(result.error_string().find("handshake_failure"), std::string::npos);
}

TEST(SimInternet, MissingSniRefused) {
  SimInternet internet;
  tls::ClientHello ch;
  ch.cipher_suites = {0xc02f};
  Bytes msg = ch.encode();
  Bytes flight = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                     BytesView(msg.data(), msg.size()));
  ConnectResult answer =
      internet.connect(VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_FALSE(answer.ok());
  EXPECT_STREQ(answer.error->what(), "ClientHello carries no SNI; cannot route");
}

TEST(SimInternet, MissingSniCarriesAnExplicitProtocolKind) {
  // The no-SNI rejection must classify structurally (kProtocol), never via
  // the NetError default — a Kind-less failure would let classify_net_error
  // misfile it.
  SimInternet internet;
  tls::ClientHello ch;
  ch.cipher_suites = {0xc02f};
  Bytes msg = ch.encode();
  Bytes flight = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                     BytesView(msg.data(), msg.size()));
  ConnectResult answer =
      internet.connect(VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_FALSE(answer.ok()) << "connect accepted a ClientHello without SNI";
  EXPECT_EQ(answer.error->kind(), NetError::Kind::kProtocol);
}

TEST(SimInternet, MalformedFlightRejected) {
  SimInternet internet;
  Bytes garbage = {0x16, 0x03, 0x01, 0x00};
  EXPECT_THROW(internet.connect(VantagePoint::kNewYork,
                                BytesView(garbage.data(), garbage.size())),
               ParseError);
}

// ---------------------------------------------------------------- prober

TEST(Prober, HarvestsServedChain) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("probe.example.com", ca));
  TlsProber prober(internet);
  ProbeResult result = prober.probe("probe.example.com", VantagePoint::kNewYork);
  EXPECT_TRUE(result.reachable);
  ASSERT_EQ(result.chain.size(), 2u);
  EXPECT_EQ(result.chain[0].subject.common_name, "probe.example.com");
  EXPECT_NE(result.negotiated_suite, 0);
}

TEST(Prober, ReportsUnreachable) {
  SimInternet internet;
  TlsProber prober(internet);
  ProbeResult result = prober.probe("gone.example.com", VantagePoint::kNewYork);
  EXPECT_FALSE(result.reachable);
  EXPECT_EQ(result.error, ProbeError::kDns);
  EXPECT_FALSE(result.error_string().empty());
}

TEST(Prober, MultiVantageConsistency) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("same.example.com", ca));

  SimServer varying = make_server("vary.example.com", ca);
  x509::IssueRequest req;
  req.subject.common_name = "vary.example.com";
  req.san_dns = {"vary.example.com"};
  req.not_before = 18002;
  req.not_after = 19500;
  varying.per_vantage_chain[VantagePoint::kSingapore] = {ca.issue(req),
                                                         ca.certificate()};
  internet.add_server(std::move(varying));

  TlsProber prober(internet);
  EXPECT_TRUE(prober.probe_all_vantages("same.example.com").consistent_across_vantages());
  EXPECT_FALSE(prober.probe_all_vantages("vary.example.com").consistent_across_vantages());
}

// consistent_across_vantages returns *vacuous* agreement when fewer than
// two vantages contributed a leaf: no observable pair disagrees, so the SNI
// counts as consistent (mirrors Table 16, which tallies only observed
// cross-location differences). These tests pin that contract.
TEST(MultiVantage, ConsistencyIsVacuouslyTrueWithZeroReachableVantages) {
  SimInternet internet;  // nothing registered: every vantage fails with kDns
  TlsProber prober(internet);
  MultiVantageResult multi = prober.probe_all_vantages("void.example.com");
  for (const auto& [vantage, result] : multi.by_vantage) {
    ASSERT_FALSE(result.reachable);
  }
  EXPECT_TRUE(multi.consistent_across_vantages());
}

TEST(MultiVantage, ConsistencyIsVacuouslyTrueWithOneReachableVantage) {
  auto ca = test_ca();
  SimInternet internet;
  SimServer lonely = make_server("lonely.example.com", ca);
  lonely.unreachable_from = {VantagePoint::kFrankfurt, VantagePoint::kSingapore};
  internet.add_server(std::move(lonely));
  TlsProber prober(internet);
  MultiVantageResult multi = prober.probe_all_vantages("lonely.example.com");
  EXPECT_TRUE(multi.by_vantage.at(VantagePoint::kNewYork).reachable);
  EXPECT_FALSE(multi.by_vantage.at(VantagePoint::kFrankfurt).reachable);
  // One leaf has no partner to disagree with.
  EXPECT_TRUE(multi.consistent_across_vantages());
}

TEST(MultiVantage, ConsistencyIgnoresReachableButEmptyChains) {
  // Reachable vantages that served an empty Certificate message contribute
  // no leaf; agreement over the remaining (zero) leaves is vacuous.
  SimServer hollow;
  hollow.sni = "hollow.example.com";  // no chain at all
  SimInternet internet;
  internet.add_server(std::move(hollow));
  TlsProber prober(internet);
  MultiVantageResult multi = prober.probe_all_vantages("hollow.example.com");
  for (const auto& [vantage, result] : multi.by_vantage) {
    ASSERT_TRUE(result.reachable);
    ASSERT_TRUE(result.chain.empty());
  }
  EXPECT_TRUE(multi.consistent_across_vantages());
}

TEST(Prober, SurveyCoversAllSnis) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("a.example.com", ca));
  internet.add_server(make_server("b.example.com", ca));
  TlsProber prober(internet);
  auto results = prober.survey({"a.example.com", "b.example.com", "missing.example.com"});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].by_vantage.at(VantagePoint::kNewYork).reachable);
  EXPECT_FALSE(results[2].by_vantage.at(VantagePoint::kNewYork).reachable);
}

}  // namespace
}  // namespace iotls::net
