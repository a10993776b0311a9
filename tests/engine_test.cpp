// Tests for the probe engine both active surveys share: the exchange's
// retry rule, connect failures arriving as values, the server-flight
// parser, and the per-engine handshake histogram that attributes survey
// time to the (simulated) network.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "devicesim/scenario.hpp"
#include "net/engine.hpp"
#include "net/fault.hpp"
#include "net/prober.hpp"
#include "net/stack_fingerprint.hpp"
#include "obs/metrics.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"
#include "x509/authority.hpp"

namespace iotls::net {
namespace {

x509::CertificateAuthority test_ca() {
  return x509::CertificateAuthority::make_root("Engine Test CA", "EngineTest",
                                               x509::CaKind::kPublicTrust, 15000,
                                               30000);
}

SimServer make_server(const std::string& sni, const x509::CertificateAuthority& ca) {
  SimServer server;
  server.sni = sni;
  server.ips = {"203.0.113.7"};
  x509::IssueRequest req;
  req.subject.common_name = sni;
  req.san_dns = {sni};
  req.not_before = 18000;
  req.not_after = 19500;
  server.default_chain = {ca.issue(req), ca.certificate()};
  return server;
}

/// The engine with its exchange opened up for tests.
class TestEngine : public ProbeEngine {
 public:
  explicit TestEngine(const Internet& internet)
      : ProbeEngine(internet, "test.engine") {}
  using ProbeEngine::exchange;
};

ProbeSpec hello_spec(std::vector<std::uint16_t> extensions) {
  return ProbeSpec{"engine-test", 0x0303, modern_suites(), std::move(extensions),
                   {}, {}, false};
}

Exchange exchange_with_retries(const Internet& internet, const ProbeSpec& spec,
                               const std::string& sni, VantagePoint vantage) {
  TestEngine engine(internet);
  RetryPolicy retry;
  retry.max_attempts = 3;
  engine.set_retry_policy(retry);
  const Bytes flight = spec.flight(sni);
  return engine.exchange(sni, vantage, AddressFamily::kIPv4,
                         BytesView(flight.data(), flight.size()), nullptr, sni,
                         nullptr);
}

// ------------------------------------------------------------ retry rule

TEST(ProbeEngine, FlightWithoutSniIsDefinitiveAndNotRetried) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));
  obs::Counter& attempts = obs::metrics().counter("test.engine.attempts");
  const std::uint64_t before = attempts.value();

  // No extension 0: the hello carries no SNI and the network refuses it
  // outright (NetError::kProtocol).
  Exchange ex = exchange_with_retries(internet, hello_spec({10, 11, 13}),
                                      "api.example.com", VantagePoint::kNewYork);
  EXPECT_EQ(ex.attempts, 1);
  EXPECT_EQ(attempts.value() - before, 1u);
  EXPECT_EQ(ex.error, ProbeError::kConnect);
  EXPECT_FALSE(ex.transient);
  EXPECT_EQ(ex.backoff_ms, 0u);
}

TEST(ProbeEngine, WeatherIsRetriedUpToMaxAttempts) {
  auto ca = test_ca();
  SimInternet internet;
  SimServer dark = make_server("dark.example.com", ca);
  dark.unreachable_from = {VantagePoint::kFrankfurt};
  internet.add_server(dark);

  Exchange ex = exchange_with_retries(internet, hello_spec({0, 10, 11, 13}),
                                      "dark.example.com", VantagePoint::kFrankfurt);
  EXPECT_EQ(ex.attempts, 3);
  EXPECT_EQ(ex.error, ProbeError::kTimeout);
  EXPECT_TRUE(ex.transient);
  EXPECT_EQ(ex.retried, ProbeError::kTimeout);
  EXPECT_GT(ex.backoff_ms, 0u);
}

TEST(ProbeEngine, BatteryProbeWithoutSniMakesOneAttempt) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));
  StackFingerprinter fingerprinter(internet);
  fingerprinter.set_battery({hello_spec({10, 11, 13})});
  RetryPolicy retry;
  retry.max_attempts = 3;
  fingerprinter.set_retry_policy(retry);

  StackSurvey survey = fingerprinter.survey({"api.example.com"});
  const StackFingerprint* print =
      survey.results.front().at(VantagePoint::kNewYork, AddressFamily::kIPv4);
  ASSERT_NE(print, nullptr);
  EXPECT_EQ(print->observations.front().canonical, "x|connect");
  EXPECT_EQ(print->observations.front().attempts, 1);
  EXPECT_EQ(survey.summary.retries, 0u);
}

// ------------------------------------------------------ failures as values

TEST(ProbeEngine, EveryFailureKindArrivesAsAValue) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));  // v4 only
  SimServer dark = make_server("dark.example.com", ca);
  dark.reachable = false;
  internet.add_server(dark);
  const FaultInjector timeouts(internet, FaultSpec::parse("seed=3,timeout=1"));
  const FaultInjector resets(internet, FaultSpec::parse("seed=3,reset=1"));
  const FaultInjector outage(internet, FaultSpec::parse("seed=3,outage=newyork:0:100"));

  struct Case {
    const Internet* network;
    std::string sni;
    AddressFamily family;
    std::vector<std::uint16_t> extensions;
    NetError::Kind kind;
    std::string message;
    ProbeError error;
  };
  const std::vector<std::uint16_t> with_sni = {0, 10, 11, 13};
  const Case cases[] = {
      {&internet, "nowhere.example.com", AddressFamily::kIPv4, with_sni,
       NetError::Kind::kNoRoute, "no route to host: nowhere.example.com", ProbeError::kDns},
      {&internet, "api.example.com", AddressFamily::kIPv6, with_sni,
       NetError::Kind::kNoRoute, "no AAAA record: api.example.com", ProbeError::kDns},
      {&internet, "dark.example.com", AddressFamily::kIPv4, with_sni,
       NetError::Kind::kTimeout, "connection timed out: dark.example.com",
       ProbeError::kTimeout},
      {&internet, "api.example.com", AddressFamily::kIPv4, {10, 11, 13},
       NetError::Kind::kProtocol, "ClientHello carries no SNI; cannot route",
       ProbeError::kConnect},
      {&timeouts, "api.example.com", AddressFamily::kIPv4, with_sni,
       NetError::Kind::kTimeout, "injected timeout: api.example.com", ProbeError::kTimeout},
      {&resets, "api.example.com", AddressFamily::kIPv4, with_sni,
       NetError::Kind::kConnect, "injected connection reset: api.example.com",
       ProbeError::kConnect},
      {&outage, "api.example.com", AddressFamily::kIPv4, with_sni,
       NetError::Kind::kTimeout, "injected outage at New York: api.example.com",
       ProbeError::kTimeout},
  };
  obs::Histogram& handshake_ns = obs::metrics().histogram("test.engine.handshake_ns");
  obs::Counter& attempts = obs::metrics().counter("test.engine.attempts");
  for (const Case& c : cases) {
    const Bytes flight = hello_spec(c.extensions).flight(c.sni);
    const BytesView records(flight.data(), flight.size());
    const ConnectResult answer = c.network->connect(VantagePoint::kNewYork, c.family, records);
    ASSERT_FALSE(answer.ok()) << c.message;
    EXPECT_EQ(answer.error->kind(), c.kind) << c.message;
    EXPECT_EQ(std::string(answer.error->what()), c.message);
    EXPECT_TRUE(answer.response.empty()) << c.message;

    // The engine classifies the value: category and detail as before.
    const std::uint64_t count_before = handshake_ns.count();
    const std::uint64_t attempts_before = attempts.value();
    TestEngine engine(*c.network);
    const Exchange ex = engine.exchange(c.sni, VantagePoint::kNewYork, c.family, records,
                                        nullptr, c.sni, nullptr);
    EXPECT_EQ(ex.error, c.error) << c.message;
    EXPECT_EQ(ex.detail, c.message);
    EXPECT_EQ(ex.attempts, 1);
    EXPECT_EQ(handshake_ns.count() - count_before, 1u) << c.message;
    EXPECT_EQ(attempts.value() - attempts_before, 1u) << c.message;
  }
}

TEST(ProbeEngine, MalformedClientBytesStillThrow) {
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));
  const FaultInjector injector(internet, FaultSpec::parse("seed=3,timeout=0.5"));
  const Bytes garbage = {0x16, 0x03, 0x01, 0x00, 0x09, 0x01};
  const BytesView records(garbage.data(), garbage.size());
  for (const Internet* network : {static_cast<const Internet*>(&internet),
                                  static_cast<const Internet*>(&injector)}) {
    EXPECT_THROW(network->connect(VantagePoint::kNewYork, records), ParseError);
    TestEngine engine(*network);
    EXPECT_THROW(engine.exchange("api.example.com", VantagePoint::kNewYork,
                                 AddressFamily::kIPv4, records, nullptr,
                                 "api.example.com", nullptr),
                 ParseError);
  }
}

TEST(ProbeEngine, BatteryHandshakesCountEveryAttemptAcrossFailureKinds) {
  // A dual-stack battery over a v4-only host, a dark host, an unknown
  // name and a healthy one, with injected timeouts, resets and an outage:
  // every attempt, whatever it came back with, is one handshake_ns sample.
  auto ca = test_ca();
  SimInternet internet;
  internet.add_server(make_server("api.example.com", ca));
  SimServer dual = make_server("dual.example.com", ca);
  dual.dual_stack = true;
  internet.add_server(dual);
  SimServer dark = make_server("dark.example.com", ca);
  dark.unreachable_from = {VantagePoint::kSingapore};
  internet.add_server(dark);
  FaultInjector injector(
      internet, FaultSpec::parse("seed=5,timeout=0.3,reset=0.1,outage=frankfurt:4:9"));
  obs::Histogram& handshake_ns = obs::metrics().histogram("net.fingerprint.handshake_ns");
  obs::Counter& attempts = obs::metrics().counter("net.fingerprint.attempts");
  const std::uint64_t count_before = handshake_ns.count();
  const std::uint64_t attempts_before = attempts.value();

  StackFingerprinter fingerprinter(injector);
  fingerprinter.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});
  RetryPolicy retry;
  retry.max_attempts = 3;
  fingerprinter.set_retry_policy(retry);
  StackSurvey survey = fingerprinter.survey(
      {"api.example.com", "dual.example.com", "dark.example.com", "nowhere.example.com"});

  EXPECT_GT(survey.summary.retries, 0u);
  EXPECT_GT(survey.summary.answered_probes, 0u);
  EXPECT_EQ(handshake_ns.count() - count_before, survey.summary.attempts);
  EXPECT_EQ(attempts.value() - attempts_before, survey.summary.attempts);
}

// ----------------------------------------------------------- flight parse

TEST(ServerFlightParse, ReadsHelloChainAndStaple) {
  auto ca = test_ca();
  x509::Crl crl{&ca};
  x509::OcspResponder responder(&ca, &crl);
  SimServer server = make_server("api.example.com", ca);
  server.stapled_response = responder.respond(server.default_chain.front(), 18100);
  SimInternet internet;
  internet.add_server(server);
  const Bytes flight = hello_spec({0, 5, 10, 11, 13}).flight("api.example.com");
  const ConnectResult answer = internet.connect(
      VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_TRUE(answer.ok());
  const Bytes& response = answer.response;
  const BytesView records(response.data(), response.size());

  ServerFlight full = parse_server_flight(records, SIZE_MAX, true);
  EXPECT_TRUE(full.error.empty()) << full.error;
  EXPECT_FALSE(full.alert.has_value());
  ASSERT_TRUE(full.hello.has_value());
  EXPECT_NE(full.hello->cipher_suite, 0);
  EXPECT_EQ(full.chain.size(), 2u);
  ASSERT_TRUE(full.staple.has_value());
  EXPECT_EQ(*full.staple, *server.stapled_response);

  ServerFlight leaf = parse_server_flight(records, 1, false);
  EXPECT_FALSE(leaf.staple.has_value());
  ASSERT_EQ(leaf.chain.size(), 1u);
  EXPECT_EQ(leaf.chain.front().fingerprint(), full.chain.front().fingerprint());
}

TEST(ServerFlightParse, AlertEndsTheParse) {
  auto ca = test_ca();
  SimInternet internet;
  SimServer picky = make_server("picky.example.com", ca);
  picky.supported_suites = {0x1301};
  internet.add_server(picky);
  const Bytes flight = hello_spec({0}).flight("picky.example.com");
  const ConnectResult answer = internet.connect(
      VantagePoint::kNewYork, BytesView(flight.data(), flight.size()));
  ASSERT_TRUE(answer.ok());
  const Bytes& response = answer.response;

  ServerFlight parsed =
      parse_server_flight(BytesView(response.data(), response.size()), SIZE_MAX, true);
  ASSERT_TRUE(parsed.alert.has_value());
  EXPECT_EQ(parsed.alert->description, tls::AlertDescription::kHandshakeFailure);
  EXPECT_FALSE(parsed.hello.has_value());
  EXPECT_TRUE(parsed.chain.empty());
}

TEST(ServerFlightParse, MalformedBytesKeepWhatParsedBefore) {
  // A ServerHello, then a Certificate message that claims more bytes than
  // it carries.
  tls::ServerHello sh;
  sh.cipher_suite = 0xc02f;
  Bytes handshakes = sh.encode();
  const Bytes broken = {0x00, 0x00, 0x09, 0x01};
  const Bytes cert = tls::encode_handshake(tls::HandshakeType::kCertificate,
                                           BytesView(broken.data(), broken.size()));
  handshakes.insert(handshakes.end(), cert.begin(), cert.end());
  const Bytes records = tls::encode_records(
      tls::ContentType::kHandshake, 0x0303,
      BytesView(handshakes.data(), handshakes.size()));

  ServerFlight parsed =
      parse_server_flight(BytesView(records.data(), records.size()), SIZE_MAX, true);
  EXPECT_FALSE(parsed.error.empty());
  ASSERT_TRUE(parsed.hello.has_value());
  EXPECT_EQ(parsed.hello->cipher_suite, 0xc02f);
  EXPECT_TRUE(parsed.chain.empty());

  const Bytes garbage = {0x16, 0x03, 0x03, 0x00, 0x01, 0x02};
  ServerFlight bad =
      parse_server_flight(BytesView(garbage.data(), garbage.size()), SIZE_MAX, true);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(bad.hello.has_value());
}

// -------------------------------------------------- network-time attribution

std::vector<std::string> sample_snis(const SimInternet& internet) {
  std::vector<std::string> snis;
  for (const SimServer* server : internet.servers()) {
    snis.push_back(server->sni);
    if (snis.size() == 24) break;
  }
  snis.push_back(snis.front());
  snis.push_back("dead.engine.invalid");
  return snis;
}

TEST(ProbeEngine, BatteryHandshakeHistogramCountsEveryAttempt) {
  static const devicesim::SimWorld world =
      devicesim::build_world(devicesim::ServerUniverse::standard());
  obs::Histogram& handshake_ns =
      obs::metrics().histogram("net.fingerprint.handshake_ns");
  obs::Counter& attempts = obs::metrics().counter("net.fingerprint.attempts");
  const std::uint64_t count_before = handshake_ns.count();
  const std::uint64_t attempts_before = attempts.value();

  FaultInjector injector(world.internet,
                         FaultSpec::parse("seed=7,timeout=0.2,reset=0.05"));
  StackFingerprinter fingerprinter(injector);
  fingerprinter.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});
  RetryPolicy retry;
  retry.max_attempts = 3;
  fingerprinter.set_retry_policy(retry);
  fingerprinter.set_jobs(4);
  StackSurvey survey = fingerprinter.survey(sample_snis(world.internet));

  EXPECT_GT(survey.summary.retries, 0u);
  EXPECT_EQ(handshake_ns.count() - count_before, survey.summary.attempts);
  EXPECT_EQ(attempts.value() - attempts_before, survey.summary.attempts);
}

TEST(ProbeEngine, ProberHandshakeHistogramCountsEveryAttempt) {
  static const devicesim::SimWorld world =
      devicesim::build_world(devicesim::ServerUniverse::standard());
  obs::Histogram& handshake_ns = obs::metrics().histogram("net.probe.handshake_ns");
  const std::uint64_t before = handshake_ns.count();

  FaultInjector injector(world.internet,
                         FaultSpec::parse("seed=7,timeout=0.2,reset=0.05"));
  TlsProber prober(injector);
  RetryPolicy retry;
  retry.max_attempts = 3;
  prober.set_retry_policy(retry);
  SurveyReport report = prober.survey_report(sample_snis(world.internet));

  EXPECT_GT(report.summary.retries, 0u);
  EXPECT_EQ(handshake_ns.count() - before, report.summary.attempts);
}

}  // namespace
}  // namespace iotls::net
