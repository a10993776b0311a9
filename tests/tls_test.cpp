// Tests for the TLS wire-format substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "crypto/md5.hpp"
#include "devicesim/scenario.hpp"
#include "net/stack_fingerprint.hpp"
#include "tls/ciphersuite.hpp"
#include "tls/clienthello.hpp"
#include "tls/alert.hpp"
#include "tls/extension.hpp"
#include "tls/fingerprint.hpp"
#include "tls/grease.hpp"
#include "tls/record.hpp"
#include "tls/serverhello.hpp"
#include "tls/version.hpp"
#include "util/error.hpp"
#include "util/reader.hpp"
#include "util/rng.hpp"

namespace iotls::tls {
namespace {

ClientHello sample_hello() {
  ClientHello ch;
  ch.legacy_version = 0x0303;
  for (std::size_t i = 0; i < ch.random.size(); ++i)
    ch.random[i] = static_cast<std::uint8_t>(i);
  ch.session_id = {0xaa, 0xbb};
  ch.cipher_suites = {0xc02b, 0xc02f, 0xcca9, 0x009c, 0x002f, 0x000a};
  ch.extensions.push_back({0x000a, {0x00, 0x02, 0x00, 0x17}});  // supported_groups
  ch.extensions.push_back({0x000b, {0x01, 0x00}});              // ec_point_formats
  ch.set_sni("api.example.com");
  return ch;
}

// ---------------------------------------------------------------- versions

TEST(Version, Names) {
  EXPECT_EQ(version_name(Version::kTls12), "TLS 1.2");
  EXPECT_EQ(version_name(Version::kSsl30), "SSL 3.0");
  EXPECT_EQ(version_name(std::uint16_t{0x0305}), "0x0305");
}

TEST(Version, Deprecation) {
  EXPECT_TRUE(is_deprecated_version(Version::kSsl30));
  EXPECT_TRUE(is_deprecated_version(Version::kTls10));
  EXPECT_FALSE(is_deprecated_version(Version::kTls12));
}

// ---------------------------------------------------------------- GREASE

TEST(Grease, SixteenValues) {
  auto values = grease_values();
  ASSERT_EQ(values.size(), 16u);
  EXPECT_EQ(values.front(), 0x0a0a);
  EXPECT_EQ(values.back(), 0xfafa);
  for (std::uint16_t v : values) EXPECT_TRUE(is_grease(v));
}

TEST(Grease, NonGreaseRejected) {
  EXPECT_FALSE(is_grease(0x1301));
  EXPECT_FALSE(is_grease(0x0a1a));
  EXPECT_FALSE(is_grease(0x1a0a));
  EXPECT_FALSE(is_grease(0x0000));
}

// ---------------------------------------------------------------- ciphersuite registry

TEST(CipherSuite, KnownSuiteDecomposition) {
  CipherSuiteInfo info = suite_info(0xc02f);
  EXPECT_EQ(info.name, "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256");
  EXPECT_EQ(info.kex_auth, KexAuth::kEcdhe);
  EXPECT_EQ(info.cipher, Cipher::kAes128Gcm);
  EXPECT_EQ(info.mac, Mac::kAead);
}

TEST(CipherSuite, UnknownSuiteSynthesized) {
  CipherSuiteInfo info = suite_info(0xeeee);
  EXPECT_EQ(info.name, "UNKNOWN_0xeeee");
  EXPECT_FALSE(is_registered_suite(0xeeee));
}

TEST(CipherSuite, ClassificationRules) {
  // Optimal: TLS 1.3 and ECDHE+AEAD.
  EXPECT_EQ(classify_suite(0x1301), SecurityLevel::kOptimal);
  EXPECT_EQ(classify_suite(0xc02b), SecurityLevel::kOptimal);
  EXPECT_EQ(classify_suite(0xcca8), SecurityLevel::kOptimal);
  // Suboptimal: non-PFS RSA key transport, CBC modes.
  EXPECT_EQ(classify_suite(0x009c), SecurityLevel::kSuboptimal);  // RSA+GCM
  EXPECT_EQ(classify_suite(0xc013), SecurityLevel::kSuboptimal);  // ECDHE CBC
  EXPECT_EQ(classify_suite(0x002f), SecurityLevel::kSuboptimal);  // RSA CBC
  // Vulnerable: 3DES, RC4, DES, NULL, export, anonymous.
  EXPECT_EQ(classify_suite(0x000a), SecurityLevel::kVulnerable);  // 3DES
  EXPECT_EQ(classify_suite(0x0005), SecurityLevel::kVulnerable);  // RC4
  EXPECT_EQ(classify_suite(0x0009), SecurityLevel::kVulnerable);  // DES
  EXPECT_EQ(classify_suite(0x0001), SecurityLevel::kVulnerable);  // NULL
  EXPECT_EQ(classify_suite(0x0003), SecurityLevel::kVulnerable);  // export RC4_40
  EXPECT_EQ(classify_suite(0x0034), SecurityLevel::kVulnerable);  // DH_anon
  // Signalling values carry no algorithms.
  EXPECT_EQ(classify_suite(kEmptyRenegotiationInfoScsv), SecurityLevel::kSignalling);
  EXPECT_EQ(classify_suite(kFallbackScsv), SecurityLevel::kSignalling);
  EXPECT_EQ(classify_suite(0x0a0a), SecurityLevel::kSignalling);  // GREASE
}

TEST(CipherSuite, Md5MacAloneIsNotVulnerable) {
  // §4.2 footnote: MD5/SHA-1 as MAC is not counted as vulnerable. RC4_128
  // with MD5 is vulnerable because of RC4, but a hypothetical AES+MD5 suite
  // must not be; the closest registered representative is KRB5 3DES MD5
  // (vulnerable via 3DES) vs CBC SHA (suboptimal) — verify via components:
  CipherSuiteInfo info = suite_info(0x003c);  // AES_128_CBC_SHA256
  EXPECT_TRUE(vulnerable_components(info).empty());
}

TEST(CipherSuite, VulnerableComponentTags) {
  EXPECT_EQ(vulnerable_components(suite_info(0x000a)),
            std::vector<std::string>{"3DES"});
  EXPECT_EQ(vulnerable_components(suite_info(0x0005)),
            std::vector<std::string>{"RC4"});
  auto anon_export = vulnerable_components(suite_info(0x0017));  // DH_anon EXPORT RC4_40
  EXPECT_EQ(anon_export, (std::vector<std::string>{"ANON", "EXPORT", "RC4"}));
}

TEST(CipherSuite, ListClassificationWorstWins) {
  EXPECT_EQ(classify_suite_list({0x1301, 0xc02b}), SecurityLevel::kOptimal);
  EXPECT_EQ(classify_suite_list({0x1301, 0x002f}), SecurityLevel::kSuboptimal);
  EXPECT_EQ(classify_suite_list({0x1301, 0x000a}), SecurityLevel::kVulnerable);
  EXPECT_EQ(classify_suite_list({0x00ff}), SecurityLevel::kSuboptimal);  // only SCSV
}

TEST(CipherSuite, ListVulnerableComponentsAreUnionSorted) {
  auto tags = list_vulnerable_components({0x000a, 0x0005, 0xc012});
  EXPECT_EQ(tags, (std::vector<std::string>{"3DES", "RC4"}));
}

TEST(CipherSuite, SimilarComponents) {
  EXPECT_TRUE(similar_cipher(Cipher::kAes128Cbc, Cipher::kAes256Cbc));
  EXPECT_TRUE(similar_cipher(Cipher::kAes128Gcm, Cipher::kAes256Gcm));
  EXPECT_FALSE(similar_cipher(Cipher::kAes128Cbc, Cipher::kAes128Gcm));
  EXPECT_TRUE(similar_mac(Mac::kSha256, Mac::kSha384));
  EXPECT_FALSE(similar_mac(Mac::kSha1, Mac::kSha256));  // B.2: SHA-1 !~ SHA256
}

// Property: every registered suite has a non-empty name and classification
// consistent with its vulnerable-component tags.
class AllSuites : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(AllSuites, ClassificationConsistentWithTags) {
  CipherSuiteInfo info = suite_info(GetParam());
  EXPECT_FALSE(info.name.empty());
  auto tags = vulnerable_components(info);
  SecurityLevel level = classify_suite(info);
  if (level == SecurityLevel::kVulnerable) {
    EXPECT_FALSE(tags.empty()) << info.name;
  } else {
    EXPECT_TRUE(tags.empty()) << info.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllSuites,
                         ::testing::ValuesIn(all_registered_suites()));

// ---------------------------------------------------------------- extensions

TEST(Extension, Names) {
  EXPECT_EQ(extension_name(0), "server_name");
  EXPECT_EQ(extension_name(16), "application_layer_protocol_negotiation");
  EXPECT_EQ(extension_name(0xff01), "renegotiation_info");
  EXPECT_EQ(extension_name(0x2a2a), "GREASE");
  EXPECT_EQ(extension_name(0x7777), "ext_0x7777");
}

TEST(Extension, ApplicationSpecific) {
  EXPECT_TRUE(is_application_specific_extension(16));      // ALPN
  EXPECT_TRUE(is_application_specific_extension(0x3374));  // NPN
  EXPECT_FALSE(is_application_specific_extension(0));
}

// ---------------------------------------------------------------- ClientHello

TEST(ClientHello, EncodeParseRoundTrip) {
  ClientHello ch = sample_hello();
  Bytes wire = ch.encode();
  ClientHello parsed = ClientHello::parse(BytesView(wire.data(), wire.size()));
  EXPECT_EQ(parsed, ch);
}

TEST(ClientHello, SniAccessor) {
  ClientHello ch = sample_hello();
  ASSERT_TRUE(ch.sni().has_value());
  EXPECT_EQ(*ch.sni(), "api.example.com");
}

TEST(ClientHello, SetSniReplacesExisting) {
  ClientHello ch = sample_hello();
  ch.set_sni("other.example.org");
  EXPECT_EQ(*ch.sni(), "other.example.org");
  // Still exactly one server_name extension.
  int count = 0;
  for (const auto& e : ch.extensions) count += (e.type == 0);
  EXPECT_EQ(count, 1);
}

TEST(ClientHello, NoExtensionsLegacyForm) {
  ClientHello ch;
  ch.cipher_suites = {0x002f};
  Bytes wire = ch.encode();
  ClientHello parsed = ClientHello::parse(BytesView(wire.data(), wire.size()));
  EXPECT_TRUE(parsed.extensions.empty());
  EXPECT_FALSE(parsed.sni().has_value());
}

TEST(ClientHello, OfferedVersionUsesSupportedVersions) {
  ClientHello ch = sample_hello();
  EXPECT_EQ(ch.offered_version(), 0x0303);
  // Add supported_versions offering TLS 1.3 (with a GREASE member).
  ch.extensions.push_back({43, {0x06, 0x2a, 0x2a, 0x03, 0x04, 0x03, 0x03}});
  EXPECT_EQ(ch.offered_version(), 0x0304);
}

TEST(ClientHello, TruncatedInputThrows) {
  ClientHello ch = sample_hello();
  Bytes wire = ch.encode();
  for (std::size_t cut : {1u, 5u, 20u, 40u}) {
    ASSERT_LT(cut, wire.size());
    EXPECT_THROW(
        ClientHello::parse(BytesView(wire.data(), wire.size() - cut)),
        ParseError)
        << "cut " << cut;
  }
}

TEST(ClientHello, TrailingGarbageThrows) {
  Bytes wire = sample_hello().encode();
  wire.push_back(0x00);
  EXPECT_THROW(ClientHello::parse(BytesView(wire.data(), wire.size())), ParseError);
}

TEST(ClientHello, WrongHandshakeTypeThrows) {
  Bytes wire = sample_hello().encode();
  wire[0] = 2;  // ServerHello type
  EXPECT_THROW(ClientHello::parse(BytesView(wire.data(), wire.size())), ParseError);
}

TEST(ClientHello, MalformedSniIsAbsentNotFatal) {
  ClientHello ch;
  ch.cipher_suites = {0x002f};
  ch.extensions.push_back({0, {0xff}});  // truncated SNI payload
  Bytes wire = ch.encode();
  ClientHello parsed = ClientHello::parse(BytesView(wire.data(), wire.size()));
  EXPECT_FALSE(parsed.sni().has_value());
}

// ---------------------------------------------------------------- ServerHello / Certificate

TEST(ServerHello, EncodeParseRoundTrip) {
  ServerHello sh;
  sh.version = 0x0303;
  sh.random[0] = 0x42;
  sh.cipher_suite = 0xc02f;
  sh.extensions.push_back({0xff01, {}});
  Bytes wire = sh.encode();
  EXPECT_EQ(ServerHello::parse(BytesView(wire.data(), wire.size())), sh);
}

TEST(CertificateMsg, EncodeParseRoundTrip) {
  CertificateMsg msg;
  msg.chain = {{0x01, 0x02, 0x03}, {0x04}, {}};
  Bytes wire = msg.encode();
  EXPECT_EQ(CertificateMsg::parse(BytesView(wire.data(), wire.size())), msg);
}

TEST(Handshake, SplitMultipleMessages) {
  ClientHello ch = sample_hello();
  CertificateMsg cert;
  cert.chain = {{0xde, 0xad}};
  Bytes stream = ch.encode();
  Bytes second = cert.encode();
  stream.insert(stream.end(), second.begin(), second.end());
  auto msgs = split_handshakes(BytesView(stream.data(), stream.size()));
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].type, HandshakeType::kClientHello);
  EXPECT_EQ(msgs[1].type, HandshakeType::kCertificate);
}

TEST(Handshake, FirstClientHelloFromRecordStream) {
  auto records_of = [](const Bytes& handshakes) {
    return encode_records(ContentType::kHandshake, 0x0303,
                          BytesView(handshakes.data(), handshakes.size()));
  };
  ClientHello ch = sample_hello();
  CertificateMsg cert;
  cert.chain = {{0xde, 0xad}};
  Bytes hello = ch.encode();
  Bytes other = cert.encode();

  // The hello may follow other messages.
  Bytes stream = other;
  stream.insert(stream.end(), hello.begin(), hello.end());
  Bytes wire = records_of(stream);
  std::optional<ClientHello> got = first_client_hello(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, ch);

  // Decodable, but no hello.
  wire = records_of(other);
  EXPECT_FALSE(first_client_hello(BytesView(wire.data(), wire.size())).has_value());

  // A truncated message after the hello fails the framing, as
  // split_handshakes() does.
  stream = hello;
  stream.insert(stream.end(), {0x0b, 0x00, 0x00, 0x09, 0x01});
  wire = records_of(stream);
  EXPECT_THROW(first_client_hello(BytesView(wire.data(), wire.size())), ParseError);

  // Not a record stream.
  Bytes junk = {0x16, 0x03, 0x03, 0x00, 0x40, 0x01};
  EXPECT_THROW(first_client_hello(BytesView(junk.data(), junk.size())), ParseError);
}

// ------------------------------------------------- in-place hello reading
//
// ClientHelloView and find_client_hello() read a client flight without
// copying it. The oracle below is an independent copying parser: every
// record payload copied, the handshakes split into owned messages, the
// hello parsed field by field. On every input both must agree on the
// outcome (a hello, no hello, or the same ParseError message) and, for a
// hello, on its SNI; first_client_hello() must return the oracle's hello.

/// The copying parser: the first ClientHello of `wire`, nullopt when the
/// handshakes carry none; throws ParseError like first_client_hello().
std::optional<ClientHello> oracle_first_client_hello(BytesView wire) {
  Bytes handshakes;
  Reader records(wire);
  while (!records.empty()) {
    std::uint8_t type = records.u8();
    if (type < 20 || type > 23) throw ParseError("unknown TLS record content type");
    records.u16();
    std::uint16_t len = records.u16();
    if (len > kMaxFragment) throw ParseError("TLS record fragment exceeds 2^14");
    Bytes payload = records.bytes(len);
    if (type == 22) handshakes.insert(handshakes.end(), payload.begin(), payload.end());
  }
  std::optional<Bytes> body;
  Reader messages(BytesView(handshakes.data(), handshakes.size()));
  while (!messages.empty()) {
    std::uint8_t type = messages.u8();
    Bytes message = messages.bytes(messages.u24());
    if (type == 1 && !body.has_value()) body = std::move(message);
  }
  if (!body.has_value()) return std::nullopt;

  Reader r(BytesView(body->data(), body->size()));
  ClientHello ch;
  ch.legacy_version = r.u16();
  Bytes random = r.bytes(32);
  std::copy(random.begin(), random.end(), ch.random.begin());
  std::uint8_t sid_len = r.u8();
  if (sid_len > 32) throw ParseError("session_id length > 32");
  ch.session_id = r.bytes(sid_len);
  std::uint16_t cs_len = r.u16();
  if (cs_len % 2 != 0) throw ParseError("odd cipher_suites length");
  Reader cs(r.view(cs_len));
  while (!cs.empty()) ch.cipher_suites.push_back(cs.u16());
  std::uint8_t comp_len = r.u8();
  if (comp_len == 0) throw ParseError("empty compression_methods");
  ch.compression_methods = r.bytes(comp_len);
  if (!r.empty()) {
    Reader block(r.view(r.u16()));
    while (!block.empty()) {
      Extension e;
      e.type = block.u16();
      e.data = block.bytes(block.u16());
      ch.extensions.push_back(std::move(e));
    }
  }
  r.expect_end("ClientHello body");
  return ch;
}

/// The oracle's SNI rule: the first server_name extension that parses and
/// names a host_name; a malformed one ends the search with no SNI.
std::optional<std::string> oracle_sni(const ClientHello& ch) {
  for (const Extension& e : ch.extensions) {
    if (e.type != 0) continue;
    try {
      Reader r(BytesView(e.data.data(), e.data.size()));
      Reader list(r.view(r.u16()));
      while (!list.empty()) {
        std::uint8_t name_type = list.u8();
        std::string name = list.str(list.u16());
        if (name_type == 0) return name;
      }
    } catch (const ParseError&) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// One reader's verdict on a flight: "hello:<sni or ->", "none", or
/// "error:<ParseError message>".
template <typename Read>
std::string verdict(Read&& read) {
  try {
    return read();
  } catch (const ParseError& e) {
    return std::string("error:") + e.what();
  }
}

std::string hello_verdict(const std::optional<std::string>& sni) {
  return "hello:" + sni.value_or("-");
}

/// Offsets of the low bytes of a single-record battery flight's length
/// fields: record, handshake, session_id, cipher_suites,
/// compression_methods, the extension block, every extension, and the
/// server_name list and host_name.
std::vector<std::size_t> length_fields(const Bytes& flight) {
  std::vector<std::size_t> out = {4, 8, 43, 45};
  std::size_t pos = 46 + (static_cast<std::size_t>(flight[44]) << 8 | flight[45]);
  out.push_back(pos);  // compression_methods length (one byte)
  pos += 1 + flight[pos];
  out.push_back(pos + 1);  // extension block length
  for (pos += 2; pos + 4 <= flight.size();) {
    const std::size_t len = static_cast<std::size_t>(flight[pos + 2]) << 8 | flight[pos + 3];
    out.push_back(pos + 3);
    if (flight[pos] == 0 && flight[pos + 1] == 0) {
      out.push_back(pos + 5);  // server_name list length
      out.push_back(pos + 8);  // host_name length
    }
    pos += 4 + len;
  }
  return out;
}

TEST(ClientHelloView, AgreesWithTheCopyingParserOnBatteryFlightsAndMutations) {
  const std::vector<net::ProbeSpec>& battery = net::StackFingerprinter::standard_battery();
  Rng rng(0x5eed);
  std::size_t inputs = 0;
  std::size_t hellos = 0;
  std::size_t errors = 0;
  std::size_t no_hello = 0;
  auto check = [&](const Bytes& wire, const std::string& what) {
    const BytesView b(wire.data(), wire.size());
    ++inputs;
    std::optional<ClientHello> expected;
    const std::string oracle = verdict([&] {
      expected = oracle_first_client_hello(b);
      return expected.has_value() ? hello_verdict(oracle_sni(*expected)) : "none";
    });
    const std::string view = verdict([&] {
      const RecordStream records(b);
      std::optional<ClientHelloView> hello = find_client_hello(records);
      if (!hello.has_value()) return std::string("none");
      std::optional<std::string_view> sni = hello->sni();
      return hello_verdict(sni ? std::optional<std::string>(*sni) : std::nullopt);
    });
    std::optional<ClientHello> copied;
    const std::string first = verdict([&] {
      copied = first_client_hello(b);
      return copied.has_value() ? hello_verdict(copied->sni()) : "none";
    });
    ASSERT_EQ(view, oracle) << what;
    ASSERT_EQ(first, oracle) << what;
    ASSERT_EQ(copied, expected) << what;
    if (oracle.rfind("hello:", 0) == 0) ++hellos;
    else if (oracle == "none") ++no_hello;
    else ++errors;
  };

  const devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  for (const devicesim::ServerSpec& server : universe.specs()) {
    for (const net::ProbeSpec& spec : battery) {
      const Bytes flight = spec.flight(server.fqdn);
      const std::string what = spec.name + " " + server.fqdn;
      check(flight, what);

      Bytes cut(flight.begin(), flight.begin() + static_cast<std::ptrdiff_t>(
                                                     rng.uniform(0, flight.size() - 1)));
      check(cut, what + " truncated to " + std::to_string(cut.size()));

      Bytes flipped = flight;
      const std::size_t at = static_cast<std::size_t>(rng.uniform(0, flight.size() - 1));
      flipped[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
      check(flipped, what + " flipped at " + std::to_string(at));

      const std::vector<std::size_t> fields = length_fields(flight);
      const std::size_t field = rng.pick(fields);
      Bytes corrupt = flight;
      corrupt[field] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
      check(corrupt, what + " length field at " + std::to_string(field));

      // The same handshake bytes split over two records: the view joins them.
      const BytesView hs(flight.data() + 5, flight.size() - 5);
      const std::size_t split = static_cast<std::size_t>(rng.uniform(1, hs.size() - 1));
      Bytes fragmented = encode_records(ContentType::kHandshake, 0x0301, hs.subspan(0, split));
      const Bytes tail = encode_records(ContentType::kHandshake, 0x0301, hs.subspan(split));
      fragmented.insert(fragmented.end(), tail.begin(), tail.end());
      check(fragmented, what + " split at " + std::to_string(split));
    }
  }
  // Every outcome class was exercised.
  EXPECT_GT(hellos, inputs / 2);
  EXPECT_GT(errors, inputs / 10);
  EXPECT_GT(no_hello, 0u);
}

TEST(ClientHelloView, ParseRoundTripsThroughTheView) {
  const ClientHello ch = sample_hello();
  const Bytes wire = ch.encode();
  const ClientHelloView view = ClientHelloView::parse(BytesView(wire.data(), wire.size()));
  EXPECT_EQ(view.legacy_version, ch.legacy_version);
  EXPECT_EQ(view.cipher_suites.size(), 2 * ch.cipher_suites.size());
  ASSERT_TRUE(view.sni().has_value());
  EXPECT_EQ(*view.sni(), "api.example.com");
  EXPECT_EQ(ClientHello::from(view), ch);
}

// ---------------------------------------------------------------- record layer

TEST(Record, RoundTrip) {
  Bytes payload = sample_hello().encode();
  Bytes stream = encode_records(ContentType::kHandshake, 0x0301,
                                BytesView(payload.data(), payload.size()));
  auto records = parse_records(BytesView(stream.data(), stream.size()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, ContentType::kHandshake);
  EXPECT_EQ(records[0].version, 0x0301);
  EXPECT_EQ(handshake_payload(records), payload);
}

TEST(Record, FragmentsLargePayloads) {
  Bytes payload(kMaxFragment * 2 + 100, 0x5a);
  Bytes stream = encode_records(ContentType::kApplicationData, 0x0303,
                                BytesView(payload.data(), payload.size()));
  auto records = parse_records(BytesView(stream.data(), stream.size()));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload.size(), kMaxFragment);
  EXPECT_EQ(records[2].payload.size(), 100u);
}

TEST(Record, EmptyPayloadYieldsOneEmptyRecord) {
  Bytes stream = encode_records(ContentType::kAlert, 0x0303, {});
  auto records = parse_records(BytesView(stream.data(), stream.size()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].payload.empty());
}

TEST(Record, BadContentTypeThrows) {
  Bytes stream = {0x55, 3, 3, 0, 0};
  EXPECT_THROW(parse_records(BytesView(stream.data(), stream.size())), ParseError);
}

TEST(Record, TruncatedRecordThrows) {
  Bytes payload = {1, 2, 3};
  Bytes stream = encode_records(ContentType::kHandshake, 0x0303,
                                BytesView(payload.data(), payload.size()));
  stream.pop_back();
  EXPECT_THROW(parse_records(BytesView(stream.data(), stream.size())), ParseError);
}

// ---------------------------------------------------------------- alerts

TEST(Alert, EncodeParseRoundTrip) {
  Alert alert{AlertLevel::kFatal, AlertDescription::kCertificateExpired};
  Bytes wire = alert.encode();
  EXPECT_EQ(Alert::parse(BytesView(wire.data(), wire.size())), alert);
  EXPECT_EQ(alert_description_name(alert.description), "certificate_expired");
}

TEST(Alert, ParseRejectsBadInput) {
  Bytes short_payload = {2};
  EXPECT_THROW(Alert::parse(BytesView(short_payload.data(), short_payload.size())),
               ParseError);
  Bytes bad_level = {9, 40};
  EXPECT_THROW(Alert::parse(BytesView(bad_level.data(), bad_level.size())),
               ParseError);
}

TEST(Alert, FindAlertInRecordStream) {
  Alert alert{AlertLevel::kFatal, AlertDescription::kHandshakeFailure};
  Bytes payload = alert.encode();
  Bytes stream = encode_records(ContentType::kAlert, 0x0303,
                                BytesView(payload.data(), payload.size()));
  auto found = find_alert(BytesView(stream.data(), stream.size()));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, alert);

  Bytes handshake = sample_hello().encode();
  Bytes hs_stream = encode_records(ContentType::kHandshake, 0x0303,
                                   BytesView(handshake.data(), handshake.size()));
  EXPECT_FALSE(find_alert(BytesView(hs_stream.data(), hs_stream.size())).has_value());
  EXPECT_FALSE(find_alert(BytesView{}).has_value());
}

// ---------------------------------------------------------------- fingerprints

TEST(Fingerprint, KeyFormat) {
  ClientHello ch = sample_hello();
  Fingerprint fp = fingerprint_of(ch);
  EXPECT_EQ(fp.key(),
            "771,49195-49199-52393-156-47-10,0-10-11");
}

TEST(Fingerprint, GreaseStrippedByDefault) {
  ClientHello ch = sample_hello();
  ClientHello greased = ch;
  greased.cipher_suites.insert(greased.cipher_suites.begin(), 0x1a1a);
  greased.extensions.push_back({0xfafa, {}});
  EXPECT_EQ(fingerprint_of(ch), fingerprint_of(greased));
  EXPECT_NE(fingerprint_of(ch, {.strip_grease = false}),
            fingerprint_of(greased, {.strip_grease = false}));
}

TEST(Fingerprint, GreaseRotationIsStable) {
  // A client that rotates GREASE values across connections keeps one
  // fingerprint — required for App. B.10's counting to make sense.
  ClientHello a = sample_hello();
  ClientHello b = sample_hello();
  a.cipher_suites.insert(a.cipher_suites.begin(), 0x0a0a);
  b.cipher_suites.insert(b.cipher_suites.begin(), 0x8a8a);
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(b));
}

TEST(Fingerprint, OrderMatters) {
  ClientHello a = sample_hello();
  ClientHello b = sample_hello();
  std::swap(b.cipher_suites[0], b.cipher_suites[1]);
  EXPECT_NE(fingerprint_of(a), fingerprint_of(b));
}

TEST(Fingerprint, Ja3IsMd5OfKey) {
  Fingerprint fp = fingerprint_of(sample_hello());
  EXPECT_EQ(fp.ja3().size(), 32u);
  EXPECT_EQ(fp.ja3(), iotls::crypto::md5_hex(fp.key()));
}

TEST(Fingerprint, CiphersuitesOnlyAblation) {
  ClientHello a = sample_hello();
  ClientHello b = sample_hello();
  b.extensions.push_back({35, {}});  // extra session_ticket
  FingerprintOptions cs_only{.include_extensions = false, .include_version = false};
  EXPECT_NE(fingerprint_of(a), fingerprint_of(b));
  EXPECT_EQ(fingerprint_of(a, cs_only), fingerprint_of(b, cs_only));
}

TEST(Fingerprint, GreaseDetection) {
  ClientHello ch = sample_hello();
  EXPECT_FALSE(has_grease_ciphersuite(ch));
  EXPECT_FALSE(has_grease_extension(ch));
  ch.cipher_suites.push_back(0x3a3a);
  EXPECT_TRUE(has_grease_ciphersuite(ch));
  ch.extensions.push_back({0x4a4a, {}});
  EXPECT_TRUE(has_grease_extension(ch));
}

TEST(Fingerprint, SurvivesWireRoundTrip) {
  // Property: fingerprint(parse(encode(ch))) == fingerprint(ch).
  ClientHello ch = sample_hello();
  ch.cipher_suites.push_back(0x0a0a);
  Bytes wire = ch.encode();
  ClientHello parsed = ClientHello::parse(BytesView(wire.data(), wire.size()));
  EXPECT_EQ(fingerprint_of(parsed), fingerprint_of(ch));
}

}  // namespace
}  // namespace iotls::tls
