#include "net/internet.hpp"

#include <algorithm>

#include "tls/alert.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotls::net {

namespace {

/// The client's supported_versions list (extension 43 payload: u8 length
/// then uint16 codes), empty when absent or malformed.
std::vector<std::uint16_t> supported_versions_of(const tls::ClientHello& hello) {
  for (const tls::Extension& e : hello.extensions) {
    if (e.type != 43) continue;
    if (e.data.empty()) return {};
    std::size_t len = e.data[0];
    if (len % 2 != 0 || 1 + len > e.data.size()) return {};
    std::vector<std::uint16_t> out;
    for (std::size_t i = 1; i + 1 <= len; i += 2) {
      out.push_back(static_cast<std::uint16_t>((e.data[i] << 8) | e.data[i + 1]));
    }
    return out;
  }
  return {};
}

/// The client's ALPN protocol list (extension 16), empty when absent.
std::vector<std::string> alpn_of(const tls::ClientHello& hello) {
  for (const tls::Extension& e : hello.extensions) {
    if (e.type != 16) continue;
    std::vector<std::string> out;
    if (e.data.size() < 2) return out;
    std::size_t list_len = (e.data[0] << 8) | e.data[1];
    std::size_t pos = 2;
    std::size_t end = std::min(e.data.size(), 2 + list_len);
    while (pos < end) {
      std::size_t n = e.data[pos++];
      if (pos + n > end) break;
      out.emplace_back(reinterpret_cast<const char*>(e.data.data() + pos), n);
      pos += n;
    }
    return out;
  }
  return {};
}

bool offers_extension(const tls::ClientHello& hello, std::uint16_t type) {
  for (const tls::Extension& e : hello.extensions) {
    if (e.type == type) return true;
  }
  return false;
}

Bytes fatal_alert(tls::AlertDescription description) {
  tls::Alert alert{tls::AlertLevel::kFatal, description};
  Bytes payload = alert.encode();
  return tls::encode_records(tls::ContentType::kAlert, 0x0303,
                             BytesView(payload.data(), payload.size()));
}

}  // namespace

void SimInternet::add_server(SimServer server) {
  servers_[server.sni] = std::move(server);
}

const SimServer* SimInternet::find(const std::string& sni) const {
  auto it = servers_.find(sni);
  return it == servers_.end() ? nullptr : &it->second;
}

SimServer* SimInternet::find_mutable(const std::string& sni) {
  auto it = servers_.find(sni);
  return it == servers_.end() ? nullptr : &it->second;
}

std::vector<const SimServer*> SimInternet::servers() const {
  std::vector<const SimServer*> out;
  out.reserve(servers_.size());
  for (const auto& [sni, server] : servers_) out.push_back(&server);
  return out;
}

tls::ClientHello client_hello_of(BytesView client_records) {
  const tls::RecordStream records(client_records);
  return tls::ClientHello::from(client_hello_view_of(records));
}

tls::ClientHelloView client_hello_view_of(const tls::RecordStream& records) {
  std::optional<tls::ClientHelloView> hello = tls::find_client_hello(records);
  if (!hello.has_value()) throw ParseError("client flight carries no ClientHello");
  return *hello;
}

ConnectResult SimInternet::connect(VantagePoint vantage, AddressFamily family,
                                   BytesView client_records) const {
  tls::ClientHello hello = client_hello_of(client_records);

  auto sni = hello.sni();
  if (!sni.has_value()) {
    return NetError("ClientHello carries no SNI; cannot route",
                    NetError::Kind::kProtocol);
  }
  const SimServer* server = find(*sni);
  if (server == nullptr) {
    return NetError("no route to host: " + *sni, NetError::Kind::kNoRoute);
  }
  if (family == AddressFamily::kIPv6 && !server->dual_stack) {
    // Definitive, DNS-level: the name simply has no AAAA record.
    return NetError("no AAAA record: " + *sni, NetError::Kind::kNoRoute);
  }
  if (!server->reachable_from(vantage)) {
    return NetError("connection timed out: " + *sni, NetError::Kind::kTimeout);
  }

  // Version negotiation against the stack's window. The defaults
  // (min 0x0300, max 0x0303, 1.2-era selection) reproduce the historical
  // `min(legacy_version, 0x0303)` byte-for-byte.
  const std::uint16_t max_version = server->max_version_for(family);
  const std::vector<std::uint16_t> client_sv = supported_versions_of(hello);
  bool tls13 =
      max_version >= 0x0304 &&
      std::find(client_sv.begin(), client_sv.end(), 0x0304) != client_sv.end();
  std::uint16_t selected =
      tls13 ? 0x0304
            : std::min<std::uint16_t>(hello.legacy_version,
                                      std::min<std::uint16_t>(max_version, 0x0303));
  std::uint16_t best_offer = hello.legacy_version;
  for (std::uint16_t v : client_sv) best_offer = std::max(best_offer, v);
  if (best_offer < server->min_tls_version || selected < server->min_tls_version) {
    return fatal_alert(tls::AlertDescription::kProtocolVersion);
  }

  std::uint16_t suite = server->negotiate(hello.cipher_suites, family);
  if (suite == 0) {
    // A reachable server with no ciphersuite overlap answers with a real
    // fatal alert, exactly as a capture would show.
    return fatal_alert(tls::AlertDescription::kHandshakeFailure);
  }

  tls::ServerHello sh;
  // TLS 1.3 stacks keep legacy_version 0x0303 on the wire and carry the
  // real selection in the supported_versions extension (RFC 8446 §4.1.3).
  sh.version = tls13 ? 0x0303 : selected;
  // Deterministic per-connection server random derived from the inputs.
  Rng rng(fnv1a64(*sni) ^ hello.random[0]);
  for (auto& b : sh.random) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  sh.cipher_suite = suite;
  if (tls13) {
    sh.extensions.push_back({43, {0x03, 0x04}});
  }
  if (!server->alpn_protocols.empty()) {
    std::vector<std::string> offered = alpn_of(hello);
    for (const std::string& proto : server->alpn_protocols) {
      if (std::find(offered.begin(), offered.end(), proto) == offered.end())
        continue;
      // RFC 7301 wire form: u16 list length, u8 name length, name bytes.
      tls::Extension alpn;
      alpn.type = 16;
      alpn.data.push_back(0);
      alpn.data.push_back(static_cast<std::uint8_t>(proto.size() + 1));
      alpn.data.push_back(static_cast<std::uint8_t>(proto.size()));
      alpn.data.insert(alpn.data.end(), proto.begin(), proto.end());
      sh.extensions.push_back(std::move(alpn));
      break;
    }
  }
  if (server->session_tickets && offers_extension(hello, 35)) {
    sh.extensions.push_back({35, {}});
  }

  tls::CertificateMsg cert_msg;
  for (const x509::Certificate& cert : server->chain_for(vantage, family)) {
    cert_msg.chain.push_back(cert.encode());
  }

  Bytes flight = sh.encode();
  Bytes certs = cert_msg.encode();
  flight.insert(flight.end(), certs.begin(), certs.end());

  // Staple the OCSP response when the client asked (status_request) and the
  // server has one (RFC 6066 CertificateStatus).
  if (offers_extension(hello, 5) && server->stapled_response.has_value()) {
    Bytes ocsp = server->stapled_response->encode();
    Bytes status = tls::encode_handshake(tls::HandshakeType::kCertificateStatus,
                                         BytesView(ocsp.data(), ocsp.size()));
    flight.insert(flight.end(), status.begin(), status.end());
  }

  Bytes done = tls::encode_handshake(tls::HandshakeType::kServerHelloDone, {});
  flight.insert(flight.end(), done.begin(), done.end());
  return tls::encode_records(tls::ContentType::kHandshake, sh.version,
                             BytesView(flight.data(), flight.size()));
}

}  // namespace iotls::net
