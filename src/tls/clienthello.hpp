// TLS ClientHello: struct, wire encoding, and strict parsing (RFC 5246 §7.4.1.2).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace iotls::tls {

/// A raw extension: type code plus opaque payload.
struct Extension {
  std::uint16_t type = 0;
  Bytes data;

  friend bool operator==(const Extension&, const Extension&) = default;
};

/// Handshake message types used in this repo.
enum class HandshakeType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kCertificate = 11,
  kServerHelloDone = 14,
  kCertificateStatus = 22,  // stapled OCSP response (RFC 6066)
};

/// A parsed/buildable ClientHello. The paper's fingerprints are derived from
/// {cipher_suites, extension types, version} of this message (§4.1).
struct ClientHello {
  std::uint16_t legacy_version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  Bytes session_id;
  std::vector<std::uint16_t> cipher_suites;
  Bytes compression_methods{0x00};
  std::vector<Extension> extensions;

  /// SNI host_name from the server_name extension, if present and well-formed.
  std::optional<std::string> sni() const;

  /// Append a server_name extension carrying `host`.
  void set_sni(const std::string& host);

  /// The ordered list of extension type codes.
  std::vector<std::uint16_t> extension_types() const;

  /// Highest version offered: supported_versions maximum if the extension is
  /// present (TLS 1.3 style), else legacy_version.
  std::uint16_t offered_version() const;

  /// Encode as a handshake message (msg_type ‖ uint24 length ‖ body).
  Bytes encode() const;

  /// Parse a handshake message; throws ParseError unless it is a well-formed
  /// ClientHello occupying the entire buffer.
  static ClientHello parse(BytesView handshake_message);

  friend bool operator==(const ClientHello&, const ClientHello&) = default;
};

/// Frame a handshake body: type ‖ uint24 len ‖ body.
Bytes encode_handshake(HandshakeType type, BytesView body);

/// Split a concatenation of handshake messages into (type, body) pairs.
struct HandshakeMessage {
  HandshakeType type;
  Bytes body;
};
std::vector<HandshakeMessage> split_handshakes(BytesView stream);

/// The first ClientHello carried by a TLS record stream (a client flight or
/// a captured event's wire bytes), or nullopt when the handshake messages
/// decode but none is a ClientHello. Throws ParseError when the records,
/// the handshake framing or the hello itself are malformed, so callers can
/// tell "no hello" from "not TLS".
std::optional<ClientHello> first_client_hello(BytesView record_stream);

}  // namespace iotls::tls
