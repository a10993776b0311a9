// TLS ServerHello and Certificate handshake messages.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tls/clienthello.hpp"
#include "util/bytes.hpp"
#include "util/reader.hpp"

namespace iotls::tls {

/// A parsed/buildable ServerHello.
struct ServerHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  Bytes session_id;
  std::uint16_t cipher_suite = 0;
  std::uint8_t compression_method = 0;
  std::vector<Extension> extensions;

  Bytes encode() const;
  static ServerHello parse(BytesView handshake_message);

  friend bool operator==(const ServerHello&, const ServerHello&) = default;
};

/// The Certificate handshake message: an ordered chain of opaque certificate
/// encodings, leaf first (RFC 5246 §7.4.2). The entries here are our TLV
/// certificate encodings (see x509/); the framing is the real TLS framing.
struct CertificateMsg {
  std::vector<Bytes> chain;

  Bytes encode() const;
  static CertificateMsg parse(BytesView handshake_message);

  friend bool operator==(const CertificateMsg&, const CertificateMsg&) = default;
};

/// A Certificate message read in place: CertificateMsg::parse's checks and
/// errors, the entries left as views into the message.
struct CertificateMsgView {
  BytesView entries;  // (uint24 length ‖ certificate)*

  static CertificateMsgView parse(BytesView handshake_message);

  /// Call fn(encoded certificate) for each entry, leaf first, while it
  /// returns true.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Reader r(entries);  // validated by parse(): no read below can throw
    while (!r.empty()) {
      if (!fn(r.view(r.u24()))) return;
    }
  }
};

}  // namespace iotls::tls
