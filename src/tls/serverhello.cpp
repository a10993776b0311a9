#include "tls/serverhello.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/reader.hpp"
#include "util/writer.hpp"

namespace iotls::tls {

Bytes ServerHello::encode() const {
  Writer w;
  w.u16(version);
  w.raw(BytesView(random.data(), random.size()));
  if (session_id.size() > 32) throw EncodeError("session_id longer than 32 bytes");
  w.u8(static_cast<std::uint8_t>(session_id.size()));
  w.raw(BytesView(session_id.data(), session_id.size()));
  w.u16(cipher_suite);
  w.u8(compression_method);
  if (!extensions.empty()) {
    std::size_t block = w.begin_length(2);
    for (const Extension& e : extensions) {
      w.u16(e.type);
      std::size_t len = w.begin_length(2);
      w.raw(BytesView(e.data.data(), e.data.size()));
      w.end_length(len);
    }
    w.end_length(block);
  }
  return encode_handshake(HandshakeType::kServerHello, BytesView(w.data().data(), w.size()));
}

ServerHello ServerHello::parse(BytesView handshake_message) {
  Reader outer(handshake_message);
  auto type = static_cast<HandshakeType>(outer.u8());
  if (type != HandshakeType::kServerHello)
    throw ParseError("not a ServerHello handshake message");
  std::uint32_t body_len = outer.u24();
  Reader r(outer.view(body_len));
  outer.expect_end("ServerHello");

  ServerHello sh;
  sh.version = r.u16();
  BytesView rnd = r.view(32);
  std::copy(rnd.begin(), rnd.end(), sh.random.begin());
  std::uint8_t sid_len = r.u8();
  if (sid_len > 32) throw ParseError("session_id length > 32");
  sh.session_id = r.bytes(sid_len);
  sh.cipher_suite = r.u16();
  sh.compression_method = r.u8();
  if (!r.empty()) {
    std::uint16_t block_len = r.u16();
    Reader block(r.view(block_len));
    while (!block.empty()) {
      Extension e;
      e.type = block.u16();
      std::uint16_t len = block.u16();
      e.data = block.bytes(len);
      sh.extensions.push_back(std::move(e));
    }
    r.expect_end("ServerHello extensions");
  }
  return sh;
}

Bytes CertificateMsg::encode() const {
  Writer w;
  std::size_t list = w.begin_length(3);
  for (const Bytes& cert : chain) {
    std::size_t entry = w.begin_length(3);
    w.raw(BytesView(cert.data(), cert.size()));
    w.end_length(entry);
  }
  w.end_length(list);
  return encode_handshake(HandshakeType::kCertificate, BytesView(w.data().data(), w.size()));
}

CertificateMsg CertificateMsg::parse(BytesView handshake_message) {
  CertificateMsg msg;
  CertificateMsgView::parse(handshake_message).for_each([&msg](BytesView cert) {
    msg.chain.emplace_back(cert.begin(), cert.end());
    return true;
  });
  return msg;
}

CertificateMsgView CertificateMsgView::parse(BytesView handshake_message) {
  Reader outer(handshake_message);
  auto type = static_cast<HandshakeType>(outer.u8());
  if (type != HandshakeType::kCertificate)
    throw ParseError("not a Certificate handshake message");
  std::uint32_t body_len = outer.u24();
  Reader r(outer.view(body_len));
  outer.expect_end("Certificate");

  CertificateMsgView msg;
  std::uint32_t list_len = r.u24();
  msg.entries = r.view(list_len);
  r.expect_end("Certificate body");
  Reader list(msg.entries);
  while (!list.empty()) list.skip(list.u24());
  return msg;
}

}  // namespace iotls::tls
