#include "tls/clienthello.hpp"

#include <algorithm>

#include "tls/record.hpp"
#include "util/error.hpp"
#include "util/reader.hpp"
#include "util/writer.hpp"

namespace iotls::tls {

namespace {

void encode_extensions(Writer& w, const std::vector<Extension>& exts) {
  // extensions block is optional in TLS <= 1.2; we always emit it when
  // non-empty and omit it entirely when empty (both forms parse).
  if (exts.empty()) return;
  std::size_t block = w.begin_length(2);
  for (const Extension& e : exts) {
    w.u16(e.type);
    std::size_t len = w.begin_length(2);
    w.raw(BytesView(e.data.data(), e.data.size()));
    w.end_length(len);
  }
  w.end_length(block);
}

std::vector<Extension> parse_extensions(Reader& r) {
  std::vector<Extension> out;
  if (r.empty()) return out;  // legacy no-extensions form
  std::uint16_t block_len = r.u16();
  Reader block(r.view(block_len));
  while (!block.empty()) {
    Extension e;
    e.type = block.u16();
    std::uint16_t len = block.u16();
    e.data = block.bytes(len);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

std::optional<std::string> ClientHello::sni() const {
  for (const Extension& e : extensions) {
    if (e.type != 0) continue;  // server_name
    try {
      Reader r(BytesView(e.data.data(), e.data.size()));
      std::uint16_t list_len = r.u16();
      Reader list(r.view(list_len));
      while (!list.empty()) {
        std::uint8_t name_type = list.u8();
        std::uint16_t name_len = list.u16();
        std::string name = list.str(name_len);
        if (name_type == 0) return name;  // host_name
      }
    } catch (const ParseError&) {
      return std::nullopt;  // malformed SNI payload: treat as absent
    }
  }
  return std::nullopt;
}

void ClientHello::set_sni(const std::string& host) {
  Writer w;
  std::size_t list = w.begin_length(2);
  w.u8(0);  // host_name
  std::size_t name = w.begin_length(2);
  w.str(host);
  w.end_length(name);
  w.end_length(list);

  Extension e;
  e.type = 0;
  e.data = w.take();
  // Replace an existing server_name extension in place, else append first
  // (clients conventionally put SNI early).
  for (Extension& existing : extensions) {
    if (existing.type == 0) {
      existing = std::move(e);
      return;
    }
  }
  extensions.insert(extensions.begin(), std::move(e));
}

std::vector<std::uint16_t> ClientHello::extension_types() const {
  std::vector<std::uint16_t> out;
  out.reserve(extensions.size());
  for (const Extension& e : extensions) out.push_back(e.type);
  return out;
}

std::uint16_t ClientHello::offered_version() const {
  for (const Extension& e : extensions) {
    if (e.type != 43) continue;  // supported_versions
    try {
      Reader r(BytesView(e.data.data(), e.data.size()));
      std::uint8_t list_len = r.u8();
      Reader list(r.view(list_len));
      std::uint16_t best = 0;
      while (list.remaining() >= 2) {
        std::uint16_t v = list.u16();
        // Skip GREASE-style values (0x?a?a) when picking the max.
        if ((v & 0x0f0f) == 0x0a0a) continue;
        best = std::max(best, v);
      }
      if (best != 0) return best;
    } catch (const ParseError&) {
      break;
    }
  }
  return legacy_version;
}

Bytes ClientHello::encode() const {
  Writer w;
  w.u16(legacy_version);
  w.raw(BytesView(random.data(), random.size()));
  if (session_id.size() > 32) throw EncodeError("session_id longer than 32 bytes");
  w.u8(static_cast<std::uint8_t>(session_id.size()));
  w.raw(BytesView(session_id.data(), session_id.size()));
  std::size_t cs = w.begin_length(2);
  for (std::uint16_t suite : cipher_suites) w.u16(suite);
  w.end_length(cs);
  if (compression_methods.empty()) throw EncodeError("compression_methods empty");
  w.u8(static_cast<std::uint8_t>(compression_methods.size()));
  w.raw(BytesView(compression_methods.data(), compression_methods.size()));
  encode_extensions(w, extensions);
  return encode_handshake(HandshakeType::kClientHello, BytesView(w.data().data(), w.size()));
}

ClientHello ClientHello::parse(BytesView handshake_message) {
  Reader outer(handshake_message);
  auto type = static_cast<HandshakeType>(outer.u8());
  if (type != HandshakeType::kClientHello)
    throw ParseError("not a ClientHello handshake message");
  std::uint32_t body_len = outer.u24();
  Reader r(outer.view(body_len));
  outer.expect_end("ClientHello");

  ClientHello ch;
  ch.legacy_version = r.u16();
  BytesView rnd = r.view(32);
  std::copy(rnd.begin(), rnd.end(), ch.random.begin());
  std::uint8_t sid_len = r.u8();
  if (sid_len > 32) throw ParseError("session_id length > 32");
  ch.session_id = r.bytes(sid_len);
  std::uint16_t cs_len = r.u16();
  if (cs_len % 2 != 0) throw ParseError("odd cipher_suites length");
  Reader cs(r.view(cs_len));
  ch.cipher_suites.clear();
  while (!cs.empty()) ch.cipher_suites.push_back(cs.u16());
  std::uint8_t comp_len = r.u8();
  if (comp_len == 0) throw ParseError("empty compression_methods");
  ch.compression_methods = r.bytes(comp_len);
  ch.extensions = parse_extensions(r);
  r.expect_end("ClientHello body");
  return ch;
}

Bytes encode_handshake(HandshakeType type, BytesView body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u24(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  return w.take();
}

std::vector<HandshakeMessage> split_handshakes(BytesView stream) {
  std::vector<HandshakeMessage> out;
  Reader r(stream);
  while (!r.empty()) {
    HandshakeMessage m;
    m.type = static_cast<HandshakeType>(r.u8());
    std::uint32_t len = r.u24();
    m.body = r.bytes(len);
    out.push_back(std::move(m));
  }
  return out;
}

std::optional<ClientHello> first_client_hello(BytesView record_stream) {
  Bytes payload = handshake_payload(parse_records(record_stream));
  BytesView stream(payload.data(), payload.size());
  // Walk the framing exactly as split_handshakes() does (a truncated message
  // after the hello is still a parse error), but parse the hello in place:
  // its framed bytes are the payload slice, so no body copy or re-encode.
  std::optional<BytesView> framed;
  Reader r(stream);
  while (!r.empty()) {
    std::size_t start = r.position();
    auto type = static_cast<HandshakeType>(r.u8());
    r.skip(r.u24());
    if (type == HandshakeType::kClientHello && !framed.has_value()) {
      framed = stream.subspan(start, r.position() - start);
    }
  }
  if (!framed.has_value()) return std::nullopt;
  return ClientHello::parse(*framed);
}

}  // namespace iotls::tls
