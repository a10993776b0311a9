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

/// The extension entries of a hello body positioned after its
/// compression methods; empty in the legacy no-extensions form. Checks
/// every entry's framing.
BytesView read_extensions(Reader& r) {
  if (r.empty()) return {};
  std::uint16_t block_len = r.u16();
  BytesView entries = r.view(block_len);
  Reader block(entries);
  while (!block.empty()) {
    block.u16();
    block.skip(block.u16());
  }
  return entries;
}

enum class HostName { kFound, kAbsent, kMalformed };

/// The host_name entry of one server_name payload (RFC 6066 §3: uint16
/// list length, then name_type ‖ uint16 length ‖ name entries). Bytes past
/// the list are ignored; an entry that overruns it makes the payload
/// malformed.
HostName read_host_name(BytesView data, std::string_view* out) {
  if (data.size() < 2) return HostName::kMalformed;
  const std::size_t list_len = static_cast<std::size_t>(data[0] << 8 | data[1]);
  if (data.size() - 2 < list_len) return HostName::kMalformed;
  const BytesView list = data.subspan(2, list_len);
  std::size_t pos = 0;
  while (pos < list.size()) {
    if (list.size() - pos < 3) return HostName::kMalformed;
    const std::uint8_t name_type = list[pos];
    const std::size_t name_len =
        static_cast<std::size_t>(list[pos + 1] << 8 | list[pos + 2]);
    pos += 3;
    if (list.size() - pos < name_len) return HostName::kMalformed;
    if (name_type == 0) {  // host_name
      *out = std::string_view(reinterpret_cast<const char*>(list.data() + pos), name_len);
      return HostName::kFound;
    }
    pos += name_len;
  }
  return HostName::kAbsent;
}

}  // namespace

ClientHelloView ClientHelloView::parse(BytesView handshake_message) {
  Reader outer(handshake_message);
  auto type = static_cast<HandshakeType>(outer.u8());
  if (type != HandshakeType::kClientHello)
    throw ParseError("not a ClientHello handshake message");
  std::uint32_t body_len = outer.u24();
  Reader r(outer.view(body_len));
  outer.expect_end("ClientHello");

  ClientHelloView ch;
  ch.legacy_version = r.u16();
  ch.random = r.view(32);
  std::uint8_t sid_len = r.u8();
  if (sid_len > 32) throw ParseError("session_id length > 32");
  ch.session_id = r.view(sid_len);
  std::uint16_t cs_len = r.u16();
  if (cs_len % 2 != 0) throw ParseError("odd cipher_suites length");
  ch.cipher_suites = r.view(cs_len);
  std::uint8_t comp_len = r.u8();
  if (comp_len == 0) throw ParseError("empty compression_methods");
  ch.compression_methods = r.view(comp_len);
  ch.extensions = read_extensions(r);
  r.expect_end("ClientHello body");
  return ch;
}

std::optional<std::string_view> ClientHelloView::sni() const {
  std::optional<std::string_view> out;
  for_each_extension([&out](std::uint16_t type, BytesView data) {
    if (type != 0) return true;  // server_name
    std::string_view name;
    switch (read_host_name(data, &name)) {
      case HostName::kFound: out = name; return false;
      case HostName::kMalformed: return false;  // malformed: treat as absent
      case HostName::kAbsent: return true;
    }
    return true;
  });
  return out;
}

std::optional<std::string> ClientHello::sni() const {
  for (const Extension& e : extensions) {
    if (e.type != 0) continue;  // server_name
    std::string_view name;
    switch (read_host_name(BytesView(e.data.data(), e.data.size()), &name)) {
      case HostName::kFound: return std::string(name);
      case HostName::kMalformed: return std::nullopt;  // treat as absent
      case HostName::kAbsent: break;
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
  return from(ClientHelloView::parse(handshake_message));
}

ClientHello ClientHello::from(const ClientHelloView& view) {
  ClientHello ch;
  ch.legacy_version = view.legacy_version;
  std::copy(view.random.begin(), view.random.end(), ch.random.begin());
  ch.session_id.assign(view.session_id.begin(), view.session_id.end());
  ch.cipher_suites.reserve(view.cipher_suites.size() / 2);
  for (std::size_t i = 0; i < view.cipher_suites.size(); i += 2) {
    ch.cipher_suites.push_back(
        static_cast<std::uint16_t>(view.cipher_suites[i] << 8 | view.cipher_suites[i + 1]));
  }
  ch.compression_methods.assign(view.compression_methods.begin(),
                                view.compression_methods.end());
  view.for_each_extension([&ch](std::uint16_t type, BytesView data) {
    ch.extensions.push_back({type, Bytes(data.begin(), data.end())});
    return true;
  });
  return ch;
}

Bytes encode_handshake(HandshakeType type, BytesView body) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u24(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  return w.take();
}

HandshakeView read_handshake(Reader& r) {
  auto type = static_cast<HandshakeType>(r.u8());
  std::uint32_t len = r.u24();
  BytesView body = r.view(len);
  // The 4 header bytes just read precede the body in the same buffer.
  return {type, BytesView(body.data() - 4, body.size() + 4)};
}

std::vector<HandshakeMessage> split_handshakes(BytesView stream) {
  std::vector<HandshakeMessage> out;
  Reader r(stream);
  while (!r.empty()) {
    HandshakeView m = read_handshake(r);
    out.push_back({m.type, Bytes(m.body().begin(), m.body().end())});
  }
  return out;
}

std::optional<ClientHello> first_client_hello(BytesView record_stream) {
  const RecordStream records(record_stream);
  std::optional<ClientHelloView> hello = find_client_hello(records);
  if (!hello.has_value()) return std::nullopt;
  return ClientHello::from(*hello);
}

std::optional<ClientHelloView> find_client_hello(const RecordStream& records) {
  // Walk the framing exactly as split_handshakes() does (a truncated message
  // after the hello is still a parse error), but parse the hello in place:
  // its framed bytes are a slice of the handshake stream.
  std::optional<BytesView> framed;
  Reader r(records.handshakes());
  while (!r.empty()) {
    HandshakeView m = read_handshake(r);
    if (m.type == HandshakeType::kClientHello && !framed.has_value()) {
      framed = m.framed;
    }
  }
  if (!framed.has_value()) return std::nullopt;
  return ClientHelloView::parse(*framed);
}

}  // namespace iotls::tls
