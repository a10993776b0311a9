#include "tls/record.hpp"

#include "util/error.hpp"
#include "util/reader.hpp"
#include "util/writer.hpp"

namespace iotls::tls {

Bytes encode_records(ContentType type, std::uint16_t version, BytesView payload) {
  Writer w;
  std::size_t offset = 0;
  do {
    std::size_t take = std::min(payload.size() - offset, kMaxFragment);
    w.u8(static_cast<std::uint8_t>(type));
    w.u16(version);
    w.u16(static_cast<std::uint16_t>(take));
    w.raw(payload.subspan(offset, take));
    offset += take;
  } while (offset < payload.size());
  return w.take();
}

namespace {

/// One record read in place: its header and a view of its payload.
struct RecordView {
  ContentType type = ContentType::kHandshake;
  std::uint16_t version = 0x0303;
  BytesView payload;
};

/// Read the next record from `r`, with parse_records' checks and errors.
RecordView read_record(Reader& r) {
  RecordView rec;
  std::uint8_t type = r.u8();
  if (type < 20 || type > 23) throw ParseError("unknown TLS record content type");
  rec.type = static_cast<ContentType>(type);
  rec.version = r.u16();
  std::uint16_t len = r.u16();
  if (len > kMaxFragment) throw ParseError("TLS record fragment exceeds 2^14");
  rec.payload = r.view(len);
  return rec;
}

}  // namespace

std::vector<Record> parse_records(BytesView stream) {
  std::vector<Record> out;
  Reader r(stream);
  while (!r.empty()) {
    RecordView rec = read_record(r);
    out.push_back({rec.type, rec.version, Bytes(rec.payload.begin(), rec.payload.end())});
  }
  return out;
}

RecordStream::RecordStream(BytesView stream) {
  bool seen_handshake = false;
  Reader r(stream);
  while (!r.empty()) {
    RecordView rec = read_record(r);
    if (rec.type == ContentType::kAlert && !first_alert_.has_value()) {
      first_alert_ = rec.payload;
    }
    if (rec.type != ContentType::kHandshake) continue;
    if (!seen_handshake) {
      first_handshake_ = rec.payload;
      seen_handshake = true;
      continue;
    }
    // A second handshake record: the stream is fragmented, so join it.
    if (joined_.empty()) joined_.assign(first_handshake_.begin(), first_handshake_.end());
    joined_.insert(joined_.end(), rec.payload.begin(), rec.payload.end());
  }
}

Bytes handshake_payload(const std::vector<Record>& records) {
  Bytes out;
  for (const Record& rec : records) {
    if (rec.type != ContentType::kHandshake) continue;
    out.insert(out.end(), rec.payload.begin(), rec.payload.end());
  }
  return out;
}

}  // namespace iotls::tls
