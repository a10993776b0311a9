// TLS record layer (TLSPlaintext, RFC 5246 §6.2.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace iotls::tls {

enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

/// One plaintext record.
struct Record {
  ContentType type = ContentType::kHandshake;
  std::uint16_t version = 0x0303;
  Bytes payload;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Maximum fragment size (2^14, RFC 5246).
constexpr std::size_t kMaxFragment = 16384;

/// Encode one record; payloads longer than kMaxFragment are split into
/// multiple records of the same type.
Bytes encode_records(ContentType type, std::uint16_t version, BytesView payload);

/// Parse a byte stream into records; throws ParseError on truncation or
/// oversized fragments.
std::vector<Record> parse_records(BytesView stream);

/// Concatenate the payloads of all handshake-type records in order —
/// the defragmented handshake stream feeding split_handshakes().
Bytes handshake_payload(const std::vector<Record>& records);

/// A record stream validated once and read in place: parse_records'
/// checks and errors, without copying a payload. Views point into the
/// stream, which must outlive this object, except that handshake bytes
/// spread over several records are joined into storage of its own.
class RecordStream {
 public:
  /// Walk every record of `stream`; throws ParseError as parse_records does.
  explicit RecordStream(BytesView stream);

  /// handshake_payload(parse_records(stream)), as a view.
  BytesView handshakes() const {
    return joined_.empty() ? first_handshake_ : BytesView(joined_.data(), joined_.size());
  }

  /// Payload of the first alert record; nullopt when there is none.
  const std::optional<BytesView>& first_alert() const { return first_alert_; }

 private:
  BytesView first_handshake_;  // the first handshake record's payload
  Bytes joined_;               // every handshake payload, once a second one came
  std::optional<BytesView> first_alert_;
};

}  // namespace iotls::tls
