#include "tls/alert.hpp"

#include "tls/record.hpp"
#include "util/error.hpp"

namespace iotls::tls {

std::string alert_description_name(AlertDescription d) {
  switch (d) {
    case AlertDescription::kCloseNotify: return "close_notify";
    case AlertDescription::kUnexpectedMessage: return "unexpected_message";
    case AlertDescription::kHandshakeFailure: return "handshake_failure";
    case AlertDescription::kBadCertificate: return "bad_certificate";
    case AlertDescription::kCertificateExpired: return "certificate_expired";
    case AlertDescription::kCertificateUnknown: return "certificate_unknown";
    case AlertDescription::kProtocolVersion: return "protocol_version";
    case AlertDescription::kInternalError: return "internal_error";
    case AlertDescription::kUnrecognizedName: return "unrecognized_name";
  }
  return "alert_" + std::to_string(static_cast<int>(d));
}

Bytes Alert::encode() const {
  return {static_cast<std::uint8_t>(level), static_cast<std::uint8_t>(description)};
}

Alert Alert::parse(BytesView payload) {
  if (payload.size() != 2) throw ParseError("alert payload must be 2 bytes");
  std::uint8_t level = payload[0];
  if (level != 1 && level != 2) throw ParseError("bad alert level");
  Alert alert;
  alert.level = static_cast<AlertLevel>(level);
  alert.description = static_cast<AlertDescription>(payload[1]);
  return alert;
}

std::optional<Alert> find_alert(BytesView record_stream) {
  try {
    return find_alert(RecordStream(record_stream));
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

std::optional<Alert> find_alert(const RecordStream& records) {
  if (!records.first_alert().has_value()) return std::nullopt;
  try {
    return Alert::parse(*records.first_alert());
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace iotls::tls
