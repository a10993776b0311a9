// TLS alert messages (RFC 5246 §7.2).
//
// The simulated internet answers failed handshakes with real alert records
// (handshake_failure, unrecognized_name, ...) so failures are wire-visible,
// the way a passive capture would see them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace iotls::tls {

enum class AlertLevel : std::uint8_t { kWarning = 1, kFatal = 2 };

enum class AlertDescription : std::uint8_t {
  kCloseNotify = 0,
  kUnexpectedMessage = 10,
  kHandshakeFailure = 40,
  kBadCertificate = 42,
  kCertificateExpired = 45,
  kCertificateUnknown = 46,
  kProtocolVersion = 70,
  kInternalError = 80,
  kUnrecognizedName = 112,
};

std::string alert_description_name(AlertDescription d);

/// One alert message (the 2-byte payload of an alert record).
struct Alert {
  AlertLevel level = AlertLevel::kFatal;
  AlertDescription description = AlertDescription::kInternalError;

  Bytes encode() const;
  static Alert parse(BytesView payload);  // throws ParseError

  friend bool operator==(const Alert&, const Alert&) = default;
};

class RecordStream;

/// Extract the first alert from a record stream, if any: nullopt too when
/// the records or that first alert are malformed.
std::optional<Alert> find_alert(BytesView record_stream);
/// find_alert() over records already walked.
std::optional<Alert> find_alert(const RecordStream& records);

}  // namespace iotls::tls
