// Anonymized dataset export/import — the paper's released artifact
// (github.com/hyingdon/acmimc23_iot publishes an anonymized IoT Inspector
// slice plus the server certificate dataset). This module produces the
// equivalent CSVs from a generated fleet and loads them back, so downstream
// users can run the analyses without the generator.
#pragma once

#include <string>
#include <string_view>

#include "devicesim/types.hpp"

namespace iotls::devicesim {

/// Anonymization: device and user identifiers are replaced by salted-hash
/// pseudonyms; vendor/type labels and fingerprint material are retained
/// (they are the subject of the study).
struct ExportOptions {
  std::string salt = "iotls-v1";
  bool include_wire = false;  // include hex ClientHello bytes per event
};

/// Serialize the fleet to CSV. Columns:
///   device_pseudonym,vendor,type,user_pseudonym,day,sni,fp_key[,wire_hex]
/// where fp_key is the {version, suites, extensions} fingerprint of the
/// event's ClientHello (recomputed from the wire bytes).
std::string export_events_csv(const FleetDataset& fleet,
                              const ExportOptions& opts = {});

/// Device table: device_pseudonym,vendor,type,user_pseudonym.
std::string export_devices_csv(const FleetDataset& fleet,
                               const ExportOptions& opts = {});

/// Load an exported event CSV back into a (reduced) dataset: events carry
/// re-encoded ClientHellos when wire bytes were exported, else synthetic
/// hellos rebuilt from the fingerprint key. Throws ParseError on malformed
/// input.
FleetDataset import_events_csv(const std::string& events_csv,
                               const std::string& devices_csv);

// Row-level parsers underneath import_events_csv, exposed so streaming
// sources (stream/source) can consume a growing events CSV line by line
// with identical semantics to a batch import of the same bytes.

/// Parse a devices CSV (header + rows) into its device table. Throws
/// ParseError on a malformed row or a device id listed twice.
std::vector<Device> parse_devices_csv(const std::string& devices_csv);

/// Does an events-CSV header line carry the optional wire_hex column?
/// Throws ParseError when `header` is not an events header at all.
bool events_header_has_wire(std::string_view header);

/// Parse one events-CSV data row (9 columns, 10 with `has_wire`; the fp_key
/// spans three). Splits into views — no per-column allocation — and throws
/// ParseError on malformed rows (including malformed integer fields, which
/// previously leaked std::invalid_argument past streaming readers that only
/// catch ParseError).
ClientHelloEvent parse_event_row(std::string_view line, bool has_wire);

/// The salted pseudonym used by the exporters (exposed for tests).
std::string pseudonym(const std::string& id, const std::string& salt);

}  // namespace iotls::devicesim
