#include "devicesim/export.hpp"

#include <array>
#include <charconv>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "tls/fingerprint.hpp"
#include "tls/record.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace iotls::devicesim {

namespace {

/// Strict std::from_chars over a view: the whole field must be one integer.
/// Throws ParseError (never std::invalid_argument — a malformed field in a
/// streamed CSV row must surface as a parse failure, which the tail readers
/// count and skip, not as an uncaught logic_error).
template <typename T>
T parse_int_field(std::string_view s, const char* what) {
  T value{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError(std::string("events CSV: bad ") + what + ": " +
                     std::string(s));
  return value;
}

/// Parse an event's wire bytes down to its ClientHello.
tls::ClientHello hello_of(const ClientHelloEvent& event) {
  std::optional<tls::ClientHello> hello =
      tls::first_client_hello(BytesView(event.wire.data(), event.wire.size()));
  if (!hello.has_value()) throw ParseError("event carries no ClientHello");
  return std::move(*hello);
}

/// Rebuild a ClientHello carrying exactly the fingerprint's fields
/// (used when wire bytes were not exported). Takes the three fp_key fields
/// pre-split (the row parser already has them as views; re-joining only to
/// re-split would be the allocation churn this path exists to avoid).
tls::ClientHello hello_from_fp_key(std::string_view version,
                                   std::string_view suites,
                                   std::string_view extensions,
                                   std::string_view sni) {
  tls::ClientHello ch;
  ch.legacy_version = std::min<std::uint16_t>(
      parse_int_field<std::uint16_t>(version, "fingerprint version"), 0x0303);
  auto parse_list = [](std::string_view s) {
    std::vector<std::uint16_t> out;
    if (s.empty()) return out;
    std::size_t start = 0;
    while (true) {
      std::size_t pos = s.find('-', start);
      std::string_view part = pos == std::string_view::npos
                                  ? s.substr(start)
                                  : s.substr(start, pos - start);
      out.push_back(parse_int_field<std::uint16_t>(part, "fingerprint field"));
      if (pos == std::string_view::npos) return out;
      start = pos + 1;
    }
  };
  ch.cipher_suites = parse_list(suites);
  bool has_server_name = false;
  for (std::uint16_t type : parse_list(extensions)) {
    ch.extensions.push_back({type, {}});
    if (type == 0) has_server_name = true;
  }
  // Filling SNI into an extension list without server_name would change the
  // fingerprint; only populate it when the original client sent one.
  if (has_server_name) ch.set_sni(std::string(sni));
  return ch;
}

}  // namespace

std::string pseudonym(const std::string& id, const std::string& salt) {
  crypto::Sha256Digest d = crypto::sha256(salt + ":" + id);
  return to_hex(BytesView(d.data(), d.size())).substr(0, 12);
}

std::string export_events_csv(const FleetDataset& fleet, const ExportOptions& opts) {
  std::map<std::string, const Device*> devices;
  for (const Device& d : fleet.devices) devices[d.id] = &d;

  std::ostringstream out;
  out << "device,vendor,type,user,day,sni,fp_key";
  if (opts.include_wire) out << ",wire_hex";
  out << "\n";
  for (const ClientHelloEvent& event : fleet.events) {
    const Device* device = devices.at(event.device_id);
    tls::Fingerprint fp = tls::fingerprint_of(hello_of(event));
    out << pseudonym(device->id, opts.salt) << ',' << device->vendor << ','
        << device->type << ',' << pseudonym(device->user_id, opts.salt) << ','
        << event.day << ',' << event.sni << ',' << fp.key();
    if (opts.include_wire) {
      out << ',' << to_hex(BytesView(event.wire.data(), event.wire.size()));
    }
    out << "\n";
  }
  return out.str();
}

std::string export_devices_csv(const FleetDataset& fleet, const ExportOptions& opts) {
  std::ostringstream out;
  out << "device,vendor,type,user\n";
  for (const Device& d : fleet.devices) {
    out << pseudonym(d.id, opts.salt) << ',' << d.vendor << ',' << d.type << ','
        << pseudonym(d.user_id, opts.salt) << "\n";
  }
  return out.str();
}

std::vector<Device> parse_devices_csv(const std::string& devices_csv) {
  std::vector<Device> devices;
  std::string_view text(devices_csv);
  std::size_t n_lines = 0;
  for (char c : text)
    if (c == '\n') ++n_lines;
  devices.reserve(n_lines);  // header over-counts by one; close enough
  // A repeated id would be attributed to one row by some lookups and to
  // another by others; reject it. Keys view the input text, which outlives
  // the loop.
  std::unordered_set<std::string_view> ids;
  ids.reserve(n_lines);
  bool saw_header = false;
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t pos = text.find('\n', start);
    std::size_t end = pos == std::string_view::npos ? text.size() : pos;
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (!saw_header) {
      if (!starts_with(line, "device,"))
        throw ParseError("devices CSV: missing header");
      saw_header = true;
      continue;
    }
    if (line.empty()) {
      if (pos == std::string_view::npos) break;
      continue;
    }
    std::array<std::string_view, 4> cols;
    if (split_views(line, ',', cols) != 4)
      throw ParseError("devices CSV: bad row: " + std::string(line));
    if (!ids.insert(cols[0]).second)
      throw ParseError("devices CSV: duplicate device id: " + std::string(cols[0]));
    devices.push_back({std::string(cols[0]), std::string(cols[1]),
                       std::string(cols[2]), std::string(cols[3])});
    if (pos == std::string_view::npos) break;
  }
  if (!saw_header) throw ParseError("devices CSV: missing header");
  return devices;
}

bool events_header_has_wire(std::string_view header) {
  if (!starts_with(header, "device,"))
    throw ParseError("events CSV: missing header");
  return header.find(",wire_hex") != std::string_view::npos;
}

ClientHelloEvent parse_event_row(std::string_view line, bool has_wire) {
  // The fp_key itself contains commas: device,vendor,type,user,day,sni +
  // 3 fp fields (+ optional wire) => 9 or 10 columns. Fixed-size view
  // splitting: no per-column heap string, no vector.
  std::array<std::string_view, 10> cols;
  std::size_t n = split_views(line, ',', cols);
  std::size_t expected = has_wire ? 10 : 9;
  if (n != expected)
    throw ParseError("events CSV: bad row: " + std::string(line));
  ClientHelloEvent event;
  event.device_id = std::string(cols[0]);
  event.day = parse_int_field<std::int64_t>(cols[4], "day");
  event.sni = std::string(cols[5]);
  if (has_wire) {
    event.wire = from_hex(cols[9]);
  } else {
    tls::ClientHello ch = hello_from_fp_key(cols[6], cols[7], cols[8], cols[5]);
    Bytes msg = ch.encode();
    event.wire = tls::encode_records(tls::ContentType::kHandshake,
                                     ch.legacy_version,
                                     BytesView(msg.data(), msg.size()));
  }
  return event;
}

FleetDataset import_events_csv(const std::string& events_csv,
                               const std::string& devices_csv) {
  // Timed so the CI fleet phase can compare CSV re-parse against
  // snapshot.open_ns / snapshot.load_ns off --stats=json.
  obs::ScopedTimer timer(obs::metrics().histogram("fleet.csv_parse_ns"));
  FleetDataset fleet;
  fleet.devices = parse_devices_csv(devices_csv);
  std::set<std::string> users;
  for (const Device& d : fleet.devices) users.insert(d.user_id);

  // First pass: index line boundaries (arena-backed — the index dies with
  // the import) and size the event vector once instead of doubling a
  // multi-hundred-MB vector a dozen times on a fleet-scale file.
  ArenaAllocator arena(1 << 20, &obs::parse_arena());
  std::string_view text(events_csv);
  std::size_t n_lines = 0;
  for (char c : text)
    if (c == '\n') ++n_lines;
  if (!text.empty() && text.back() != '\n') ++n_lines;
  if (n_lines == 0) throw ParseError("events CSV: missing header");
  std::string_view* lines = arena.allocate_array<std::string_view>(n_lines);
  std::size_t li = 0;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t pos = text.find('\n', start);
    std::size_t end = pos == std::string_view::npos ? text.size() : pos;
    lines[li++] = text.substr(start, end - start);
    start = end + 1;
  }

  bool has_wire = events_header_has_wire(lines[0]);
  fleet.events.reserve(li > 0 ? li - 1 : 0);
  for (std::size_t i = 1; i < li; ++i) {
    if (lines[i].empty()) continue;
    fleet.events.push_back(parse_event_row(lines[i], has_wire));
  }

  fleet.users.assign(users.begin(), users.end());
  return fleet;
}

}  // namespace iotls::devicesim
