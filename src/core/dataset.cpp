#include "core/dataset.hpp"

#include <bit>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "exec/pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/clienthello.hpp"
#include "util/error.hpp"

namespace iotls::core {

// ------------------------------------------------------------------ views
//
// Lazily-materialized string-keyed views over the DatasetIndex. Each view
// is built at most once (std::call_once — accessors stay safe to call from
// the parallel analysis phases) and reproduces the seed's eager std::map
// byte for byte: same keys, same members, std::map/std::set ordering.

namespace {

std::map<std::string, std::set<std::string>> materialize(
    const Interner& rows, const Interner& cols,
    const std::vector<PostingList>& lists) {
  std::map<std::string, std::set<std::string>> out;
  for (std::uint32_t row = 0; row < lists.size(); ++row) {
    std::set<std::string>& members = out[rows.str(row)];
    for (std::uint32_t col : lists[row]) members.insert(cols.str(col));
  }
  return out;
}

}  // namespace

struct ClientDataset::Views {
  struct LazySetMap {
    std::once_flag once;
    std::map<std::string, std::set<std::string>> value;

    const std::map<std::string, std::set<std::string>>& get(
        const Interner& rows, const Interner& cols,
        const std::vector<PostingList>& lists) {
      std::call_once(once, [&] { value = materialize(rows, cols, lists); });
      return value;
    }
  };

  LazySetMap fp_vendors, fp_devices, fp_snis, vendor_fps, device_fps;
  LazySetMap sni_devices, sni_vendors, sni_fps, sni_users;

  std::once_flag fp_by_key_once;
  std::map<std::string, tls::Fingerprint> fp_by_key;

  std::once_flag device_vendor_once;
  std::map<std::string, std::string> device_vendor;

  std::once_flag device_type_once;
  std::map<std::string, std::string> device_type;
};

/// The device table of the last `devices` argument: an open-addressing map
/// from id hash to row, and each row's interned ids once the row has had a
/// folded event. Every hit is checked against the row's current id, so the
/// table holds no strings and a stale entry can only miss.
struct ClientDataset::DeviceTable {
  struct Slot {
    std::uint32_t tag = 0;                // high half of the id hash
    std::uint32_t row = Interner::kNone;  // kNone: empty
  };
  const devicesim::Device* data = nullptr;
  std::size_t size = 0;
  std::vector<Slot> slots;     // power-of-two size, at most half full
  std::vector<DeviceIds> ids;  // ids[row].device == kNone until resolved

  static std::uint64_t hash(std::string_view id) {
    return std::hash<std::string_view>{}(id);
  }

  void rebuild(const std::vector<devicesim::Device>& devices) {
    data = devices.data();
    size = devices.size();
    slots.assign(std::bit_ceil(2 * devices.size() + 1), Slot{});
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t row = 0; row < devices.size(); ++row) {
      const std::string& id = devices[row].id;
      std::uint64_t h = hash(id);
      auto tag = static_cast<std::uint32_t>(h >> 32);
      std::size_t i = h & mask;
      // First row wins: a repeated id finds its earlier row and is skipped.
      while (slots[i].row != Interner::kNone &&
             !(slots[i].tag == tag && devices[slots[i].row].id == id)) {
        i = (i + 1) & mask;
      }
      if (slots[i].row == Interner::kNone) slots[i] = {tag, row};
    }
    ids.assign(devices.size(), DeviceIds{});
  }

  /// Rebuild unless the table was built from `devices` (same data pointer
  /// and size); true when it rebuilt.
  bool bind(const std::vector<devicesim::Device>& devices) {
    if (data == devices.data() && size == devices.size() && !slots.empty()) return false;
    rebuild(devices);
    return true;
  }

  std::uint32_t lookup(std::string_view id,
                       const std::vector<devicesim::Device>& devices) const {
    const std::size_t mask = slots.size() - 1;
    std::uint64_t h = hash(id);
    auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots[i];
      if (slot.row == Interner::kNone) return Interner::kNone;
      if (slot.tag == tag && devices[slot.row].id == id) return slot.row;
    }
  }

  /// Row of `id` in `devices`, or kNone. A miss rebuilds the table and
  /// retries unless `fresh` (already rebuilt during this call); sets `fresh`.
  std::uint32_t find(std::string_view id, const std::vector<devicesim::Device>& devices,
                     bool& fresh) {
    std::uint32_t row = lookup(id, devices);
    if (row != Interner::kNone || fresh) return row;
    rebuild(devices);
    fresh = true;
    return lookup(id, devices);
  }
};

ClientDataset::ClientDataset()
    : devices_(std::make_unique<DeviceTable>()), views_(std::make_unique<Views>()) {}
ClientDataset::~ClientDataset() = default;
ClientDataset::ClientDataset(ClientDataset&&) noexcept = default;
ClientDataset& ClientDataset::operator=(ClientDataset&&) noexcept = default;

const std::map<std::string, tls::Fingerprint>& ClientDataset::fingerprints() const {
  std::call_once(views_->fp_by_key_once, [&] {
    for (std::uint32_t f = 0; f < index_.fps().size(); ++f) {
      views_->fp_by_key.emplace(index_.fps().str(f), index_.fp_value(f));
    }
  });
  return views_->fp_by_key;
}

const std::map<std::string, std::set<std::string>>& ClientDataset::fp_vendors() const {
  return views_->fp_vendors.get(index_.fps(), index_.vendors(), index_.fp_vendors());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::fp_devices() const {
  return views_->fp_devices.get(index_.fps(), index_.devices(), index_.fp_devices());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::vendor_fps() const {
  return views_->vendor_fps.get(index_.vendors(), index_.fps(), index_.vendor_fps());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::device_fps() const {
  return views_->device_fps.get(index_.devices(), index_.fps(), index_.device_fps());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::sni_devices() const {
  return views_->sni_devices.get(index_.snis(), index_.devices(), index_.sni_devices());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::sni_vendors() const {
  return views_->sni_vendors.get(index_.snis(), index_.vendors(), index_.sni_vendors());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::sni_fps() const {
  return views_->sni_fps.get(index_.snis(), index_.fps(), index_.sni_fps());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::sni_users() const {
  return views_->sni_users.get(index_.snis(), index_.users(), index_.sni_users());
}
const std::map<std::string, std::set<std::string>>& ClientDataset::fp_snis() const {
  return views_->fp_snis.get(index_.fps(), index_.snis(), index_.fp_snis());
}

const std::map<std::string, std::string>& ClientDataset::device_vendor() const {
  std::call_once(views_->device_vendor_once, [&] {
    for (std::uint32_t d = 0; d < index_.devices().size(); ++d) {
      views_->device_vendor.emplace(index_.devices().str(d),
                                    index_.vendors().str(index_.device_vendor(d)));
    }
  });
  return views_->device_vendor;
}

const std::map<std::string, std::string>& ClientDataset::device_type() const {
  std::call_once(views_->device_type_once, [&] {
    for (std::uint32_t d = 0; d < index_.devices().size(); ++d) {
      views_->device_type.emplace(index_.devices().str(d),
                                  index_.types().str(index_.device_type(d)));
    }
  });
  return views_->device_type;
}

// ------------------------------------------------------------------ parse

namespace {

/// Parse outcome of one distinct wire. Only the sequential fold writes the
/// interned ids, at the wire's first folded event, so first-seen order is
/// the event order at any `jobs`.
struct WireParse {
  enum class Kind { kOk, kNoClientHello, kParseError };
  Kind kind = Kind::kParseError;
  tls::ClientHello hello;  // kept only when events are retained
  std::optional<std::string> sni;
  tls::Fingerprint fp;
  std::string fp_key;
  std::uint32_t fp_ix = Interner::kNone;
  std::uint32_t sni_ix = Interner::kNone;  // interned with fp_ix iff `sni` is set
};

void parse_wire(BytesView wire, const tls::FingerprintOptions& opts,
                bool keep_hello, WireParse& out) {
  std::optional<tls::ClientHello> hello;
  try {
    hello = tls::first_client_hello(wire);
  } catch (const ParseError&) {
    out.kind = WireParse::Kind::kParseError;
    return;
  }
  if (!hello.has_value()) {
    out.kind = WireParse::Kind::kNoClientHello;
    return;
  }
  out.sni = hello->sni();
  out.fp = tls::fingerprint_of(*hello, opts);
  out.fp_key = out.fp.key();
  if (keep_hello) out.hello = std::move(*hello);
  out.kind = WireParse::Kind::kOk;
}

std::string_view wire_key(const Bytes& wire) {
  return {reinterpret_cast<const char*>(wire.data()), wire.size()};
}

}  // namespace

ClientDataset ClientDataset::from_fleet(const devicesim::FleetDataset& fleet,
                                        const tls::FingerprintOptions& opts,
                                        int jobs) {
  ClientDataset ds;
  ds.events_.reserve(fleet.events.size());
  ds.index_.reserve(fleet.devices.size(), fleet.events.size());
  ds.append_events(fleet.events, fleet.devices, opts, jobs);
  ds.finalize();
  return ds;
}

void ClientDataset::append_events(
    const std::vector<devicesim::ClientHelloEvent>& raw_events,
    const std::vector<devicesim::Device>& fleet_devices,
    const tls::FingerprintOptions& opts, int jobs) {
  static obs::Counter& parsed_counter =
      obs::metrics().counter("core.dataset.events_parsed");
  static obs::Counter& wires_counter =
      obs::metrics().counter("core.dataset.wires_parsed");
  static obs::Counter& drop_unknown_device =
      obs::metrics().counter("core.dataset.events_dropped.unknown_device");
  static obs::Counter& drop_no_hello =
      obs::metrics().counter("core.dataset.events_dropped.no_client_hello");
  static obs::Counter& drop_parse_error =
      obs::metrics().counter("core.dataset.events_dropped.parse_error");
  auto span = obs::tracer().span("fingerprint.extract");

  // Phase 1 (sequential): resolve each event's device row, and number the
  // distinct wires of known devices' events. The map views the caller's
  // bytes and dies with this call.
  constexpr std::uint32_t kNone = Interner::kNone;
  bool fresh = devices_->bind(fleet_devices);
  std::vector<std::uint32_t> row_of(raw_events.size());
  std::vector<std::uint32_t> wire_of(raw_events.size(), kNone);
  std::vector<BytesView> wires;
  {
    std::unordered_map<std::string_view, std::uint32_t> wire_ids;
    for (std::size_t i = 0; i < raw_events.size(); ++i) {
      const devicesim::ClientHelloEvent& raw = raw_events[i];
      row_of[i] = devices_->find(raw.device_id, fleet_devices, fresh);
      if (row_of[i] == kNone) continue;
      auto [it, added] = wire_ids.try_emplace(
          wire_key(raw.wire), static_cast<std::uint32_t>(wires.size()));
      if (added) wires.emplace_back(raw.wire.data(), raw.wire.size());
      wire_of[i] = it->second;
    }
  }

  // Phase 2 (parallel): parse and fingerprint each distinct wire once.
  std::vector<WireParse> parsed(wires.size());
  exec::parallel_for(jobs, wires.size(), [&](std::size_t w) {
    parse_wire(wires[w], opts, retain_events_, parsed[w]);
  });
  wires_counter.inc(wires.size());

  // Phase 3 (sequential, input order): drop accounting per event, interning
  // at first sight, and the id-level fold.
  auto drop = [&](std::size_t& reason_count, obs::Counter& counter,
                  const char* reason, const devicesim::ClientHelloEvent& raw) {
    ++reason_count;
    counter.inc();
    span.add_items();
    span.fail(reason);
    if (obs::logger().enabled(obs::LogLevel::kDebug)) {
      obs::logger().debug("event dropped",
                          {{"device", raw.device_id}, {"reason", reason}});
    }
  };

  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < raw_events.size(); ++i) {
    const devicesim::ClientHelloEvent& raw = raw_events[i];
    if (row_of[i] == kNone) {
      drop(dropped_.unknown_device, drop_unknown_device, "unknown_device", raw);
      continue;
    }
    WireParse& wire = parsed[wire_of[i]];
    if (wire.kind == WireParse::Kind::kNoClientHello) {
      drop(dropped_.no_client_hello, drop_no_hello, "no_client_hello", raw);
      continue;
    }
    if (wire.kind == WireParse::Kind::kParseError) {
      drop(dropped_.parse_error, drop_parse_error, "parse_error", raw);
      continue;
    }

    const devicesim::Device& device = fleet_devices[row_of[i]];
    DeviceIds& ids = devices_->ids[row_of[i]];
    if (ids.device == kNone) {
      ids = index_.intern_device(device.id, device.vendor, device.type,
                                 device.user_id);
    }
    if (wire.fp_ix == kNone) {
      wire.fp_ix = index_.intern_fp(wire.fp_key, wire.fp);
      if (wire.sni.has_value()) wire.sni_ix = index_.intern_sni(*wire.sni);
    }
    const std::string& sni = wire.sni.has_value() ? *wire.sni : raw.sni;
    std::uint32_t sni_ix =
        wire.sni.has_value() ? wire.sni_ix : index_.intern_sni(raw.sni);
    index_.record(ids, sni_ix, wire.fp_ix);
    ++folded;

    if (!retain_events_) continue;
    ParsedEvent& ev = events_.emplace_back();
    ev.device_id = device.id;
    ev.vendor = device.vendor;
    ev.type = device.type;
    ev.user = device.user_id;
    ev.day = raw.day;
    ev.sni = sni;
    ev.hello = wire.hello;
    ev.fp = wire.fp;
    ev.fp_key = wire.fp_key;
    ev.device_ix = ids.device;
    ev.vendor_ix = ids.vendor;
    ev.type_ix = ids.type;
    ev.user_ix = ids.user;
    ev.sni_ix = sni_ix;
    ev.fp_ix = wire.fp_ix;
  }
  parsed_counter.inc(folded);
  span.add_items(folded);
}

void ClientDataset::finalize() {
  index_.finalize();
  // The lazy views memoize via std::once_flag, which cannot be re-armed;
  // invalidation is replacing the whole Views block.
  views_ = std::make_unique<Views>();
}

std::set<std::string> ClientDataset::vendors() const {
  std::set<std::string> out;
  for (std::uint32_t v = 0; v < index_.vendors().size(); ++v) {
    out.insert(index_.vendors().str(v));
  }
  return out;
}

std::set<std::string> ClientDataset::users() const {
  std::set<std::string> out;
  for (std::uint32_t u = 0; u < index_.users().size(); ++u) {
    out.insert(index_.users().str(u));
  }
  return out;
}

std::vector<std::string> ClientDataset::snis() const {
  std::vector<std::string> out;
  out.reserve(index_.snis().size());
  for (std::uint32_t sni : index_.snis_by_name()) out.push_back(index_.snis().str(sni));
  return out;
}

}  // namespace iotls::core
