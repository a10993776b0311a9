#include "core/dataset.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "exec/pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/clienthello.hpp"
#include "util/error.hpp"

namespace iotls::core {

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
};

ClientDataset::ClientDataset() : devices_(std::make_unique<DeviceTable>()) {}
ClientDataset::~ClientDataset() = default;
ClientDataset::ClientDataset(ClientDataset&&) noexcept = default;
ClientDataset& ClientDataset::operator=(ClientDataset&&) noexcept = default;

// ------------------------------------------------------------------ parse

namespace {

/// Parse outcome of one distinct wire. Only the sequential fold writes the
/// interned ids, at the wire's first folded event, so first-seen order is
/// the event order at any `jobs`.
struct WireParse {
  enum class Kind { kOk, kNoClientHello, kParseError };
  Kind kind = Kind::kParseError;
  std::optional<std::string> sni;
  tls::Fingerprint fp;
  std::string fp_key;
  bool grease_suite = false, grease_extension = false;
  std::uint32_t fp_ix = Interner::kNone;
  std::uint32_t sni_ix = Interner::kNone;  // interned with fp_ix iff `sni` is set
};

void parse_wire(BytesView wire, const tls::FingerprintOptions& opts,
                WireParse& out) {
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
  out.grease_suite = tls::has_grease_ciphersuite(*hello);
  out.grease_extension = tls::has_grease_extension(*hello);
  out.kind = WireParse::Kind::kOk;
}

std::string_view wire_key(const Bytes& wire) {
  return {reinterpret_cast<const char*>(wire.data()), wire.size()};
}

/// A wire's bytes with their hash, computed in the sharded phase so the
/// sequential numbering does not hash again.
struct HashedWire {
  std::string_view bytes;
  std::uint64_t hash = 0;
  bool operator==(const HashedWire& other) const { return bytes == other.bytes; }
};
struct HashedWireHash {
  std::size_t operator()(const HashedWire& wire) const { return wire.hash; }
};

}  // namespace

ClientDataset ClientDataset::from_fleet(const devicesim::FleetDataset& fleet,
                                        const tls::FingerprintOptions& opts,
                                        int jobs) {
  ClientDataset ds;
  ds.events_.reserve(fleet.events.size());
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
  jobs_ = jobs;

  // Phase 1 (parallel, contiguous shards): resolve each event's device row
  // against the table read-only and hash its wire.
  constexpr std::uint32_t kNone = Interner::kNone;
  const std::size_t n = raw_events.size();
  bool fresh = devices_->bind(fleet_devices);
  if (fresh && index_.devices().empty()) {
    index_.reserve(fleet_devices.size(), n);
  }
  std::vector<std::uint32_t> row_of(n);
  std::vector<std::uint64_t> hash_of(n);
  constexpr std::size_t kShard = 2048;
  exec::parallel_for(jobs, (n + kShard - 1) / kShard, [&](std::size_t shard) {
    const std::size_t end = std::min(n, (shard + 1) * kShard);
    for (std::size_t i = shard * kShard; i < end; ++i) {
      row_of[i] = devices_->lookup(raw_events[i].device_id, fleet_devices);
      hash_of[i] = std::hash<std::string_view>{}(wire_key(raw_events[i].wire));
    }
  });
  // The first miss of a call rebuilds the table (unless bind() just built
  // it), and that event and every later one resolve again on the rebuilt
  // table: what resolving one event at a time in order would give.
  if (!fresh) {
    auto miss = std::find(row_of.begin(), row_of.end(), kNone);
    if (miss != row_of.end()) {
      devices_->rebuild(fleet_devices);
      for (std::size_t i = static_cast<std::size_t>(miss - row_of.begin()); i < n; ++i) {
        row_of[i] = devices_->lookup(raw_events[i].device_id, fleet_devices);
      }
    }
  }

  // Number the distinct wires of known devices' events (sequential, so
  // wire numbers are first-seen). The map views the caller's bytes and
  // dies with this block.
  std::vector<std::uint32_t> wire_of(n, kNone);
  std::vector<BytesView> wires;
  {
    std::unordered_map<HashedWire, std::uint32_t, HashedWireHash> wire_ids;
    for (std::size_t i = 0; i < n; ++i) {
      if (row_of[i] == kNone) continue;
      const Bytes& wire = raw_events[i].wire;
      auto [it, added] = wire_ids.try_emplace({wire_key(wire), hash_of[i]},
                                              static_cast<std::uint32_t>(wires.size()));
      if (added) wires.emplace_back(wire.data(), wire.size());
      wire_of[i] = it->second;
    }
  }
  hash_of = {};

  // Phase 2 (parallel): parse and fingerprint each distinct wire once.
  std::vector<WireParse> parsed(wires.size());
  exec::parallel_for(jobs, wires.size(), [&](std::size_t w) {
    parse_wire(wires[w], opts, parsed[w]);
  });
  wires_counter.inc(wires.size());

  // Phase 3 (sequential, input order): drop accounting per event, and
  // interning at first sight into one id row per folded event.
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

  std::vector<EventIds> folded;
  folded.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
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

    DeviceIds& ids = devices_->ids[row_of[i]];
    if (ids.device == kNone) {
      const devicesim::Device& device = fleet_devices[row_of[i]];
      ids = index_.intern_device(device.id, device.vendor, device.type,
                                 device.user_id);
    }
    if (wire.fp_ix == kNone) {
      wire.fp_ix = index_.intern_fp(wire.fp_key, wire.fp);
      if (wire.sni.has_value()) wire.sni_ix = index_.intern_sni(*wire.sni);
    }
    std::uint32_t sni_ix =
        wire.sni.has_value() ? wire.sni_ix : index_.intern_sni(raw.sni);
    folded.push_back({ids, sni_ix, wire.fp_ix});
    if (retain_events_) {
      events_.push_back({folded.back(), raw.day, wire.grease_suite,
                         wire.grease_extension});
    }
  }

  // Phase 4 (parallel, one task per posting table): the id-level fold.
  index_.record(folded, jobs);
  parsed_counter.inc(folded.size());
  span.add_items(folded.size());
}

void ClientDataset::finalize() {
  auto span = obs::tracer().span("index.finalize");
  index_.finalize(jobs_);
  span.add_items();
}

}  // namespace iotls::core
