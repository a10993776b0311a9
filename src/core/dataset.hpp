// The parsed client-side dataset: wire bytes -> fingerprints + indexes.
//
// This is the paper's analysis input (§4): every event's ClientHello is
// parsed from capture bytes, fingerprinted, and joined with the device's
// user label. Each distinct wire of an epoch is parsed once, however many
// events carry it. All §4 analyses run off the interned DatasetIndex built
// here; the string-keyed map accessors survive as lazily-materialized
// compatibility views whose contents are byte-identical to the seed's
// eagerly-built maps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/index.hpp"
#include "devicesim/types.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

/// One parsed ClientHello observation. The *_ix fields are the event's
/// interned ids in the dataset's DatasetIndex (dense, deterministic).
struct ParsedEvent {
  std::string device_id;
  std::string vendor;
  std::string type;     // device type/model label
  std::string user;
  std::int64_t day = 0;
  std::string sni;
  tls::ClientHello hello;
  tls::Fingerprint fp;
  std::string fp_key;   // cached fp.key()

  std::uint32_t device_ix = 0;
  std::uint32_t vendor_ix = 0;
  std::uint32_t type_ix = 0;
  std::uint32_t user_ix = 0;
  std::uint32_t sni_ix = 0;
  std::uint32_t fp_ix = 0;
};

/// Why an event was dropped during parsing (per-reason counts are exposed
/// so data-quality loss is attributable, not just a single total).
struct DropCounts {
  std::size_t unknown_device = 0;   // event names a device not in the fleet
  std::size_t no_client_hello = 0;  // wire bytes decode but carry no hello
  std::size_t parse_error = 0;      // wire bytes are not a TLS record stream

  std::size_t total() const {
    return unknown_device + no_client_hello + parse_error;
  }
};

/// Parsed dataset carrying the interned cross-index the §4 metrics run on.
class ClientDataset {
 public:
  ClientDataset();
  ~ClientDataset();
  ClientDataset(ClientDataset&&) noexcept;
  ClientDataset& operator=(ClientDataset&&) noexcept;

  /// Parse a fleet's events. Undecodable events are dropped (counted
  /// per reason in drop_counts()). `jobs` > 1 parses wire bytes on a
  /// worker pool (0 = hardware concurrency); the index fold stays
  /// sequential in input order, so the resulting dataset is identical to
  /// the jobs=1 build bit for bit.
  static ClientDataset from_fleet(const devicesim::FleetDataset& fleet,
                                  const tls::FingerprintOptions& opts = {},
                                  int jobs = 1);

  /// Incremental ingest: parse `events` (devices resolved against `devices`)
  /// and fold them into the dataset after whatever is already there.
  ///
  /// The call deduplicates the epoch's wire bytes and parses each distinct
  /// wire once, on `jobs` workers; an undecodable wire still drops (and
  /// counts) every event that carries it. The fold is sequential in arrival
  /// order and works on interned ids, so any epoch split of one event
  /// stream builds the same dataset as a single batch call over the
  /// concatenation, bit for bit. No wire state outlives the call, so memory
  /// does not grow with the number of distinct wires ever seen.
  ///
  /// Device ids resolve through a table kept across calls and rebuilt only
  /// when `devices` is a different vector (data pointer or size) or on the
  /// first miss of a call; a hit is always checked against the row's id. A
  /// repeated id resolves to its first row, as FleetDataset::find_device
  /// does. Rewriting a device's vendor, type or user in place between calls
  /// is not detected. Call finalize() before reading the index or the views.
  void append_events(const std::vector<devicesim::ClientHelloEvent>& events,
                     const std::vector<devicesim::Device>& devices,
                     const tls::FingerprintOptions& opts = {}, int jobs = 1);

  /// Re-finalize the index after append_events (see DatasetIndex::finalize
  /// for its cost) and invalidate the lazy string-keyed views.
  void finalize();

  /// When false, append_events folds every parsed event into the index but
  /// does not retain it in events() — resident memory stays O(distinct
  /// interned ids + posting lists) instead of O(total events), which is
  /// what lets the streaming fold run a 1M-device fleet on one machine.
  /// Every index-backed analysis (all of the stream reports) is unaffected;
  /// only the event-iterating analyses (tls_params, longitudinal, semantic,
  /// device_metrics) need retained events. Set before the first
  /// append_events; flipping it mid-ingest only affects later epochs.
  void set_retain_events(bool retain) { retain_events_ = retain; }
  bool retain_events() const { return retain_events_; }

  /// Parsed events, in fold order (empty when retain_events is false).
  const std::vector<ParsedEvent>& events() const { return events_; }
  std::size_t dropped_events() const { return dropped_.total(); }
  const DropCounts& drop_counts() const { return dropped_; }

  /// The interned-id cross-index — the fast path every hot analysis uses.
  const DatasetIndex& index() const { return index_; }

  // ------------------------------------------------------------ views
  // String-keyed compatibility views, materialized lazily (thread-safe)
  // from the index. Contents match the seed's eager maps byte for byte.

  /// Distinct fingerprints (by key).
  const std::map<std::string, tls::Fingerprint>& fingerprints() const;

  const std::map<std::string, std::set<std::string>>& fp_vendors() const;
  const std::map<std::string, std::set<std::string>>& fp_devices() const;
  const std::map<std::string, std::set<std::string>>& vendor_fps() const;
  const std::map<std::string, std::set<std::string>>& device_fps() const;
  /// device id -> vendor name (devices with >= 1 parsed event).
  const std::map<std::string, std::string>& device_vendor() const;
  /// device id -> type label.
  const std::map<std::string, std::string>& device_type() const;
  /// SNI -> set of device ids / vendors / fingerprint keys seen toward it.
  const std::map<std::string, std::set<std::string>>& sni_devices() const;
  const std::map<std::string, std::set<std::string>>& sni_vendors() const;
  const std::map<std::string, std::set<std::string>>& sni_fps() const;
  const std::map<std::string, std::set<std::string>>& sni_users() const;
  /// fingerprint key -> SNIs it was observed toward.
  const std::map<std::string, std::set<std::string>>& fp_snis() const;

  std::set<std::string> vendors() const;
  std::set<std::string> users() const;
  std::vector<std::string> snis() const;

 private:
  struct Views;
  struct DeviceTable;

  std::unique_ptr<DeviceTable> devices_;
  std::vector<ParsedEvent> events_;
  DropCounts dropped_;
  DatasetIndex index_;
  std::unique_ptr<Views> views_;
  bool retain_events_ = true;
};

}  // namespace iotls::core
