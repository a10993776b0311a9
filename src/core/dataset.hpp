// The parsed client-side dataset: wire bytes -> fingerprints + indexes.
//
// This is the paper's analysis input (§4): every event's ClientHello is
// parsed from capture bytes, fingerprinted, and joined with the device's
// user label. Each distinct wire of an epoch is parsed once, however many
// events carry it. All §4 analyses run off the interned DatasetIndex built
// here, the only store of the vendor/device/SNI/fingerprint relations:
// there are no string-keyed views of it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/index.hpp"
#include "devicesim/types.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

/// One retained event: its interned ids in the dataset's DatasetIndex
/// (names and the fingerprint value resolve through index()), its capture
/// day, and the two GREASE facts the fingerprint strips (App. B.10).
struct ParsedEvent : EventIds {
  std::int64_t day = 0;
  bool grease_suite = false;      // a GREASE value in the ciphersuite list
  bool grease_extension = false;  // a GREASE value in the extension list

  friend bool operator==(const ParsedEvent&, const ParsedEvent&) = default;
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
  /// per reason in drop_counts()). `jobs` > 1 runs the fold on a worker
  /// pool (0 = hardware concurrency), as append_events and finalize
  /// describe; the resulting dataset is identical to the jobs=1 build bit
  /// for bit.
  static ClientDataset from_fleet(const devicesim::FleetDataset& fleet,
                                  const tls::FingerprintOptions& opts = {},
                                  int jobs = 1);

  /// Incremental ingest: parse `events` (devices resolved against `devices`)
  /// and fold them into the dataset after whatever is already there.
  ///
  /// The call runs on `jobs` workers (0 = hardware concurrency) where no
  /// order is at stake: contiguous event shards resolve device rows and
  /// hash wires, each distinct wire is parsed once (an undecodable wire
  /// still drops, and counts, every event that carries it), and each of
  /// the index's nine posting tables is appended by one task. Numbering the
  /// wires and interning stay sequential in arrival order, so ids are
  /// first-seen and every table's single writer appends in event order: the
  /// dataset is the same at any `jobs`, and any epoch split of one event
  /// stream builds the same dataset as a single batch call over the
  /// concatenation, bit for bit. No wire state outlives the call, so memory
  /// does not grow with the number of distinct wires ever seen.
  ///
  /// Device ids resolve through a table kept across calls and rebuilt only
  /// when `devices` is a different vector (data pointer or size) or on the
  /// first miss of a call, after which that event and all later ones
  /// resolve again; a hit is always checked against the row's id. A
  /// repeated id resolves to its first row, as FleetDataset::find_device
  /// does. Rewriting a device's vendor, type or user in place between calls
  /// is not detected. The first call that builds the table reserves the
  /// index for its devices. Call finalize() before reading the index.
  void append_events(const std::vector<devicesim::ClientHelloEvent>& events,
                     const std::vector<devicesim::Device>& devices,
                     const tls::FingerprintOptions& opts = {}, int jobs = 1);

  /// Re-finalize the index after append_events, on the `jobs` workers the
  /// last append_events call was given (see DatasetIndex::finalize for its
  /// cost). Each call is one item of the `index.finalize` stage.
  void finalize();

  /// When false, append_events folds every parsed event into the index but
  /// does not retain it in events(), so resident memory stays O(distinct
  /// interned ids + posting lists) instead of O(total events): what lets
  /// the streaming fold run a 1M-device fleet on one machine. A retained
  /// event is its ids, day and GREASE bits (about 40 bytes). Every
  /// index-backed analysis (all of the stream reports) is unaffected; only
  /// the event-iterating analyses (tls_params, longitudinal, semantic,
  /// device_metrics) need retained events. Set before the first
  /// append_events; flipping it mid-ingest only affects later epochs.
  void set_retain_events(bool retain) { retain_events_ = retain; }
  bool retain_events() const { return retain_events_; }

  /// Parsed events, in fold order (empty when retain_events is false).
  const std::vector<ParsedEvent>& events() const { return events_; }
  std::size_t dropped_events() const { return dropped_.total(); }
  const DropCounts& drop_counts() const { return dropped_; }

  /// The interned-id cross-index every §4 analysis reads.
  const DatasetIndex& index() const { return index_; }

 private:
  struct DeviceTable;

  std::unique_ptr<DeviceTable> devices_;
  std::vector<ParsedEvent> events_;
  DropCounts dropped_;
  DatasetIndex index_;
  bool retain_events_ = true;
  int jobs_ = 1;  // of the last append_events call, for finalize()
};

}  // namespace iotls::core
