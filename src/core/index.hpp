// DatasetIndex: the interned-id cross-index behind ClientDataset.
//
// Replaces the seed's twelve map<string, set<string>> indexes with posting
// lists (sorted vector<uint32_t>) over dense interned ids, plus per-vendor
// bitsets over the fingerprint domain for the Table 4 Jaccard analysis.
// ClientDataset::append_events interns in event order and hands each epoch
// over as one buffer of id rows; every posting table then has exactly one
// writer (one task per table, whatever the --jobs level), so ids and
// posting lists are bit-identical at every --jobs level. The fold works on
// ids only: strings are interned when a device or a fingerprint is first
// folded, never per event. This index is the only store of the client-side
// relations; no string-keyed view of it exists, and readers resolve ids to
// strings only where they print them.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/interner.hpp"
#include "tls/fingerprint.hpp"

namespace iotls::core {

/// A device's interned ids: its own and its vendor/type/user attributes.
struct DeviceIds {
  std::uint32_t device = Interner::kNone;
  std::uint32_t vendor = Interner::kNone;
  std::uint32_t type = Interner::kNone;
  std::uint32_t user = Interner::kNone;

  friend bool operator==(const DeviceIds&, const DeviceIds&) = default;
};

/// One folded event as interned ids: its device's ids, its SNI and its
/// fingerprint.
struct EventIds : DeviceIds {
  std::uint32_t sni = Interner::kNone;
  std::uint32_t fp = Interner::kNone;

  friend bool operator==(const EventIds&, const EventIds&) = default;
};

class DatasetIndex {
 public:
  /// Interners for each id domain. Ids are first-seen-ordered over the
  /// event stream (devices/vendors/types appear when their first event
  /// parses, not when the fleet lists them — matching the seed maps, which
  /// only held entities with >= 1 parsed event).
  const Interner& vendors() const { return vendors_; }
  const Interner& devices() const { return devices_; }
  const Interner& types() const { return types_; }
  const Interner& users() const { return users_; }
  const Interner& snis() const { return snis_; }
  const Interner& fps() const { return fps_; }

  /// Fingerprint value by fingerprint id.
  const tls::Fingerprint& fp_value(std::uint32_t fp) const { return fp_values_[fp]; }

  // Posting lists, indexed by the row domain's id; sorted-unique after
  // finalize(). fp_vendors()[f] are the vendor ids seen with fingerprint f,
  // and so on — the same relations as the seed's string maps.
  const std::vector<PostingList>& fp_vendors() const { return rows(kFpVendors); }
  const std::vector<PostingList>& fp_devices() const { return rows(kFpDevices); }
  const std::vector<PostingList>& fp_snis() const { return rows(kFpSnis); }
  const std::vector<PostingList>& vendor_fps() const { return rows(kVendorFps); }
  const std::vector<PostingList>& device_fps() const { return rows(kDeviceFps); }
  const std::vector<PostingList>& sni_devices() const { return rows(kSniDevices); }
  const std::vector<PostingList>& sni_vendors() const { return rows(kSniVendors); }
  const std::vector<PostingList>& sni_fps() const { return rows(kSniFps); }
  const std::vector<PostingList>& sni_users() const { return rows(kSniUsers); }

  /// device id -> vendor id / type id (total functions on interned devices).
  std::uint32_t device_vendor(std::uint32_t device) const {
    return device_vendor_[device];
  }
  std::uint32_t device_type(std::uint32_t device) const {
    return device_type_[device];
  }

  /// Per-vendor bitset over the fingerprint id domain (kept by finalize).
  /// vendor_similarities computes |A ∩ B| as one AND+popcount pass.
  const Bitset& vendor_fp_bits(std::uint32_t vendor) const {
    return vendor_fp_bits_[vendor];
  }

  // Lexicographic id permutations (the seed's std::map iteration orders,
  // which report row ordering depends on). Maintained by finalize().
  const std::vector<std::uint32_t>& vendors_by_name() const { return vendors_by_name_.ids; }
  const std::vector<std::uint32_t>& devices_by_name() const { return devices_by_name_.ids; }
  const std::vector<std::uint32_t>& snis_by_name() const { return snis_by_name_.ids; }
  const std::vector<std::uint32_t>& fps_by_key() const { return fps_by_key_.ids; }

  /// Size hints from the raw fleet: the device domain and the per-device
  /// rows for `expected_devices`; the fingerprint, SNI and user domains
  /// for a fraction of `expected_events` (users also capped by the
  /// devices). Call before the first fold.
  void reserve(std::size_t expected_devices, std::size_t expected_events);

  // Interning, in event order (sequential). Each domain assigns ids in
  // first-call order, so callers intern at the first folded event that
  // carries a string; repeat calls return the existing id.

  /// Intern a device and its attributes; the device's vendor and type
  /// become those given here.
  DeviceIds intern_device(std::string_view id, std::string_view vendor,
                          std::string_view type, std::string_view user);
  std::uint32_t intern_sni(std::string_view sni) { return snis_.intern(sni); }
  /// Intern a fingerprint by key, keeping its value on first sight.
  std::uint32_t intern_fp(std::string_view key, const tls::Fingerprint& fp);

  /// Fold `events`, in order, into the nine posting tables. Each table is
  /// appended by one task over the whole buffer, the tasks spread over
  /// `jobs` workers (0 = hardware concurrency); one writer per table keeps
  /// every row's append order the event order at any `jobs`.
  void record(const std::vector<EventIds>& events, int jobs = 1);

  /// Sort/unique the posting lists, update the vendor bitsets and the
  /// lexicographic permutations. Callable repeatedly: the streaming ingest
  /// records an epoch of events and re-finalizes. Only rows appended to
  /// since the previous finalize are touched: each sorts its appended tail
  /// and merges it into its sorted prefix. The permutations merge in the
  /// newly interned ids; a vendor's bitset takes its new fingerprints, and
  /// all bitsets are refilled only when the fingerprint universe grew. An
  /// epoch therefore costs O(epoch delta) plus linear merges over the rows
  /// and permutations it extends, never a re-sort of history. Appending the
  /// same event stream under any epoch split yields indexes byte-identical
  /// to one batch fold over the concatenation.
  ///
  /// The nine table merges and the four permutation extends are
  /// independent tasks over `jobs` workers; the vendor bitsets run in the
  /// vendor_fps merge task, before it sorts the tails they read. Each task
  /// owns what it writes, so the result is the same at any `jobs`.
  void finalize(int jobs = 1);

 private:
  /// A lexicographic id permutation, with each entry's first 16 bytes kept
  /// beside it (zero-padded, big-endian words), so merging new ids in
  /// compares contiguous keys and reads a string only on a 16-byte tie.
  struct ByName {
    struct Head {
      std::uint64_t hi = 0, lo = 0;
      friend auto operator<=>(const Head&, const Head&) = default;
    };
    std::vector<std::uint32_t> ids;
    std::vector<Head> heads;  // parallel to `ids`

    /// Merge in the ids `names` interned since the last call.
    void extend(const Interner& names);
  };

  /// The posting tables, one per relation (row domain -> id domain).
  enum Table {
    kFpVendors, kFpDevices, kFpSnis, kVendorFps, kDeviceFps,
    kSniDevices, kSniVendors, kSniFps, kSniUsers, kTables
  };
  struct PostingTable {
    std::vector<PostingList> rows;
    DirtyRows dirty;  // rows appended to since the last finalize
  };
  const std::vector<PostingList>& rows(Table t) const { return tables_[t].rows; }

  /// Fill the vendor bitsets, reading each dirty vendor_fps row's unsorted
  /// tail (so before that table merges).
  void update_vendor_bits();

  Interner vendors_, devices_, types_, users_, snis_, fps_;
  std::vector<tls::Fingerprint> fp_values_;

  std::array<PostingTable, kTables> tables_;
  std::vector<std::uint32_t> device_vendor_, device_type_;

  std::vector<Bitset> vendor_fp_bits_;
  ByName vendors_by_name_, devices_by_name_, snis_by_name_, fps_by_key_;
};

}  // namespace iotls::core
