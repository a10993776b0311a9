// DatasetIndex: the interned-id cross-index behind ClientDataset.
//
// Replaces the seed's twelve map<string, set<string>> indexes with posting
// lists (sorted vector<uint32_t>) over dense interned ids, plus per-vendor
// bitsets over the fingerprint domain for the Table 4 Jaccard analysis.
// Built in the sequential fold of ClientDataset::append_events (event
// order), so ids and posting lists are bit-identical at every --jobs level.
// The fold works on ids only: strings are interned when a device or a
// fingerprint is first folded, never per event. The string-keyed map views
// the report layer consumes are materialized lazily from this index and
// match the seed maps byte for byte.
#pragma once

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
  const std::vector<PostingList>& fp_vendors() const { return fp_vendors_; }
  const std::vector<PostingList>& fp_devices() const { return fp_devices_; }
  const std::vector<PostingList>& fp_snis() const { return fp_snis_; }
  const std::vector<PostingList>& vendor_fps() const { return vendor_fps_; }
  const std::vector<PostingList>& device_fps() const { return device_fps_; }
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& sni_fps() const { return sni_fps_; }
  const std::vector<PostingList>& sni_users() const { return sni_users_; }

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

  /// Size hints from the raw fleet (satellite: reserve before the fold).
  void reserve(std::size_t expected_devices, std::size_t expected_events);

  // Interning for the sequential fold. Each domain assigns ids in
  // first-call order, so callers intern at the first folded event that
  // carries a string; repeat calls return the existing id.

  /// Intern a device and its attributes; the device's vendor and type
  /// become those given here.
  DeviceIds intern_device(std::string_view id, std::string_view vendor,
                          std::string_view type, std::string_view user);
  std::uint32_t intern_sni(std::string_view sni) { return snis_.intern(sni); }
  /// Intern a fingerprint by key, keeping its value on first sight.
  std::uint32_t intern_fp(std::string_view key, const tls::Fingerprint& fp);

  /// Fold one event, given as interned ids (sequential fold, input order):
  /// appends to the posting lists.
  void record(const DeviceIds& device, std::uint32_t sni, std::uint32_t fp);

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
  void finalize();

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

  Interner vendors_, devices_, types_, users_, snis_, fps_;
  std::vector<tls::Fingerprint> fp_values_;

  std::vector<PostingList> fp_vendors_, fp_devices_, fp_snis_;
  std::vector<PostingList> vendor_fps_, device_fps_;
  std::vector<PostingList> sni_devices_, sni_vendors_, sni_fps_, sni_users_;
  std::vector<std::uint32_t> device_vendor_, device_type_;

  DirtyRows dirty_fp_vendors_, dirty_fp_devices_, dirty_fp_snis_;
  DirtyRows dirty_vendor_fps_, dirty_device_fps_;
  DirtyRows dirty_sni_devices_, dirty_sni_vendors_, dirty_sni_fps_,
      dirty_sni_users_;

  std::vector<Bitset> vendor_fp_bits_;
  ByName vendors_by_name_, devices_by_name_, snis_by_name_, fps_by_key_;
};

}  // namespace iotls::core
