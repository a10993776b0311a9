// CertIndex: the interned-id cross-index behind CertDataset (§5).
//
// The seed §5 analyses (issuers, CT/validity) re-derived everything from
// the per-SNI record list: every pass re-hashed the leaf certificate
// (`fingerprint()` is a SHA-256 over the full encoding) and re-joined
// vendors/issuers through string-keyed maps. The index gives the analyses
// dense uint32 ids with sorted posting lists instead:
//
//  * a leaf is a distinct SHA-256 fingerprint, and a leaf id is that
//    fingerprint's id in fps(): each distinct certificate is hashed and
//    classified once, not once per serving SNI. The hex fingerprint is
//    hashed at collect time, so no analysis downstream ever re-hashes a
//    certificate;
//  * sni↔device/vendor/ip and leaf↔server/ip, vendor↔leaf relations are
//    sorted posting lists over interned ids. sni_devices/sni_vendors/
//    vendor_leaves are the only cert-side store of which devices and
//    vendors contact an SNI: the members come straight from the client
//    DatasetIndex rows, and no record or report keeps a string copy of
//    them.
//
// The index is append-only, folded alongside CertDataset::fold: a fold
// interns its new records (in lexicographic SNI order) and the membership
// its existing records gained, merges the new records' columns into record
// order, and sort-merges only the posting rows that gained postings. One
// fold over an empty index (batch) assigns ids in record order, so ids and
// posting lists are bit-identical at every --jobs level. After a split fold
// the ids (leaf ids included) may be a renaming of a batch fold's; the
// content (every relation with ids resolved to strings) is the same, and no
// analysis depends on id order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.hpp"
#include "core/interner.hpp"

namespace iotls::core {

struct SniRecord;

class CertIndex {
 public:
  static constexpr std::uint32_t kNone = Interner::kNone;

  /// Interners for each id domain, first-seen-ordered over the record fold.
  const Interner& snis() const { return snis_; }
  const Interner& devices() const { return devices_; }
  const Interner& vendors() const { return vendors_; }
  const Interner& ips() const { return ips_; }
  /// Leaf issuer organizations (Fig. 5 y-axis domain): the issuers of the
  /// leaves in fps().
  const Interner& issuers() const { return issuers_; }
  /// Distinct leaf SHA-256 fingerprints (hex): the leaf domain.
  const Interner& fps() const { return fps_; }

  /// Issuer organization id of a leaf. A fingerprint hashes the full
  /// encoding, so every record serving it agrees on the issuer.
  std::uint32_t fp_issuer(std::uint32_t fp) const { return fp_issuer_[fp]; }
  std::int64_t fp_validity_days(std::uint32_t fp) const {
    return fp_validity_days_[fp];
  }

  /// Record position -> SNI id. SNI ids are stable across folds; record
  /// positions shift as later folds merge new records in, so per-record
  /// memos (ChainMemo, CtMemo) key on this id.
  const std::vector<std::uint32_t>& record_sni() const { return record_sni_; }
  /// Record position -> leaf id (kNone when unreachable or empty chain).
  const std::vector<std::uint32_t>& record_fp() const { return record_fp_; }

  // Posting lists, indexed by the row domain's id (leaf rows and members
  // are fps() ids); sorted-unique after finalize().
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& leaf_servers() const { return leaf_servers_; }
  const std::vector<PostingList>& leaf_ips() const { return leaf_ips_; }
  const std::vector<PostingList>& vendor_leaves() const { return vendor_leaves_; }

  void reserve(std::size_t expected_records);

  /// Intern one new record. Within a fold, call in lexicographic SNI order.
  /// `leaf_fingerprint` is the precomputed hex fingerprint of the record's
  /// leaf (empty when unreachable or the chain is empty). The record's
  /// members are the devices and vendors of row `client_sni` of `client`.
  /// The record's columns wait for finalize() to place them.
  void record(const SniRecord& rec, const std::string& leaf_fingerprint,
              const DatasetIndex& client, std::uint32_t client_sni);

  /// Fold the members an already-placed record gained: `pos` is its record
  /// position, `devices`/`vendors` the client ids it newly gained.
  void add_membership(std::size_t pos, const DatasetIndex& client,
                      const PostingList& devices, const PostingList& vendors);

  /// Close a fold: place the records given to record() since the last
  /// finalize at their record positions `at` (ascending, one per record in
  /// record() order, positions in the merged record list), then sort-merge
  /// the posting rows that gained postings.
  void finalize(const std::vector<std::size_t>& at);

 private:
  Interner snis_, devices_, vendors_, ips_, issuers_, fps_;

  // Per-leaf columns, from the first record serving the fingerprint.
  std::vector<std::uint32_t> fp_issuer_;
  std::vector<std::int64_t> fp_validity_days_;

  std::vector<std::uint32_t> record_sni_, record_fp_;
  // This fold's records, in record() order.
  std::vector<std::uint32_t> pending_sni_, pending_fp_;

  std::vector<PostingList> sni_devices_, sni_vendors_;
  std::vector<PostingList> leaf_servers_, leaf_ips_, vendor_leaves_;
  DirtyRows dirty_sni_devices_, dirty_sni_vendors_;
  DirtyRows dirty_leaf_servers_, dirty_leaf_ips_, dirty_vendor_leaves_;
};

}  // namespace iotls::core
