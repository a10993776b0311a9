// CertIndex: the interned-id cross-index behind CertDataset (§5).
//
// The seed §5 analyses (issuers, CT/validity) re-derived everything from
// the per-SNI record list: every pass re-hashed the leaf certificate
// (`fingerprint()` is a SHA-256 over the full encoding) and re-joined
// vendors/issuers through string-keyed maps. The index gives the analyses
// dense uint32 ids with sorted posting lists instead:
//
//  * leaves are deduplicated by SPKI+serial — each distinct certificate is
//    fingerprinted and classified once, not once per serving SNI;
//  * sni↔device/vendor/ip and vendor↔leaf/issuer↔leaf relations are sorted
//    posting lists over interned ids;
//  * the hex SHA-256 fingerprint of each distinct leaf is memoized, so no
//    analysis downstream of collect() ever re-hashes a certificate.
//
// The index is append-only, folded alongside CertDataset::fold: a fold
// interns its new records (in lexicographic SNI order) and the membership
// its existing records gained, merges the new records' columns into record
// order, and sort-merges only the posting rows that gained postings. One
// fold over an empty index (batch) assigns ids in record order, so ids and
// posting lists are bit-identical at every --jobs level. After a split fold
// the ids may be a renaming of a batch fold's; the content (every relation
// with ids resolved to strings) is the same, and no analysis depends on id
// order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/interner.hpp"
#include "x509/certificate.hpp"

namespace iotls::core {

struct SniRecord;

class CertIndex {
 public:
  static constexpr std::uint32_t kNone = Interner::kNone;

  /// Interners for each id domain, first-seen-ordered over the record fold.
  const Interner& snis() const { return snis_; }
  const Interner& devices() const { return devices_; }
  const Interner& vendors() const { return vendors_; }
  const Interner& users() const { return users_; }
  const Interner& ips() const { return ips_; }
  /// Leaf issuer organizations (Fig. 5 y-axis domain).
  const Interner& issuers() const { return issuers_; }
  /// Subject key ids (the SPKI-hash domain of the leaf identity).
  const Interner& spkis() const { return spkis_; }
  /// Distinct leaf SHA-256 fingerprints (hex), memoized at collect time.
  const Interner& fps() const { return fps_; }

  /// Number of distinct leaves (deduplicated by SPKI+serial).
  std::uint32_t leaf_count() const {
    return static_cast<std::uint32_t>(leaf_certs_.size());
  }
  /// The certificate of a leaf id: the instance served by the
  /// lexicographically first SNI presenting this SPKI+serial.
  const x509::Certificate& leaf_cert(std::uint32_t leaf) const {
    return leaf_certs_[leaf];
  }
  /// Memoized hex fingerprint of a leaf id.
  const std::string& leaf_fingerprint(std::uint32_t leaf) const {
    return fps_.str(leaf_fp_[leaf]);
  }
  std::uint32_t leaf_fp(std::uint32_t leaf) const { return leaf_fp_[leaf]; }
  std::uint32_t leaf_issuer(std::uint32_t leaf) const { return leaf_issuer_[leaf]; }
  std::uint32_t leaf_spki(std::uint32_t leaf) const { return leaf_spki_[leaf]; }

  /// Issuer organization id of a fingerprint id. A fingerprint hashes the
  /// full encoding, so every record serving it agrees on the issuer — the
  /// seed's fingerprint-keyed leaf map's "first insertion wins".
  std::uint32_t fp_issuer(std::uint32_t fp) const { return fp_issuer_[fp]; }
  std::int64_t fp_validity_days(std::uint32_t fp) const {
    return fp_validity_days_[fp];
  }

  /// Record position -> leaf id (kNone when unreachable or empty chain).
  const std::vector<std::uint32_t>& record_leaf() const { return record_leaf_; }
  /// Record position -> fingerprint id (kNone when no leaf).
  const std::vector<std::uint32_t>& record_fp() const { return record_fp_; }

  // Posting lists, indexed by the row domain's id; sorted-unique after
  // finalize().
  const std::vector<PostingList>& sni_devices() const { return sni_devices_; }
  const std::vector<PostingList>& sni_vendors() const { return sni_vendors_; }
  const std::vector<PostingList>& leaf_servers() const { return leaf_servers_; }
  const std::vector<PostingList>& leaf_ips() const { return leaf_ips_; }
  const std::vector<PostingList>& vendor_leaves() const { return vendor_leaves_; }
  const std::vector<PostingList>& issuer_leaves() const { return issuer_leaves_; }

  void reserve(std::size_t expected_records);

  /// Intern one new record. Within a fold, call in lexicographic SNI order.
  /// `leaf_fingerprint` is the precomputed hex fingerprint of the record's
  /// leaf (empty when unreachable or the chain is empty). The record's
  /// columns wait for finalize() to place them.
  void record(const SniRecord& rec, const std::string& leaf_fingerprint);

  /// Fold the members an already-placed record gained: `pos` is its record
  /// position, the lists hold only the newly added devices/vendors/users.
  void add_membership(std::size_t pos, const SniRecord& rec,
                      const std::vector<std::string_view>& devices,
                      const std::vector<std::string_view>& vendors,
                      const std::vector<std::string_view>& users);

  /// Close a fold: place the records given to record() since the last
  /// finalize at their record positions `at` (ascending, one per record in
  /// record() order, positions in the merged record list), then sort-merge
  /// the posting rows that gained postings.
  void finalize(const std::vector<std::size_t>& at);

 private:
  /// A leaf whose first serving record changed to one with another issuer
  /// organization: finalize() drops it from its old issuer's row.
  struct IssuerMove {
    std::uint32_t leaf, from;
  };

  Interner snis_, devices_, vendors_, users_, ips_, issuers_, spkis_, fps_;

  // Per-leaf columns (leaf = distinct SPKI+serial identity), taken from the
  // lexicographically first serving record (`leaf_owner_`, an SNI id).
  Interner leaf_ids_;  // "spki \x1f serial" -> dense leaf id
  std::vector<x509::Certificate> leaf_certs_;
  std::vector<std::uint32_t> leaf_fp_, leaf_issuer_, leaf_spki_, leaf_owner_;
  std::vector<IssuerMove> issuer_moves_;

  // Per-fingerprint columns.
  std::vector<std::uint32_t> fp_issuer_;
  std::vector<std::int64_t> fp_validity_days_;

  std::vector<std::uint32_t> record_leaf_, record_fp_;
  std::vector<std::uint32_t> pending_leaf_, pending_fp_;  // this fold's records

  std::vector<PostingList> sni_devices_, sni_vendors_;
  std::vector<PostingList> leaf_servers_, leaf_ips_;
  std::vector<PostingList> vendor_leaves_, issuer_leaves_;
  DirtyRows dirty_sni_devices_, dirty_sni_vendors_;
  DirtyRows dirty_leaf_servers_, dirty_leaf_ips_;
  DirtyRows dirty_vendor_leaves_, dirty_issuer_leaves_;
};

}  // namespace iotls::core
