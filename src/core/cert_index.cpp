#include "core/cert_index.hpp"

#include <algorithm>

#include "core/cert_dataset.hpp"

namespace iotls::core {

void CertIndex::reserve(std::size_t expected_records) {
  snis_.reserve(expected_records);
  record_leaf_.reserve(expected_records);
  record_fp_.reserve(expected_records);
  sni_devices_.reserve(expected_records);
  sni_vendors_.reserve(expected_records);
}

void CertIndex::record(const SniRecord& rec,
                       const std::string& leaf_fingerprint) {
  const std::uint32_t sni = snis_.intern(rec.sni);
  for (const std::string& device : rec.devices) {
    append_posting(sni_devices_, dirty_sni_devices_, sni, devices_.intern(device));
  }
  for (const std::string& vendor : rec.vendors) {
    append_posting(sni_vendors_, dirty_sni_vendors_, sni, vendors_.intern(vendor));
  }
  for (const std::string& user : rec.users) users_.intern(user);

  if (!rec.reachable || rec.chain.empty()) {
    pending_leaf_.push_back(kNone);
    pending_fp_.push_back(kNone);
    return;
  }

  const x509::Certificate& cert = rec.chain.front();
  const std::uint32_t fp = fps_.intern(leaf_fingerprint);
  if (fp == fp_issuer_.size()) {  // first record serving this fingerprint
    fp_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    fp_validity_days_.push_back(cert.validity_days());
  }

  // Leaf identity: SPKI + serial (the paper's certificate dedup key).
  const std::uint32_t spki = spkis_.intern(cert.subject_key_id);
  std::string identity = cert.subject_key_id;
  identity += '\x1f';
  identity += std::to_string(cert.serial);
  const std::uint32_t leaf = leaf_ids_.intern(identity);
  if (leaf == leaf_certs_.size()) {  // first sighting of this certificate
    leaf_certs_.push_back(cert);
    leaf_fp_.push_back(fp);
    leaf_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    leaf_spki_.push_back(spki);
    leaf_owner_.push_back(sni);
  } else if (rec.sni < snis_.str(leaf_owner_[leaf])) {
    // An earlier fold saw this SPKI+serial first on a lexicographically
    // later SNI; a batch fold would have taken this record's instance.
    // Only a later fold can get here: one fold records in SNI order.
    leaf_certs_[leaf] = cert;
    leaf_fp_[leaf] = fp;
    leaf_owner_[leaf] = sni;
    const std::uint32_t issuer = issuers_.intern(cert.issuer.organization);
    if (issuer != leaf_issuer_[leaf]) {
      issuer_moves_.push_back({leaf, leaf_issuer_[leaf]});
      leaf_issuer_[leaf] = issuer;
    }
  }
  pending_leaf_.push_back(leaf);
  pending_fp_.push_back(fp);

  append_posting(leaf_servers_, dirty_leaf_servers_, leaf, sni);
  for (const std::string& ip : rec.server_ips) {
    append_posting(leaf_ips_, dirty_leaf_ips_, leaf, ips_.intern(ip));
  }
  append_posting(issuer_leaves_, dirty_issuer_leaves_, leaf_issuer_[leaf], leaf);
  for (const std::string& vendor : rec.vendors) {
    append_posting(vendor_leaves_, dirty_vendor_leaves_, vendors_.intern(vendor), leaf);
  }
}

void CertIndex::add_membership(std::size_t pos, const SniRecord& rec,
                               const std::vector<std::string_view>& devices,
                               const std::vector<std::string_view>& vendors,
                               const std::vector<std::string_view>& users) {
  const std::uint32_t sni = snis_.find(rec.sni);
  const std::uint32_t leaf = record_leaf_[pos];
  for (std::string_view device : devices) {
    append_posting(sni_devices_, dirty_sni_devices_, sni, devices_.intern(device));
  }
  for (std::string_view name : vendors) {
    const std::uint32_t vendor = vendors_.intern(name);
    append_posting(sni_vendors_, dirty_sni_vendors_, sni, vendor);
    if (leaf != kNone) {
      append_posting(vendor_leaves_, dirty_vendor_leaves_, vendor, leaf);
    }
  }
  for (std::string_view user : users) users_.intern(user);
}

void CertIndex::finalize(const std::vector<std::size_t>& at) {
  // Place this fold's record columns, filling from the back so the columns
  // of earlier records shift once each.
  std::size_t old = record_leaf_.size();
  record_leaf_.resize(old + pending_leaf_.size());
  record_fp_.resize(old + pending_fp_.size());
  for (std::size_t k = record_leaf_.size(), j = pending_leaf_.size(); j > 0;) {
    --k;
    if (k == at[j - 1]) {
      --j;
      record_leaf_[k] = pending_leaf_[j];
      record_fp_[k] = pending_fp_[j];
    } else {
      --old;
      record_leaf_[k] = record_leaf_[old];
      record_fp_[k] = record_fp_[old];
    }
  }
  pending_leaf_.clear();
  pending_fp_.clear();

  merge_dirty_rows(sni_devices_, dirty_sni_devices_);
  merge_dirty_rows(sni_vendors_, dirty_sni_vendors_);
  merge_dirty_rows(leaf_servers_, dirty_leaf_servers_);
  merge_dirty_rows(leaf_ips_, dirty_leaf_ips_);
  merge_dirty_rows(vendor_leaves_, dirty_vendor_leaves_);
  merge_dirty_rows(issuer_leaves_, dirty_issuer_leaves_);
  for (const IssuerMove& move : issuer_moves_) {
    PostingList& row = issuer_leaves_[move.from];
    row.erase(std::lower_bound(row.begin(), row.end(), move.leaf));
  }
  issuer_moves_.clear();

  // Posting tables are row-indexed by interned ids; pad to the full domain
  // so accessors never index past the end for rows that gained no postings.
  sni_devices_.resize(snis_.size());
  sni_vendors_.resize(snis_.size());
  leaf_servers_.resize(leaf_certs_.size());
  leaf_ips_.resize(leaf_certs_.size());
  vendor_leaves_.resize(vendors_.size());
  issuer_leaves_.resize(issuers_.size());
}

}  // namespace iotls::core
