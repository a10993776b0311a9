#include "core/cert_index.hpp"

#include "core/cert_dataset.hpp"

namespace iotls::core {

void CertIndex::reserve(std::size_t expected_records) {
  snis_.reserve(expected_records);
  record_sni_.reserve(expected_records);
  record_fp_.reserve(expected_records);
  sni_devices_.reserve(expected_records);
  sni_vendors_.reserve(expected_records);
}

void CertIndex::record(const SniRecord& rec, const std::string& leaf_fingerprint,
                       const DatasetIndex& client, std::uint32_t client_sni) {
  const std::uint32_t sni = snis_.intern(rec.sni);
  pending_sni_.push_back(sni);
  const PostingList& vendors = client.sni_vendors()[client_sni];
  for (std::uint32_t device : client.sni_devices()[client_sni]) {
    append_posting(sni_devices_, dirty_sni_devices_, sni,
                   devices_.intern(client.devices().str(device)));
  }
  for (std::uint32_t vendor : vendors) {
    append_posting(sni_vendors_, dirty_sni_vendors_, sni,
                   vendors_.intern(client.vendors().str(vendor)));
  }

  if (!rec.reachable || rec.chain.empty()) {
    pending_fp_.push_back(kNone);
    return;
  }

  const x509::Certificate& cert = rec.chain.front();
  const std::uint32_t fp = fps_.intern(leaf_fingerprint);
  if (fp == fp_issuer_.size()) {  // first record serving this leaf
    fp_issuer_.push_back(issuers_.intern(cert.issuer.organization));
    fp_validity_days_.push_back(cert.validity_days());
  }
  pending_fp_.push_back(fp);

  append_posting(leaf_servers_, dirty_leaf_servers_, fp, sni);
  for (const std::string& ip : rec.server_ips) {
    append_posting(leaf_ips_, dirty_leaf_ips_, fp, ips_.intern(ip));
  }
  for (std::uint32_t vendor : vendors) {
    append_posting(vendor_leaves_, dirty_vendor_leaves_,
                   vendors_.find(client.vendors().str(vendor)), fp);
  }
}

void CertIndex::add_membership(std::size_t pos, const DatasetIndex& client,
                               const PostingList& devices,
                               const PostingList& vendors) {
  const std::uint32_t sni = record_sni_[pos];
  const std::uint32_t fp = record_fp_[pos];
  for (std::uint32_t device : devices) {
    append_posting(sni_devices_, dirty_sni_devices_, sni,
                   devices_.intern(client.devices().str(device)));
  }
  for (std::uint32_t id : vendors) {
    const std::uint32_t vendor = vendors_.intern(client.vendors().str(id));
    append_posting(sni_vendors_, dirty_sni_vendors_, sni, vendor);
    if (fp != kNone) {
      append_posting(vendor_leaves_, dirty_vendor_leaves_, vendor, fp);
    }
  }
}

void CertIndex::finalize(const std::vector<std::size_t>& at) {
  // Place this fold's record columns, filling from the back so the columns
  // of earlier records shift once each.
  std::size_t old = record_fp_.size();
  record_sni_.resize(old + pending_sni_.size());
  record_fp_.resize(old + pending_fp_.size());
  for (std::size_t k = record_fp_.size(), j = pending_fp_.size(); j > 0;) {
    --k;
    if (k == at[j - 1]) {
      --j;
      record_sni_[k] = pending_sni_[j];
      record_fp_[k] = pending_fp_[j];
    } else {
      --old;
      record_sni_[k] = record_sni_[old];
      record_fp_[k] = record_fp_[old];
    }
  }
  pending_sni_.clear();
  pending_fp_.clear();

  merge_dirty_rows(sni_devices_, dirty_sni_devices_);
  merge_dirty_rows(sni_vendors_, dirty_sni_vendors_);
  merge_dirty_rows(leaf_servers_, dirty_leaf_servers_);
  merge_dirty_rows(leaf_ips_, dirty_leaf_ips_);
  merge_dirty_rows(vendor_leaves_, dirty_vendor_leaves_);

  // Posting tables are row-indexed by interned ids; pad to the full domain
  // so accessors never index past the end for rows that gained no postings.
  sni_devices_.resize(snis_.size());
  sni_vendors_.resize(snis_.size());
  leaf_servers_.resize(fps_.size());
  leaf_ips_.resize(fps_.size());
  vendor_leaves_.resize(vendors_.size());
}

}  // namespace iotls::core
