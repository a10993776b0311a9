#include "core/chains.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "util/strings.hpp"

namespace iotls::core {

ChainReport validate_dataset(const CertDataset& certs,
                             const devicesim::SimWorld& world, std::int64_t now,
                             int jobs, x509::ValidationCache* cache,
                             std::shared_ptr<ChainMemo> memo) {
  if (memo == nullptr) memo = std::make_shared<ChainMemo>();
  const CertIndex& ix = certs.index();
  const std::vector<SniRecord>& records = certs.records();
  memo->by_sni.resize(ix.snis().size());
  memo->row_of.resize(ix.snis().size(), CertIndex::kNone);

  // Parallel stage: validate each reachable record the memo lacks into its
  // own slot. Per-record validation is pure (the cache memoizes
  // deterministic verify outcomes, and obs verdict counters are additive),
  // so only the schedule depends on jobs — never the results.
  std::vector<std::uint32_t> todo;  // record positions
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].reachable && memo->by_sni[ix.record_sni()[i]] == nullptr) {
      todo.push_back(static_cast<std::uint32_t>(i));
    }
  }
  exec::parallel_for(jobs, todo.size(), [&](std::size_t k) {
    const SniRecord& record = records[todo[k]];
    auto v = std::make_unique<SniValidation>();
    v->sni = record.sni;
    // Chains in a CertDataset are already normalized to leaf-first order by
    // collect() (the Zeek-style misorder repair), and normalization is
    // idempotent — so validate as served instead of copying every
    // certificate through a second normalize pass. test_cert_pipeline pins
    // byte-identity against the seed path, which re-normalized here.
    v->result = x509::validate_chain(record.chain, record.sni, world.trust,
                                     world.keys, now, cache);
    v->chain_length = record.chain.size();
    if (!record.chain.empty()) {
      v->leaf_issuer = record.chain.front().issuer.organization;
      auto it = world.issuer_is_public.find(v->leaf_issuer);
      v->leaf_issuer_public = it == world.issuer_is_public.end() ? true : it->second;
    }
    memo->by_sni[ix.record_sni()[todo[k]]] = std::move(v);
  });
  // Sequential: file each newly validated failure under its {SLD, issuer,
  // status} row.
  for (std::uint32_t i : todo) {
    const std::uint32_t sni = ix.record_sni()[i];
    const SniValidation& v = *memo->by_sni[sni];
    if (x509::chain_trusted(v.result.status)) continue;
    std::string sld = second_level_domain(v.sni);
    auto [it, inserted] = memo->rows.try_emplace(
        sld + "|" + v.leaf_issuer + "|" + x509::chain_status_name(v.result.status),
        static_cast<std::uint32_t>(memo->row_keys.size()));
    if (inserted) memo->row_keys.push_back({std::move(sld), v.leaf_issuer, v.result.status});
    memo->row_of[sni] = it->second;
  }

  // Sequential fold, record order: the seed aggregation on ids.
  ChainReport report;
  report.validations.reserve(records.size());
  struct Group {
    std::vector<std::uint32_t> snis;
    std::set<std::size_t> chain_lengths;
  };
  std::vector<Group> groups(memo->row_keys.size());
  std::size_t private_leaves = 0;
  std::size_t private_leaf_failures = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    if (!record.reachable) continue;
    const std::uint32_t sni = ix.record_sni()[i];
    const SniValidation& v = *memo->by_sni[sni];
    ++report.validated;
    if (x509::chain_trusted(v.result.status)) ++report.trusted;

    if (!v.leaf_issuer_public) {
      ++private_leaves;
      if (!x509::chain_trusted(v.result.status)) ++private_leaf_failures;
    }
    if (const std::uint32_t r = memo->row_of[sni]; r != CertIndex::kNone) {
      groups[r].snis.push_back(sni);
      groups[r].chain_lengths.insert(v.chain_length);
    }

    if (v.result.expired && !record.chain.empty()) {
      ExpiredRow row;
      row.sni = v.sni;
      row.sld = second_level_domain(v.sni);
      row.not_after = record.chain.front().not_after;
      row.issuer = v.leaf_issuer;
      row.devices = ix.sni_devices()[sni];
      row.vendors = names(ix.vendors(), ix.sni_vendors()[sni]);
      report.expired.push_back(std::move(row));
    }
    if (!v.result.hostname_ok && !record.chain.empty()) {
      report.cn_mismatches.push_back(&v);
    }
    report.validations.push_back(&v);
  }

  // Rows in key order: each unions its SNIs' device and vendor rows and
  // resolves the vendor names once. Table 14's untrusted-root and
  // self-signed lists are the failure rows of those statuses.
  UnionBuilder devices, vendors;
  PostingList vendor_ids;
  for (const auto& [key, r] : memo->rows) {
    Group& group = groups[r];
    if (group.snis.empty()) continue;
    const ChainMemo::RowKey& rk = memo->row_keys[r];
    DomainChainRow row;
    row.sld = rk.sld;
    row.leaf_issuer = rk.issuer;
    row.status = rk.status;
    row.chain_lengths = std::move(group.chain_lengths);
    row.fqdns = group.snis.size();
    devices.start(ix.devices().size());
    vendors.start(ix.vendors().size());
    vendor_ids.clear();
    for (std::uint32_t sni : group.snis) {
      devices.add(ix.sni_devices()[sni], row.devices);
      vendors.add(ix.sni_vendors()[sni], vendor_ids);
    }
    std::sort(row.devices.begin(), row.devices.end());
    row.vendors = names(ix.vendors(), vendor_ids);
    if (row.status == x509::ChainStatus::kUntrustedRoot) {
      report.private_root_rows.push_back(row);
    }
    if (row.status == x509::ChainStatus::kSelfSigned) report.self_signed_rows.push_back(row);
    report.failure_rows.push_back(std::move(row));
  }
  for (std::vector<DomainChainRow>* rows :
       {&report.failure_rows, &report.private_root_rows, &report.self_signed_rows}) {
    std::sort(rows->begin(), rows->end(),
              [](const DomainChainRow& a, const DomainChainRow& b) {
                return a.devices.size() > b.devices.size();
              });
  }

  report.private_leaf_failure_ratio =
      private_leaves ? static_cast<double>(private_leaf_failures) / private_leaves : 0;
  report.memo = std::move(memo);
  return report;
}

}  // namespace iotls::core
