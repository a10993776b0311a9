#include "core/ct_validity.hpp"

#include <algorithm>

#include "exec/pool.hpp"

namespace iotls::core {

std::string chain_class_name(ChainClass c) {
  switch (c) {
    case ChainClass::kPublicLeafPublicRoot: return "public leaf, public root";
    case ChainClass::kPrivateLeafPublicRoot: return "private leaf, public root";
    case ChainClass::kPrivateLeafPrivateRoot: return "private leaf, private root";
  }
  return "?";
}

namespace {

bool issuer_public(const devicesim::SimWorld& world, const std::string& org) {
  auto it = world.issuer_is_public.find(org);
  return it == world.issuer_is_public.end() ? true : it->second;
}

ChainClass classify_chain(const devicesim::SimWorld& world,
                          const std::vector<x509::Certificate>& chain) {
  const x509::Certificate& leaf = chain.front();
  bool leaf_public = issuer_public(world, leaf.issuer.organization);
  if (leaf_public) return ChainClass::kPublicLeafPublicRoot;
  // Private leaf: does the chain anchor (directly or via the stores) at a
  // public root? A served intermediate whose own issuer key is in a trust
  // store marks the Netflix-style cross-signed case.
  const x509::Certificate& top = chain.back();
  bool anchored_public = top.self_signed()
                             ? world.trust.contains_key(top.subject_key_id)
                             : world.trust.contains_key(top.authority_key_id);
  return anchored_public ? ChainClass::kPrivateLeafPublicRoot
                         : ChainClass::kPrivateLeafPrivateRoot;
}

/// Fill `memo` for every record with a chain that lacks CtFacts. Pure
/// per-record reads of the world and index, so each slot is written by one
/// worker and the schedule never shows in the result.
void fill(const CertDataset& certs, const devicesim::SimWorld& world, int jobs,
          CtMemo& memo) {
  const CertIndex& ix = certs.index();
  const std::vector<SniRecord>& records = certs.records();
  memo.by_sni.resize(ix.snis().size());
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (ix.record_fp()[i] != CertIndex::kNone &&
        !memo.by_sni[ix.record_sni()[i]].known) {
      todo.push_back(i);
    }
  }
  exec::parallel_for(jobs, todo.size(), [&](std::size_t k) {
    const std::size_t i = todo[k];
    const std::vector<x509::Certificate>& chain = records[i].chain;
    CtFacts& facts = memo.by_sni[ix.record_sni()[i]];
    facts.cls = classify_chain(world, chain);
    facts.logged = world.ct_index.logged(ix.fps().str(ix.record_fp()[i]));
    facts.leaf_public = issuer_public(world, chain.front().issuer.organization);
    facts.known = true;
  });
}

}  // namespace

CtReport ct_report(const CertDataset& certs, const devicesim::SimWorld& world,
                   int jobs, CtMemo* memo) {
  CtMemo local;
  if (memo == nullptr) memo = &local;
  fill(certs, world, jobs, *memo);
  const CertIndex& ix = certs.index();
  const std::vector<SniRecord>& records = certs.records();

  // Sequential fold, record order: the seed aggregation on ids, with the
  // leaf fingerprint taken from the index memo instead of re-hashed per use.
  CtReport report;
  std::vector<std::uint8_t> private_fp(ix.fps().size());  // 1 private, 2 long
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint32_t fp = ix.record_fp()[i];
    if (fp == CertIndex::kNone) continue;  // unreachable, or no chain
    const std::uint32_t sni = ix.record_sni()[i];
    const CtFacts& rc = memo->by_sni[sni];
    const std::int64_t validity = ix.fp_validity_days(fp);
    report.tuples += ix.sni_vendors()[sni].size();

    if (rc.leaf_public) {
      ++report.public_leaves;
      if (rc.logged) {
        ++report.public_leaves_in_ct;
      } else {
        CtPoint anomaly;
        anomaly.sni = records[i].sni;
        anomaly.leaf_issuer = records[i].chain.front().issuer.organization;
        anomaly.leaf_fingerprint = ix.fps().str(fp);
        anomaly.validity_days = validity;
        anomaly.chain_class = rc.cls;
        report.public_not_logged.push_back(std::move(anomaly));
      }
      report.max_public_validity = std::max(report.max_public_validity, validity);
    } else {
      ++report.private_leaves;
      if (rc.logged) ++report.private_leaves_in_ct;
      private_fp[fp] = validity > 5 * 365 ? 2 : 1;
      report.max_private_validity = std::max(report.max_private_validity, validity);
    }
  }
  const auto all_private = static_cast<std::size_t>(
      std::count_if(private_fp.begin(), private_fp.end(), [](std::uint8_t f) { return f != 0; }));
  const auto long_private =
      static_cast<std::size_t>(std::count(private_fp.begin(), private_fp.end(), 2));
  report.private_long_validity_ratio =
      all_private == 0 ? 0 : static_cast<double>(long_private) / all_private;

  // Deduplicate the public-not-logged anomalies by leaf.
  std::sort(report.public_not_logged.begin(), report.public_not_logged.end(),
            [](const CtPoint& a, const CtPoint& b) {
              return a.leaf_fingerprint < b.leaf_fingerprint;
            });
  report.public_not_logged.erase(
      std::unique(report.public_not_logged.begin(), report.public_not_logged.end(),
                  [](const CtPoint& a, const CtPoint& b) {
                    return a.leaf_fingerprint == b.leaf_fingerprint;
                  }),
      report.public_not_logged.end());
  return report;
}

std::vector<CtPoint> ct_points(const CertDataset& certs,
                               const devicesim::SimWorld& world, int jobs,
                               CtMemo* memo) {
  CtMemo local;
  if (memo == nullptr) memo = &local;
  fill(certs, world, jobs, *memo);
  const CertIndex& ix = certs.index();
  const std::vector<SniRecord>& records = certs.records();
  std::vector<CtPoint> points;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint32_t fp = ix.record_fp()[i];
    if (fp == CertIndex::kNone) continue;
    const std::uint32_t sni = ix.record_sni()[i];
    const CtFacts& rc = memo->by_sni[sni];
    for (const std::string& vendor : names(ix.vendors(), ix.sni_vendors()[sni])) {
      CtPoint point;
      point.sni = records[i].sni;
      point.vendor = vendor;
      point.leaf_fingerprint = ix.fps().str(fp);
      point.leaf_issuer = records[i].chain.front().issuer.organization;
      point.validity_days = ix.fp_validity_days(fp);
      point.chain_class = rc.cls;
      point.in_ct = rc.logged;
      points.push_back(std::move(point));
    }
  }
  return points;
}

std::vector<IssuerValidityRow> issuer_validity_variance(
    const CertDataset& certs, const devicesim::SimWorld& world,
    const std::string& issuer_org) {
  // Group this issuer's distinct leaves by topmost-chain issuer. Leaf
  // fingerprints come from the index memo rather than being re-hashed.
  const CertIndex& ix = certs.index();
  std::map<std::string, IssuerValidityRow> rows;
  std::map<std::string, std::set<std::string>> counted;  // row key -> leaf fps
  const std::vector<SniRecord>& records = certs.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SniRecord& record = records[i];
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    if (leaf.issuer.organization != issuer_org) continue;
    const std::string& leaf_fp = ix.fps().str(ix.record_fp()[i]);
    const x509::Certificate& top = record.chain.back();
    std::string topmost = top.self_signed()
                              ? top.subject.common_name
                              : top.issuer.common_name;
    IssuerValidityRow& row = rows[topmost];
    row.leaf_issuer_cn = leaf.issuer.common_name.empty()
                             ? issuer_org
                             : leaf.issuer.common_name;
    row.topmost_issuer = topmost;
    row.validity_days.insert(leaf.validity_days());
    if (counted[topmost].insert(leaf_fp).second) ++row.certs;
    if (world.ct_index.logged(leaf_fp)) row.any_in_ct = true;
  }
  std::vector<IssuerValidityRow> out;
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const IssuerValidityRow& a, const IssuerValidityRow& b) {
              return *a.validity_days.rbegin() > *b.validity_days.rbegin();
            });
  return out;
}

}  // namespace iotls::core
