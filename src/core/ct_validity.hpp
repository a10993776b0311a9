// §5.4: Certificate Transparency logging vs validity periods — Fig. 6,
// Table 9 (Netflix), Fig. 13 (CT vs private-issuer chains).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"

namespace iotls::core {

/// Fig. 6 point categories ("chain status" colours).
enum class ChainClass {
  kPublicLeafPublicRoot,   // blue
  kPrivateLeafPublicRoot,  // yellow (e.g. Netflix short-lived)
  kPrivateLeafPrivateRoot, // orange
};

std::string chain_class_name(ChainClass c);

/// One Fig. 6 point: a {server, leaf, vendor} tuple.
struct CtPoint {
  std::string sni;
  std::string vendor;
  std::string leaf_fingerprint;
  std::string leaf_issuer;
  std::int64_t validity_days = 0;
  ChainClass chain_class = ChainClass::kPublicLeafPublicRoot;
  bool in_ct = false;
};

/// The CT facts of one record with a chain: pure functions of the chain
/// and the world.
struct CtFacts {
  bool known = false;  // filled
  ChainClass cls = ChainClass::kPublicLeafPublicRoot;
  bool logged = false;
  bool leaf_public = false;
};

/// Each record's CtFacts, keyed by CertIndex SNI id. Like ChainMemo, a memo
/// serves one growing dataset and one world; the streaming ingest keeps one
/// beside its resident CertDataset.
struct CtMemo {
  std::vector<CtFacts> by_sni;
};

struct CtReport {
  std::size_t tuples = 0;  // {server, leaf, vendor} tuples (see ct_points)

  // Aggregates.
  std::size_t public_leaves = 0;
  std::size_t public_leaves_in_ct = 0;
  std::vector<CtPoint> public_not_logged;    // the 8 anomalies of §5.4
  std::size_t private_leaves = 0;
  std::size_t private_leaves_in_ct = 0;      // paper finds 0
  /// Of vendor-signed (private) distinct leaves: fraction with validity > 5y.
  double private_long_validity_ratio = 0;
  /// Max validity of a public leaf vs typical private validity (Fig. 6's
  /// split around 1,000 days).
  std::int64_t max_public_validity = 0;
  std::int64_t max_private_validity = 0;
};

/// Only records without an entry in `memo` are classified and looked up in
/// CT; without a memo (batch) a fresh one is made. `jobs` shards that stage
/// across worker threads (1 = sequential, 0 = hardware concurrency); the
/// aggregation runs in record order on ids, so the report is byte-identical
/// at every jobs level. Tuples are counted from the SNIs' vendor rows, not
/// materialized. Leaf fingerprints come from the dataset's index memo — no
/// certificate is re-hashed here.
CtReport ct_report(const CertDataset& certs, const devicesim::SimWorld& world,
                   int jobs = 1, CtMemo* memo = nullptr);

/// Fig. 6's points: one per {server, leaf, vendor} tuple, in record order
/// and vendor-name order within a record. `jobs` and `memo` as in
/// ct_report.
std::vector<CtPoint> ct_points(const CertDataset& certs,
                               const devicesim::SimWorld& world, int jobs = 1,
                               CtMemo* memo = nullptr);

/// Table 9: validity variance of one private issuer (Netflix in the paper).
struct IssuerValidityRow {
  std::string leaf_issuer_cn;      // as printed (issuer org + chain root)
  std::string topmost_issuer;
  std::set<std::int64_t> validity_days;
  std::size_t certs = 0;
  bool any_in_ct = false;
};

std::vector<IssuerValidityRow> issuer_validity_variance(
    const CertDataset& certs, const devicesim::SimWorld& world,
    const std::string& issuer_org);

}  // namespace iotls::core
