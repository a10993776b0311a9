// §5.3: certificate chain validation over the probed dataset —
// Tables 7 (validation failures), 8 (expired), 14 (private issuers),
// plus Common Name mismatches.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "x509/validation.hpp"

namespace iotls::core {

/// Validation outcome for one SNI.
struct SniValidation {
  std::string sni;
  x509::ValidationResult result;
  std::string leaf_issuer;
  bool leaf_issuer_public = true;
  std::size_t chain_length = 0;
};

/// Table 7/14 row: one {SLD, issuer, status} aggregation. `devices` and
/// `vendors` are the union of the aggregated SNIs' CertIndex rows, resolved
/// to names for printing.
struct DomainChainRow {
  std::string sld;
  std::string leaf_issuer;
  x509::ChainStatus status = x509::ChainStatus::kOk;
  std::set<std::size_t> chain_lengths;
  std::size_t fqdns = 0;
  std::set<std::string> devices;
  std::set<std::string> vendors;
};

/// Table 8 row; `devices`/`vendors` resolved from the SNI's CertIndex rows.
struct ExpiredRow {
  std::string sni;
  std::string sld;
  std::int64_t not_after = 0;
  std::string issuer;
  std::set<std::string> devices;
  std::set<std::string> vendors;
};

struct ChainReport {
  std::vector<SniValidation> validations;

  /// Failure aggregation by {SLD, issuer} for statuses the paper tables:
  /// incomplete chain / untrusted root / self-signed (Tables 7 & 14).
  std::vector<DomainChainRow> failure_rows;     // any non-trusted status
  std::vector<DomainChainRow> private_root_rows;  // untrusted root only
  std::vector<DomainChainRow> self_signed_rows;   // self-signed leaf only

  std::vector<ExpiredRow> expired;
  std::vector<SniValidation> cn_mismatches;

  std::size_t validated = 0;
  std::size_t trusted = 0;
  /// Fraction of *private-CA-issued* leaves in failed chains (§5.3 reports
  /// 45.78% of private leaves fail validation for missing roots).
  double private_leaf_failure_ratio = 0;
};

/// Validate every reachable SNI's served chain at `now` (probe day).
///
/// `jobs` shards the per-SNI validation across worker threads (1 =
/// sequential, 0 = hardware concurrency); per-record results are computed
/// into pre-sized slots and aggregated in record order, so the report is
/// byte-identical at every jobs level. `cache` (optional) memoizes
/// signature verification per distinct certificate, so chains sharing
/// intermediates verify each edge once per survey instead of once per SNI.
ChainReport validate_dataset(const CertDataset& certs,
                             const devicesim::SimWorld& world, std::int64_t now,
                             int jobs = 1, x509::ValidationCache* cache = nullptr);

}  // namespace iotls::core
