// §5.3: certificate chain validation over the probed dataset —
// Tables 7 (validation failures), 8 (expired), 14 (private issuers),
// plus Common Name mismatches.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "x509/validation.hpp"

namespace iotls::core {

/// Validation outcome for one SNI: a pure function of its record's chain,
/// the world and the validation day.
struct SniValidation {
  std::string sni;
  x509::ValidationResult result;
  std::string leaf_issuer;
  bool leaf_issuer_public = true;
  std::size_t chain_length = 0;
};

/// Each record's SniValidation, keyed by CertIndex SNI id (stable across
/// folds, unlike record positions). A memo serves one growing dataset, one
/// world and one validation day: the streaming ingest keeps one beside its
/// resident CertDataset, so a render validates only the records no earlier
/// render saw. Entries never move once filled.
struct ChainMemo {
  /// SNI id -> its validation (null until validated).
  std::vector<std::unique_ptr<const SniValidation>> by_sni;
  /// SNI id -> its Table 7 row (an index into `row_keys`), kNone when the
  /// chain is trusted.
  std::vector<std::uint32_t> row_of;
  /// What a row prints, by row index; `rows` maps each row's sort key
  /// ("sld|issuer|status") to its index, in the order rows are listed.
  struct RowKey {
    std::string sld, issuer;
    x509::ChainStatus status = x509::ChainStatus::kOk;
  };
  std::vector<RowKey> row_keys;
  std::map<std::string, std::uint32_t> rows;
};

/// Table 7/14 row: one {SLD, issuer, status} aggregation. `devices` is the
/// union of the aggregated SNIs' CertIndex device rows (ids; only the count
/// is printed); `vendors` the union of their vendor rows, resolved to names.
struct DomainChainRow {
  std::string sld;
  std::string leaf_issuer;
  x509::ChainStatus status = x509::ChainStatus::kOk;
  std::set<std::size_t> chain_lengths;
  std::size_t fqdns = 0;
  PostingList devices;
  std::set<std::string> vendors;
};

/// Table 8 row; `devices` is the SNI's CertIndex device row, `vendors` its
/// vendor row resolved to names.
struct ExpiredRow {
  std::string sni;
  std::string sld;
  std::int64_t not_after = 0;
  std::string issuer;
  PostingList devices;
  std::set<std::string> vendors;
};

struct ChainReport {
  /// Every reachable record's validation, in record order. The entries live
  /// in `memo`, which the report shares, so they stay valid with the report.
  std::vector<const SniValidation*> validations;

  /// Failure aggregation by {SLD, issuer} for statuses the paper tables:
  /// incomplete chain / untrusted root / self-signed (Tables 7 & 14).
  std::vector<DomainChainRow> failure_rows;     // any non-trusted status
  std::vector<DomainChainRow> private_root_rows;  // untrusted root only
  std::vector<DomainChainRow> self_signed_rows;   // self-signed leaf only

  std::vector<ExpiredRow> expired;
  std::vector<const SniValidation*> cn_mismatches;  // entries of `memo`

  std::size_t validated = 0;
  std::size_t trusted = 0;
  /// Fraction of *private-CA-issued* leaves in failed chains (§5.3 reports
  /// 45.78% of private leaves fail validation for missing roots).
  double private_leaf_failure_ratio = 0;

  /// The memo `validations` and `cn_mismatches` point into.
  std::shared_ptr<const ChainMemo> memo;
};

/// Validate every reachable SNI's served chain at `now` (probe day).
///
/// Only records without an entry in `memo` are validated; the rest reuse
/// theirs. Without a memo (batch) a fresh one is made, so every reachable
/// record is validated once. The aggregation then runs on ids: each row
/// unions its SNIs' CertIndex posting lists and resolves vendor names once.
///
/// `jobs` shards the validation across worker threads (1 = sequential, 0 =
/// hardware concurrency); results land in per-SNI slots and are aggregated
/// in record order, so the report is byte-identical at every jobs level.
/// `cache` (optional) memoizes signature verification per distinct
/// certificate, so chains sharing intermediates verify each edge once per
/// survey instead of once per SNI.
ChainReport validate_dataset(const CertDataset& certs,
                             const devicesim::SimWorld& world, std::int64_t now,
                             int jobs = 1, x509::ValidationCache* cache = nullptr,
                             std::shared_ptr<ChainMemo> memo = nullptr);

}  // namespace iotls::core
