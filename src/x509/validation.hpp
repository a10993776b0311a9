// Certificate chain validation with the paper's verdict taxonomy (§5.3).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/health.hpp"
#include "x509/authority.hpp"
#include "x509/certificate.hpp"
#include "x509/revocation.hpp"
#include "x509/truststore.hpp"

namespace iotls::x509 {

/// Structural chain verdicts matching the categories the paper reports
/// (Tables 7/14/17): a chain is one of —
///   kOk              valid to a trust-store root present in the chain;
///   kOkRootOmitted   valid, root absent from the chain but found in a trust
///                    store (permitted by RFC 5246 §7.4.2);
///   kSelfSigned      the leaf has identical subject and issuer
///                    ("self-signed certificate" rows in Table 14);
///   kUntrustedRoot   the chain terminates at a self-signed root that is in
///                    no trust store ("private root CA" rows);
///   kIncompleteChain the topmost certificate's issuer is neither in the
///                    chain nor in any trust store (missing intermediates);
///   kBadSignature    some adjacent signature fails to verify;
///   kEmptyChain      the server presented no certificates.
enum class ChainStatus {
  kOk,
  kOkRootOmitted,
  kSelfSigned,
  kUntrustedRoot,
  kIncompleteChain,
  kBadSignature,
  kEmptyChain,
};

std::string chain_status_name(ChainStatus s);

/// Metric-name slug for a verdict (e.g. kUntrustedRoot -> "untrusted_root"),
/// used for the per-failure-class counters mirroring Table 7.
std::string chain_status_slug(ChainStatus s);

/// True for the two verdicts the paper counts as "valid chain".
inline bool chain_trusted(ChainStatus s) {
  return s == ChainStatus::kOk || s == ChainStatus::kOkRootOmitted;
}

/// Full validation outcome. Expiry and hostname problems are orthogonal to
/// the structural verdict (the paper reports them in separate tables), so
/// they are flags rather than statuses.
struct ValidationResult {
  ChainStatus status = ChainStatus::kEmptyChain;
  bool expired = false;         // any chain member expired at `now`
  bool not_yet_valid = false;   // any chain member not yet valid at `now`
  bool hostname_ok = false;     // leaf CN/SAN covers the requested host
  std::size_t chain_length = 0; // as served (excluding any store-found root)
  std::string detail;           // human-readable explanation

  /// "Fully clean": trusted chain, in validity window, hostname matches.
  bool clean() const {
    return chain_trusted(status) && !expired && !not_yet_valid && hostname_ok;
  }
};

/// Memoizing verification cache for bulk chain validation (§5.3).
///
/// A survey validates one chain per SNI, but distinct certificates are far
/// fewer than served chains: ~1,150 SNIs share ~840 leaves and a few dozen
/// intermediates and roots, so the same issuer→subject signature edge is
/// re-verified hundreds of times by a sequential walk. The cache memoizes
/// the boolean outcome of signature verification per distinct certificate
/// (and of OCSP staple verification per distinct staple) so each edge costs
/// one verification pass per survey instead of one per SNI.
///
/// Keying note: this codebase's signature scheme is a single keyed-hash
/// pass over the TBS bytes (crypto/signature.hpp), so keying the cache on a
/// TBS digest would cost as much as the verification it saves. Entries are
/// instead keyed on the certificate's cheap identity tuple — authority key
/// id, subject key id (SPKI), serial and validity window.
///
/// Thread safety: the table is mutex-striped into shards and the shard lock
/// is held across the verification itself, so each distinct certificate is
/// verified exactly once no matter how many workers race for it — the
/// `x509.cache.hit` / `x509.cache.miss` counter totals are identical at
/// every --jobs level.
class ValidationCache {
 public:
  /// Registers a liveness check `x509.validation_cache.<n>` for the export
  /// plane (memoized-entry count as the detail), removed again on
  /// destruction; byte growth is accounted to the `validation_cache` arena.
  ValidationCache();
  ~ValidationCache();

  /// Memoized signature check: does `cert` verify under its authority key?
  bool signature_ok(const Certificate& cert, const KeyRegistry& keys);

  /// Memoized OCSP staple verification (servers sharing a certificate tend
  /// to staple the same responder answer).
  bool ocsp_ok(const OcspResponse& response, const KeyRegistry& keys);

  /// Distinct certificates/staples memoized so far.
  std::size_t entries() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, bool> verdicts;
  };
  static constexpr std::size_t kShardCount = 16;

  Shard& shard_for(const std::string& key);
  void account_insert(const std::string& key);

  std::array<Shard, kShardCount> shards_;
  std::uint64_t accounted_bytes_ = 0;  // released from the arena on destruction
  std::mutex account_mu_;
  std::unique_ptr<obs::ScopedHealthCheck> health_;
};

/// Reorder an arbitrarily-ordered served chain into leaf-first issuer order
/// (misordered chains are a common server misconfiguration that validators
/// like Zeek and browsers tolerate). The leaf is the certificate covering
/// `hostname`, falling back to the one that signs no other member. Members
/// that do not link are appended unchanged, preserving incomplete-chain
/// semantics. Duplicates (the samsunghrm pattern) are preserved.
std::vector<Certificate> normalize_chain_order(std::vector<Certificate> chain,
                                               const std::string& hostname);

/// Validate a served chain (leaf first) for `hostname` at day `now`.
/// `keys` is the registry of issuer verification keys; `trust` is the union
/// of root stores (Mozilla+Apple+Microsoft analogue). When `cache` is
/// non-null, per-certificate signature checks are memoized through it; the
/// result is identical to the uncached path.
ValidationResult validate_chain(const std::vector<Certificate>& chain,
                                const std::string& hostname,
                                const TrustStoreSet& trust,
                                const KeyRegistry& keys, std::int64_t now,
                                ValidationCache* cache = nullptr);

/// Decode and validate a chain of encoded certificates (e.g. straight from a
/// TLS Certificate message). Malformed members yield kBadSignature with a
/// detail message rather than an exception.
ValidationResult validate_encoded_chain(const std::vector<Bytes>& encoded_chain,
                                        const std::string& hostname,
                                        const TrustStoreSet& trust,
                                        const KeyRegistry& keys,
                                        std::int64_t now,
                                        ValidationCache* cache = nullptr);

}  // namespace iotls::x509
