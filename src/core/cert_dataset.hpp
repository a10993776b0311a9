// §5.1: the IoT-server certificate dataset — probe every SNI extracted from
// ClientHellos from three vantage points, collect leaves, measure sharing.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cert_index.hpp"
#include "core/dataset.hpp"
#include "devicesim/scenario.hpp"
#include "net/prober.hpp"

namespace iotls::x509 {
class ValidationCache;
}

namespace iotls::core {

/// Per-SNI probe outcome (New York is the reference vantage, §5.1).
struct SniRecord {
  std::string sni;
  bool reachable = false;
  /// Chain as served to New York, normalized to leaf-first order (the
  /// harvester repairs misordered chains the way Zeek does;
  /// `served_misordered` records that it had to).
  std::vector<x509::Certificate> chain;
  bool served_misordered = false;
  std::map<net::VantagePoint, std::optional<std::string>> leaf_by_vantage;
  std::set<std::string> devices;  // devices that contacted this SNI
  std::set<std::string> vendors;
  std::set<std::string> users;
  std::vector<std::string> server_ips;
  bool stapled = false;        // server answered status_request with a staple
  bool staple_valid = false;   // ...that verified against the responder key
};

/// A deduplicated leaf certificate with the servers presenting it.
struct LeafRecord {
  x509::Certificate cert;
  std::set<std::string> servers;  // FQDNs presenting this leaf (New York)
  std::set<std::string> ips;
};

/// Table 15 row.
struct SldPopularity {
  std::string sld;
  std::size_t servers = 0;
  std::size_t devices = 0;
};

/// Table 16 row data.
struct GeoComparison {
  std::map<net::VantagePoint, std::size_t> extracted;   // SNIs with a cert
  std::size_t shared_all = 0;                            // same leaf everywhere
  std::map<net::VantagePoint, std::size_t> exclusive;    // leaf unique to place
};

struct ProbeMemo;

/// The §5.1 dataset.
class CertDataset {
 public:
  /// Probe every SNI observed from at least `min_users` users.
  ///
  /// `jobs` shards the probing across worker threads (1 = sequential on the
  /// caller, 0 = hardware concurrency); SNIs are probed one per shard and
  /// merged in input (lexicographic SNI) order, so the dataset — records,
  /// leaves, counters and the interned index — is byte-identical at every
  /// jobs level. `cache` (optional) memoizes OCSP staple verification
  /// across servers sharing a certificate. `internet` (optional) overrides
  /// the internet probes travel through — e.g. a FaultInjector decorating
  /// `world.internet` — without touching the world's PKI or IP metadata.
  /// Without a `memo` this is one fold() into an empty dataset. With one,
  /// the call folds `client`'s growth into the memo's resident dataset (see
  /// ProbeMemo) and returns a copy of it.
  static CertDataset collect(const ClientDataset& client,
                             const devicesim::SimWorld& world,
                             std::size_t min_users = 1, int jobs = 1,
                             x509::ValidationCache* cache = nullptr,
                             const net::Internet* internet = nullptr,
                             ProbeMemo* memo = nullptr);

  /// What one fold() did.
  struct FoldStats {
    std::size_t snis_probed = 0;        // new records, probed this fold
    std::size_t records_refreshed = 0;  // records whose membership grew
  };

  /// Fold `client`'s growth since the previous fold into this dataset, in
  /// place. Walking the client index by SNI id, an SNI is *new* once its
  /// user posting list reaches `min_users` and it has no record yet: it is
  /// probed (in parallel, as in collect) and merged into records() in
  /// lexicographic order. A recorded SNI is *dirty* when one of its
  /// device/vendor/user posting lists grew since the fold that last read
  /// it; only dirty records have their membership refreshed. Posting lists
  /// only grow, so any split of one event stream into client epochs, each
  /// followed by a fold, yields the records, leaves and counters of one
  /// fold over the whole stream, and an index with the same content (ids
  /// may be renamed; see CertIndex). A dataset must keep folding the same
  /// growing `client` with the same `world` and `min_users`.
  FoldStats fold(const ClientDataset& client, const devicesim::SimWorld& world,
                 std::size_t min_users = 1, int jobs = 1,
                 x509::ValidationCache* cache = nullptr,
                 const net::Internet* internet = nullptr);

  const std::vector<SniRecord>& records() const { return records_; }
  const std::map<std::string, LeafRecord>& leaves() const { return leaves_; }

  /// The interned-id cross-index kept alongside the records (dense ids,
  /// posting lists, per-leaf fingerprint memo) — what the §5.2–§5.4
  /// analyses run on.
  const CertIndex& index() const { return index_; }

  std::size_t extracted_snis() const { return extracted_; }
  std::size_t reachable_snis() const { return reachable_; }

  /// Distinct leaf issuer organizations (Table 6 "#issuer organizations").
  std::set<std::string> issuer_organizations() const;

  /// Table 15: most popular SLDs by contacting devices (top `n`).
  std::vector<SldPopularity> popular_slds(std::size_t n) const;
  std::size_t distinct_slds() const;

  /// Certificate sharing stats (§5.1): servers per certificate and IPs per
  /// certificate.
  struct SharingStats {
    double mean_servers_per_cert = 0;
    std::size_t max_servers_per_cert = 0;
    double mean_ips_per_cert = 0;       // over certs on > 1 IP
    std::size_t max_ips_per_cert = 0;
    std::size_t certs_on_multiple_ips = 0;
    double multi_ip_ratio = 0;
  };
  SharingStats sharing_stats() const;

  /// Table 16: cross-vantage comparison.
  GeoComparison geo_comparison() const;

 private:
  /// Per client-index SNI id: the client posting lists a record last
  /// folded (empty until the SNI has a record). A longer client list marks
  /// the record dirty; the difference is the membership it gained.
  struct FoldedSni {
    bool recorded = false;
    PostingList devices, vendors, users;
  };

  std::vector<SniRecord> records_;
  std::map<std::string, LeafRecord> leaves_;  // leaf fingerprint -> record
  CertIndex index_;
  std::size_t extracted_ = 0;
  std::size_t reachable_ = 0;
  std::vector<FoldedSni> folded_;
};

/// The resident §5 dataset of a streaming ingest. A collect() given the
/// memo folds only the client dataset's growth into it — probing SNIs that
/// became eligible, refreshing the membership of records whose posting
/// lists grew — so an epoch costs its delta, not the history.
struct ProbeMemo {
  CertDataset dataset;
};

}  // namespace iotls::core
