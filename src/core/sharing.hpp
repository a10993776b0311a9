// §4.4: shared fingerprints across vendors — Jaccard similarity of vendor
// fingerprint sets (Table 4) and server-tied fingerprints (Table 5).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "corpus/corpus.hpp"

namespace iotls::core {

/// A vendor pair (or the seed of a larger tuple) with its similarity.
struct VendorSimilarity {
  std::string vendor_a;
  std::string vendor_b;
  double jaccard = 0;
  double overlap_coefficient = 0;  // |A∩B| / min(|A|,|B|) — ablation metric
};

/// Pairwise Jaccard similarity over vendor fingerprint sets, descending,
/// filtered to pairs >= `threshold` (the paper lists >= 0.2).
std::vector<VendorSimilarity> vendor_similarities(const ClientDataset& ds,
                                                  double threshold);

/// Table 4's buckets.
struct SimilarityBucket {
  double lo, hi;  // [lo, hi)
  std::vector<VendorSimilarity> pairs;
};
std::vector<SimilarityBucket> bucket_similarities(
    const std::vector<VendorSimilarity>& pairs);

/// A server-tied fingerprint: devices exhibit this fingerprint (and only
/// this one) when visiting this server, and the server is visited by
/// multiple devices sharing it (§4.4 "servers as a proxy for applications").
struct ServerTiedFingerprint {
  std::string sld;                 // second-level domain (Table 5 rows)
  std::set<std::string> fqdns;
  std::string fp_key;
  std::vector<std::string> vulnerable_tags;
  PostingList devices;             // client device ids; only the count prints
  std::set<std::string> vendors;
};

/// Analysis outcome for server-tied fingerprints.
struct ServerTieReport {
  std::size_t total_snis = 0;
  std::size_t tied_snis = 0;  // SNIs tied to a server-specific fingerprint
  /// Rows aggregated by {SLD, fingerprint}, restricted to >= 2 devices and
  /// >= 2 vendors (the Table 5 filter).
  std::vector<ServerTiedFingerprint> cross_vendor_rows;

  double tied_ratio() const {
    return total_snis ? static_cast<double>(tied_snis) / total_snis : 0;
  }
};

/// The Table 5 facts of one fingerprint: whether it matches a standard
/// library, and (when not) its vulnerable-component tags.
struct TieFacts {
  bool known = false;  // filled
  bool library = false;
  std::vector<std::string> vulnerable_tags;
};

/// What Table 5 derives per fingerprint and per SNI, keyed by client ids.
/// A memo serves one growing dataset and one corpus; the streaming ingest
/// keeps one across renders.
struct TieMemo {
  std::vector<TieFacts> by_fp;
  /// Client SNI id -> its second-level domain (an id of `slds`), kNone
  /// until the SNI is first tied.
  std::vector<std::uint32_t> sld_of;
  Interner slds;
};

/// `corpus` is used to exclude fingerprints matching standard libraries
/// (the paper excludes library-matched fingerprints from this analysis).
/// Corpus matching and tagging run once per fingerprint `memo` lacks
/// (without a memo, once per fingerprint per call). Rows aggregate on ids:
/// each unions its SNIs' device and vendor posting lists, and names are
/// resolved only for the rows that pass the cross-vendor filter.
ServerTieReport server_tied_fingerprints(const ClientDataset& ds,
                                         const corpus::LibraryCorpus& corpus,
                                         TieMemo* memo = nullptr);

}  // namespace iotls::core
