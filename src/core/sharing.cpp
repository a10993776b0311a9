#include "core/sharing.hpp"

#include <algorithm>

#include "tls/ciphersuite.hpp"
#include "util/strings.hpp"

namespace iotls::core {

std::vector<VendorSimilarity> vendor_similarities(const ClientDataset& ds,
                                                  double threshold) {
  const DatasetIndex& ix = ds.index();
  // Vendor order and the pair enumeration mirror the seed's std::map walk
  // (lexicographic), so output rows land in the same sequence.
  const std::vector<std::uint32_t>& order = ix.vendors_by_name();

  std::vector<VendorSimilarity> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Bitset& bits_a = ix.vendor_fp_bits(order[i]);
    std::size_t size_a = ix.vendor_fps()[order[i]].size();
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      std::size_t inter = Bitset::and_count(bits_a, ix.vendor_fp_bits(order[j]));
      if (inter == 0) continue;
      std::size_t size_b = ix.vendor_fps()[order[j]].size();
      std::size_t uni = size_a + size_b - inter;
      VendorSimilarity sim;
      sim.vendor_a = ix.vendors().str(order[i]);
      sim.vendor_b = ix.vendors().str(order[j]);
      sim.jaccard = static_cast<double>(inter) / static_cast<double>(uni);
      sim.overlap_coefficient = static_cast<double>(inter) /
                                static_cast<double>(std::min(size_a, size_b));
      if (sim.jaccard >= threshold) out.push_back(std::move(sim));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const VendorSimilarity& x, const VendorSimilarity& y) {
              return x.jaccard > y.jaccard;
            });
  return out;
}

std::vector<SimilarityBucket> bucket_similarities(
    const std::vector<VendorSimilarity>& pairs) {
  std::vector<SimilarityBucket> buckets = {
      {1.0, 1.01, {}}, {0.7, 1.0, {}}, {0.4, 0.7, {}}, {0.3, 0.4, {}}, {0.2, 0.3, {}}};
  for (const VendorSimilarity& pair : pairs) {
    for (SimilarityBucket& bucket : buckets) {
      if (pair.jaccard >= bucket.lo && pair.jaccard < bucket.hi) {
        bucket.pairs.push_back(pair);
        break;
      }
    }
  }
  return buckets;
}

ServerTieReport server_tied_fingerprints(const ClientDataset& ds,
                                         const corpus::LibraryCorpus& corpus,
                                         TieMemo* memo) {
  TieMemo local;
  if (memo == nullptr) memo = &local;
  const DatasetIndex& ix = ds.index();
  memo->by_fp.resize(ix.fps().size());
  memo->sld_of.resize(ix.snis().size(), Interner::kNone);
  ServerTieReport report;
  report.total_snis = ix.snis().size();

  // For a fingerprint to be "tied" to a server, it must be server-specific:
  // the ONLY fingerprint those devices present to this server, observed
  // from multiple devices, and not matching any standard library. Tied
  // SNIs group into {SLD, fingerprint} rows, in SNI name order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint32_t>>
      groups;  // (sld id, fp id) -> SNI ids
  for (std::uint32_t sni : ix.snis_by_name()) {
    const PostingList& fps = ix.sni_fps()[sni];
    if (fps.size() != 1) continue;  // not server-specific
    const std::uint32_t f = fps.front();
    TieFacts& facts = memo->by_fp[f];
    if (!facts.known) {
      const tls::Fingerprint& fp = ix.fp_value(f);
      facts.library = corpus.best_match(fp) != nullptr;
      if (!facts.library) {
        facts.vulnerable_tags = tls::list_vulnerable_components(fp.cipher_suites);
      }
      facts.known = true;
    }
    if (facts.library) continue;  // standard library
    // The fingerprint must appear at few servers overall (tied to the
    // application behind this server, not a vendor-wide base stack).
    if (ix.fp_snis()[f].size() > 8) continue;
    if (ix.sni_devices()[sni].size() < 2) continue;  // single-device outliers
    ++report.tied_snis;
    std::uint32_t& sld = memo->sld_of[sni];
    if (sld == Interner::kNone) {
      sld = memo->slds.intern(second_level_domain(ix.snis().str(sni)));
    }
    groups[{sld, f}].push_back(sni);
  }

  // Table 5 lists the cross-vendor rows, in "sld|fp" key order before the
  // sort by devices; names are resolved for those rows only.
  UnionBuilder devices, vendors;
  PostingList vendor_ids;
  std::vector<std::pair<std::string, ServerTiedFingerprint>> keyed;
  for (const auto& [key, snis] : groups) {
    const auto [sld, f] = key;
    vendors.start(ix.vendors().size());
    vendor_ids.clear();
    for (std::uint32_t sni : snis) vendors.add(ix.sni_vendors()[sni], vendor_ids);
    if (vendor_ids.size() < 2) continue;
    ServerTiedFingerprint row;
    row.sld = memo->slds.str(sld);
    for (std::uint32_t sni : snis) row.fqdns.insert(ix.snis().str(sni));
    row.fp_key = ix.fps().str(f);
    row.vulnerable_tags = memo->by_fp[f].vulnerable_tags;
    devices.start(ix.devices().size());
    for (std::uint32_t sni : snis) devices.add(ix.sni_devices()[sni], row.devices);
    std::sort(row.devices.begin(), row.devices.end());
    row.vendors = names(ix.vendors(), vendor_ids);
    std::string sort_key = row.sld + "|" + row.fp_key;
    keyed.emplace_back(std::move(sort_key), std::move(row));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, row] : keyed) report.cross_vendor_rows.push_back(std::move(row));
  std::sort(report.cross_vendor_rows.begin(), report.cross_vendor_rows.end(),
            [](const ServerTiedFingerprint& a, const ServerTiedFingerprint& b) {
              return a.devices.size() > b.devices.size();
            });
  return report;
}

}  // namespace iotls::core
