#include "core/semantic.hpp"

#include <algorithm>
#include <set>

#include "core/tls_params.hpp"
#include "tls/ciphersuite.hpp"

namespace iotls::core {

namespace {

using tls::Cipher;
using tls::KexAuth;
using tls::Mac;

struct ComponentSets {
  std::set<KexAuth> kex;
  std::set<Cipher> cipher;
  std::set<Mac> mac;
};

/// Decompose a suite list, skipping signalling values (SCSV/GREASE/unknown).
ComponentSets decompose(const std::vector<std::uint16_t>& suites) {
  ComponentSets out;
  for (std::uint16_t code : suites) {
    tls::CipherSuiteInfo info = tls::suite_info(code);
    if (info.is_scsv) continue;
    if (!tls::is_registered_suite(code)) continue;
    out.kex.insert(info.kex_auth);
    out.cipher.insert(info.cipher);
    out.mac.insert(info.mac);
  }
  return out;
}

/// Non-signalling suites of a proposal, order preserved.
std::vector<std::uint16_t> effective_suites(const std::vector<std::uint16_t>& suites) {
  std::vector<std::uint16_t> out;
  for (std::uint16_t code : suites) {
    if (!tls::suite_info(code).is_scsv) out.push_back(code);
  }
  return out;
}

/// Bidirectional coverage of cipher sets under the "similar" relation.
bool similar_cipher_sets(const std::set<Cipher>& a, const std::set<Cipher>& b) {
  auto covered = [](const std::set<Cipher>& from, const std::set<Cipher>& to) {
    for (Cipher c : from) {
      bool found = false;
      for (Cipher d : to) {
        if (tls::similar_cipher(c, d)) found = true;
      }
      if (!found) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

bool similar_mac_sets(const std::set<Mac>& a, const std::set<Mac>& b) {
  auto covered = [](const std::set<Mac>& from, const std::set<Mac>& to) {
    for (Mac m : from) {
      bool found = false;
      for (Mac n : to) {
        if (tls::similar_mac(m, n)) found = true;
      }
      if (!found) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

double jaccard(const std::vector<std::uint16_t>& a, const std::vector<std::uint16_t>& b) {
  std::set<std::uint16_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::size_t inter = 0;
  for (std::uint16_t x : sa) inter += sb.count(x);
  std::size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// One representative library per distinct corpus suite list.
struct LibraryProfile {
  const corpus::KnownLibrary* lib;
  std::vector<std::uint16_t> suites;      // effective
  std::set<std::uint16_t> suite_set;
  ComponentSets components;
};

std::vector<LibraryProfile> library_profiles(const corpus::LibraryCorpus& corpus) {
  std::vector<LibraryProfile> out;
  std::set<std::string> seen;
  for (const corpus::KnownLibrary& lib : corpus.entries()) {
    std::vector<std::uint16_t> eff = effective_suites(lib.fp.cipher_suites);
    std::string key;
    for (std::uint16_t s : eff) key += std::to_string(s) + ",";
    if (!seen.insert(key).second) continue;
    LibraryProfile profile;
    profile.lib = &lib;
    profile.suites = std::move(eff);
    profile.suite_set.insert(profile.suites.begin(), profile.suites.end());
    profile.components = decompose(lib.fp.cipher_suites);
    out.push_back(std::move(profile));
  }
  return out;
}

}  // namespace

std::string semantic_category_name(SemanticCategory c) {
  switch (c) {
    case SemanticCategory::kExact: return "Exact same";
    case SemanticCategory::kSameSetDifferentOrder: return "Same set diff order";
    case SemanticCategory::kSameComponent: return "Same component";
    case SemanticCategory::kSimilarComponent: return "Similar component";
    case SemanticCategory::kCustomization: return "Customization";
  }
  return "?";
}

SemanticReport semantic_match(const ClientDataset& ds,
                              const corpus::LibraryCorpus& corpus,
                              std::int64_t reference_day) {
  SemanticReport report;
  std::vector<LibraryProfile> profiles = library_profiles(corpus);

  const DatasetIndex& ix = ds.index();

  std::map<SemanticCategory, std::set<std::string>> category_vendors;
  std::map<SemanticCategory, std::size_t> outdated_counts;

  // The profile scan depends only on the ciphersuite list, not the device,
  // so run it once per distinct list — devices overwhelmingly share lists.
  struct ListMatch {
    const LibraryProfile* best = nullptr;
    SemanticCategory cat = SemanticCategory::kCustomization;
    double suite_jaccard = -1;
  };
  std::map<std::vector<std::uint16_t>, ListMatch> by_list;

  for (const auto& [key, event] : device_list_tuples(ds)) {
    SemanticMatch m;
    m.device_id = ix.devices().str(event->device);
    m.vendor = ix.vendors().str(event->vendor);

    const std::vector<std::uint16_t>& list = ix.fp_value(event->fp).cipher_suites;
    auto [cache_it, fresh] = by_list.try_emplace(list);
    ListMatch& cached = cache_it->second;
    if (fresh) {
      std::vector<std::uint16_t> suites = effective_suites(list);
      std::set<std::uint16_t> suite_set(suites.begin(), suites.end());
      ComponentSets components = decompose(list);

      for (const LibraryProfile& p : profiles) {
        SemanticCategory cat;
        if (suites == p.suites) {
          cat = SemanticCategory::kExact;
        } else if (suite_set == p.suite_set) {
          cat = SemanticCategory::kSameSetDifferentOrder;
        } else if (components.kex == p.components.kex &&
                   components.cipher == p.components.cipher &&
                   components.mac == p.components.mac) {
          cat = SemanticCategory::kSameComponent;
        } else if (components.kex == p.components.kex &&
                   similar_cipher_sets(components.cipher, p.components.cipher) &&
                   similar_mac_sets(components.mac, p.components.mac)) {
          cat = SemanticCategory::kSimilarComponent;
        } else {
          continue;
        }
        double j = jaccard(suites, p.suites);
        // Prefer the stronger category; break ties by suite-list Jaccard.
        if (cached.best == nullptr || cat < cached.cat ||
            (cat == cached.cat && j > cached.suite_jaccard)) {
          cached.best = &p;
          cached.cat = cat;
          cached.suite_jaccard = j;
        }
      }
    }

    if (cached.best != nullptr) {
      m.category = cached.cat;
      m.library = cached.best->lib->version;
      m.library_outdated = !cached.best->lib->supported_at(reference_day);
      m.suite_jaccard = cached.suite_jaccard;
    }

    ++report.counts[m.category];
    category_vendors[m.category].insert(m.vendor);
    if (m.library_outdated) ++outdated_counts[m.category];
    report.tuples.push_back(std::move(m));
  }

  for (const auto& [cat, vendors] : category_vendors)
    report.vendor_counts[cat] = vendors.size();
  for (const auto& [cat, count] : report.counts) {
    report.outdated_ratio[cat] =
        count ? static_cast<double>(outdated_counts[cat]) / count : 0.0;
  }
  return report;
}

}  // namespace iotls::core
