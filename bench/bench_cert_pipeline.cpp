// §5 certificate-pipeline performance suite (google-benchmark): the
// EXPERIMENTS.md before/after numbers come from here.
//
// Synthetic survey at the acceptance scale: 1,100 SNIs served from one
// public root through 50 shared intermediates, every leaf shared by 5 SNIs
// (220 distinct certificates). Three configurations of the §5.2–§5.4
// analyses (chain validation, issuer matrix/report, CT report) run over the
// identical dataset:
//
//   seed_stringmap      the pre-index path: sequential, signature edges
//                       re-verified per SNI, leaf fingerprints re-hashed
//                       (SHA-256 over the full encoding) per use, analyses
//                       joined through string-keyed maps;
//   interned_jobs1      the CertIndex path with a ValidationCache — each
//                       distinct certificate verified and hashed once;
//   interned_jobs8      the same with --jobs 8.
//
// The byte-identity of the three outputs is pinned by test_cert_pipeline;
// this suite only measures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "net/internet.hpp"
#include "tls/clienthello.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "util/strings.hpp"
#include "x509/authority.hpp"
#include "x509/validation.hpp"

using namespace iotls;

namespace {

constexpr int kGroups = 220;        // distinct leaf certificates
constexpr int kShare = 5;           // SNIs per leaf -> 1,100 SNIs
constexpr int kIntermediates = 50;  // shared issuing intermediates
constexpr int kVendors = 16;

/// The devices and vendors seen toward one SNI, as strings.
struct SniMembers {
  std::set<std::string> devices, vendors;
};
using Members = std::map<std::string, SniMembers>;

/// The synthetic world plus the client dataset pointing at it, built once.
struct Synthetic {
  devicesim::SimWorld world;
  core::ClientDataset client;
  core::CertDataset certs;
  Members members;  // resolved from the client index: the seed path's per-SNI sets

  static const Synthetic& get() {
    static Synthetic s;
    return s;
  }

 private:
  Synthetic() {
    auto root = x509::CertificateAuthority::make_root(
        "Synthetic Root CA", "SyntheticPKI", x509::CaKind::kPublicTrust, 0, 40000);
    root.publish_key(world.keys);
    x509::TrustStore store("bench");
    store.add_root(root.certificate());
    world.trust.add(std::move(store));
    world.issuer_is_public["SyntheticPKI"] = true;

    std::vector<x509::CertificateAuthority> icas;
    icas.reserve(kIntermediates);
    for (int i = 0; i < kIntermediates; ++i) {
      icas.push_back(root.subordinate("Synthetic ICA " + std::to_string(i),
                                      0, 40000, "SyntheticPKI"));
      icas.back().publish_key(world.keys);
    }

    auto log = std::make_unique<ct::CtLog>("bench-log");
    devicesim::FleetDataset fleet;
    fleet.users = {"u1", "u2"};
    for (int v = 0; v < kVendors; ++v) {
      fleet.devices.push_back({"dev-" + std::to_string(v),
                               "Vendor" + std::to_string(v), "Widget",
                               v % 2 ? "u1" : "u2"});
    }

    std::vector<std::string> snis;
    for (int g = 0; g < kGroups; ++g) {
      const x509::CertificateAuthority& ica = icas[g % kIntermediates];
      x509::IssueRequest req;
      req.subject.common_name = "g" + std::to_string(g) + ".bench.example.com";
      req.san_dns = {"*.g" + std::to_string(g) + ".bench.example.com"};
      req.not_before = 18000;
      req.not_after = 19000;
      x509::Certificate leaf = ica.issue(req);
      log->submit(leaf, 18100);

      for (int k = 0; k < kShare; ++k) {
        net::SimServer server;
        server.sni = "s" + std::to_string(k) + ".g" + std::to_string(g) +
                     ".bench.example.com";
        server.ips = {"198.51.100." + std::to_string((g * kShare + k) % 251)};
        server.default_chain = {leaf, ica.certificate()};
        snis.push_back(server.sni);
        world.internet.add_server(std::move(server));
      }
    }
    world.ct_index.add_log(log.get());
    world.logs.push_back(std::move(log));

    // Two devices contact each SNI: one ClientHello event per (SNI, device).
    for (std::size_t i = 0; i < snis.size(); ++i) {
      for (int d : {static_cast<int>(i) % kVendors,
                    static_cast<int>(i + 7) % kVendors}) {
        tls::ClientHello ch;
        ch.legacy_version = 0x0303;
        ch.cipher_suites = {0x1301, 0xc02f, 0x009c};
        ch.extensions.push_back({10, {}});
        ch.set_sni(snis[i]);
        Bytes msg = ch.encode();
        devicesim::ClientHelloEvent e;
        e.device_id = "dev-" + std::to_string(d);
        e.day = days(2019, 7, 1);
        e.sni = snis[i];
        e.wire = tls::encode_records(tls::ContentType::kHandshake, 0x0303,
                                     BytesView(msg.data(), msg.size()));
        fleet.events.push_back(std::move(e));
      }
    }

    client = core::ClientDataset::from_fleet(fleet);
    certs = core::CertDataset::collect(client, world);
    const core::DatasetIndex& ix = client.index();
    for (std::uint32_t s = 0; s < ix.snis().size(); ++s) {
      SniMembers& m = members[ix.snis().str(s)];
      for (std::uint32_t d : ix.sni_devices()[s]) m.devices.insert(ix.devices().str(d));
      for (std::uint32_t v : ix.sni_vendors()[s]) m.vendors.insert(ix.vendors().str(v));
    }
  }
};

// ------------------------------------------------- seed-path restatements
// The pre-index string-map analyses, verbatim (see tests/cert_pipeline_test
// for the byte-identity proof of these restatements). The per-SNI member
// sets the seed kept on each record come from Synthetic::members.

bool ref_is_public(const std::map<std::string, bool>& issuer_is_public,
                   const std::string& org) {
  auto it = issuer_is_public.find(org);
  return it == issuer_is_public.end() ? true : it->second;
}

/// The seed's report shapes: members as name sets, validations and Fig. 6
/// points by value.
struct RefChainRow {
  std::string sld;
  std::string leaf_issuer;
  x509::ChainStatus status = x509::ChainStatus::kOk;
  std::set<std::size_t> chain_lengths;
  std::size_t fqdns = 0;
  std::set<std::string> devices, vendors;
};

struct RefExpiredRow {
  std::string sni, sld;
  std::int64_t not_after = 0;
  std::string issuer;
  std::set<std::string> devices, vendors;
};

struct RefChainReport {
  std::vector<core::SniValidation> validations;
  std::vector<RefChainRow> failure_rows, private_root_rows, self_signed_rows;
  std::vector<RefExpiredRow> expired;
  std::vector<core::SniValidation> cn_mismatches;
  std::size_t validated = 0, trusted = 0;
  double private_leaf_failure_ratio = 0;
};

struct RefCtReport : core::CtReport {
  std::vector<core::CtPoint> points;
};

RefChainReport ref_validate_dataset(const core::CertDataset& certs,
                                    const Members& members,
                                    const devicesim::SimWorld& world,
                                    std::int64_t now) {
  RefChainReport report;
  std::map<std::string, RefChainRow> failures;
  std::map<std::string, RefChainRow> private_roots;
  std::map<std::string, RefChainRow> self_signed;
  std::size_t private_leaves = 0;
  std::size_t private_leaf_failures = 0;

  for (const core::SniRecord& record : certs.records()) {
    if (!record.reachable) continue;
    core::SniValidation v;
    v.sni = record.sni;
    std::vector<x509::Certificate> chain =
        x509::normalize_chain_order(record.chain, record.sni);
    v.result = x509::validate_chain(chain, record.sni, world.trust,
                                    world.keys, now);
    v.chain_length = record.chain.size();
    const SniMembers& m = members.at(record.sni);
    if (!record.chain.empty()) {
      v.leaf_issuer = record.chain.front().issuer.organization;
      auto it = world.issuer_is_public.find(v.leaf_issuer);
      v.leaf_issuer_public = it == world.issuer_is_public.end() ? true : it->second;
    }
    ++report.validated;
    if (x509::chain_trusted(v.result.status)) ++report.trusted;

    if (!v.leaf_issuer_public) {
      ++private_leaves;
      if (!x509::chain_trusted(v.result.status)) ++private_leaf_failures;
    }

    auto aggregate = [&](std::map<std::string, RefChainRow>& into) {
      std::string sld = second_level_domain(v.sni);
      std::string key = sld + "|" + v.leaf_issuer + "|" +
                        x509::chain_status_name(v.result.status);
      RefChainRow& row = into[key];
      row.sld = sld;
      row.leaf_issuer = v.leaf_issuer;
      row.status = v.result.status;
      row.chain_lengths.insert(v.chain_length);
      ++row.fqdns;
      for (const std::string& d : m.devices) row.devices.insert(d);
      for (const std::string& vendor : m.vendors) row.vendors.insert(vendor);
    };

    switch (v.result.status) {
      case x509::ChainStatus::kIncompleteChain:
      case x509::ChainStatus::kUntrustedRoot:
      case x509::ChainStatus::kSelfSigned:
      case x509::ChainStatus::kBadSignature:
      case x509::ChainStatus::kEmptyChain:
        aggregate(failures);
        break;
      default:
        break;
    }
    if (v.result.status == x509::ChainStatus::kUntrustedRoot) aggregate(private_roots);
    if (v.result.status == x509::ChainStatus::kSelfSigned) aggregate(self_signed);

    if (v.result.expired && !record.chain.empty()) {
      RefExpiredRow row;
      row.sni = v.sni;
      row.sld = second_level_domain(v.sni);
      row.not_after = record.chain.front().not_after;
      row.issuer = v.leaf_issuer;
      row.devices = m.devices;
      row.vendors = m.vendors;
      report.expired.push_back(std::move(row));
    }
    if (!v.result.hostname_ok && !record.chain.empty()) {
      report.cn_mismatches.push_back(v);
    }
    report.validations.push_back(std::move(v));
  }

  auto flatten = [](std::map<std::string, RefChainRow>& from,
                    std::vector<RefChainRow>& into) {
    for (auto& [key, row] : from) into.push_back(std::move(row));
    std::sort(into.begin(), into.end(),
              [](const RefChainRow& a, const RefChainRow& b) {
                return a.devices.size() > b.devices.size();
              });
  };
  flatten(failures, report.failure_rows);
  flatten(private_roots, report.private_root_rows);
  flatten(self_signed, report.self_signed_rows);

  report.private_leaf_failure_ratio =
      private_leaves ? static_cast<double>(private_leaf_failures) / private_leaves : 0;
  return report;
}

/// Leaf fingerprint -> issuer organization of the first record serving it.
std::map<std::string, std::string> ref_leaf_issuers(const core::CertDataset& certs) {
  std::map<std::string, std::string> out;
  for (const core::SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    out.emplace(leaf.fingerprint(), leaf.issuer.organization);
  }
  return out;
}

std::map<std::string, std::map<std::string, std::size_t>>
ref_vendor_issuer_counts(const core::CertDataset& certs, const Members& members) {
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      vendor_issuer_leaves;
  for (const core::SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    for (const std::string& vendor : members.at(record.sni).vendors) {
      vendor_issuer_leaves[vendor][leaf.issuer.organization].insert(
          leaf.fingerprint());
    }
  }
  std::map<std::string, std::map<std::string, std::size_t>> out;
  for (const auto& [vendor, issuers] : vendor_issuer_leaves) {
    for (const auto& [issuer, leaves] : issuers) out[vendor][issuer] = leaves.size();
  }
  return out;
}

core::IssuerMatrix ref_issuer_matrix(
    const core::CertDataset& certs, const Members& members,
    const std::map<std::string, bool>& issuer_is_public) {
  core::IssuerMatrix matrix;
  auto counts = ref_vendor_issuer_counts(certs, members);
  std::map<std::string, std::size_t> issuer_totals;
  for (const auto& [fp, org] : ref_leaf_issuers(certs)) ++issuer_totals[org];
  std::map<std::string, double> vendor_public_share;
  for (const auto& [vendor, issuers] : counts) {
    std::size_t total = 0;
    for (const auto& [issuer, n] : issuers) total += n;
    if (total == 0) continue;
    double public_share = 0;
    for (const auto& [issuer, n] : issuers) {
      double r = static_cast<double>(n) / static_cast<double>(total);
      matrix.ratio[vendor][issuer] = r;
      matrix.issuer_public[issuer] = ref_is_public(issuer_is_public, issuer);
      if (matrix.issuer_public[issuer]) public_share += r;
    }
    vendor_public_share[vendor] = public_share;
  }
  for (const auto& [issuer, total] : issuer_totals) {
    matrix.issuer_order.push_back(issuer);
    matrix.issuer_public.emplace(issuer, ref_is_public(issuer_is_public, issuer));
  }
  std::sort(matrix.issuer_order.begin(), matrix.issuer_order.end(),
            [&](const std::string& a, const std::string& b) {
              return issuer_totals[a] > issuer_totals[b];
            });
  for (const auto& [vendor, share] : vendor_public_share) {
    matrix.vendor_order.push_back(vendor);
  }
  std::sort(matrix.vendor_order.begin(), matrix.vendor_order.end(),
            [&](const std::string& a, const std::string& b) {
              return vendor_public_share[a] > vendor_public_share[b];
            });
  return matrix;
}

core::IssuerReport ref_issuer_report(
    const core::CertDataset& certs, const Members& members,
    const std::map<std::string, bool>& issuer_is_public) {
  core::IssuerReport report;
  const std::map<std::string, std::string> leaf_issuers = ref_leaf_issuers(certs);
  report.leaves = leaf_issuers.size();
  std::map<std::string, std::size_t> per_issuer;
  for (const auto& [fp, org] : leaf_issuers) {
    ++per_issuer[org];
    if (!ref_is_public(issuer_is_public, org)) ++report.private_leaves;
  }
  report.issuer_organizations = per_issuer.size();
  report.private_ratio =
      report.leaves ? static_cast<double>(report.private_leaves) / report.leaves : 0;
  for (const auto& [org, n] : per_issuer) {
    report.issuer_share[org] =
        static_cast<double>(n) / static_cast<double>(report.leaves);
  }
  auto counts = ref_vendor_issuer_counts(certs, members);
  for (const auto& [vendor, issuers] : counts) {
    bool any_private = false;
    bool all_self = true;
    std::string self_org = core::issuer_org_for_vendor(vendor);
    for (const auto& [issuer, n] : issuers) {
      if (!ref_is_public(issuer_is_public, issuer)) any_private = true;
      if (issuer != self_org) all_self = false;
      if (issuer == self_org && !self_org.empty())
        report.self_signing_vendors.insert(vendor);
    }
    if (!any_private) report.public_only_vendors.insert(vendor);
    if (all_self && !self_org.empty()) report.vendor_only_vendors.insert(vendor);
  }
  return report;
}

RefCtReport ref_ct_report(const core::CertDataset& certs,
                          const Members& members,
                          const devicesim::SimWorld& world) {
  auto issuer_public = [&](const std::string& org) {
    auto it = world.issuer_is_public.find(org);
    return it == world.issuer_is_public.end() ? true : it->second;
  };
  RefCtReport report;
  std::set<std::string> long_private, all_private;
  for (const core::SniRecord& record : certs.records()) {
    if (!record.reachable || record.chain.empty()) continue;
    const x509::Certificate& leaf = record.chain.front();
    bool leaf_public = issuer_public(leaf.issuer.organization);
    const x509::Certificate& top = record.chain.back();
    bool anchored_public = top.self_signed()
                               ? world.trust.contains_key(top.subject_key_id)
                               : world.trust.contains_key(top.authority_key_id);
    core::ChainClass cls =
        leaf_public ? core::ChainClass::kPublicLeafPublicRoot
        : anchored_public ? core::ChainClass::kPrivateLeafPublicRoot
                          : core::ChainClass::kPrivateLeafPrivateRoot;
    bool logged = world.ct_index.logged(leaf.fingerprint());
    for (const std::string& vendor : members.at(record.sni).vendors) {
      core::CtPoint point;
      point.sni = record.sni;
      point.vendor = vendor;
      point.leaf_fingerprint = leaf.fingerprint();
      point.leaf_issuer = leaf.issuer.organization;
      point.validity_days = leaf.validity_days();
      point.chain_class = cls;
      point.in_ct = logged;
      report.points.push_back(std::move(point));
    }
    if (leaf_public) {
      ++report.public_leaves;
      if (logged) ++report.public_leaves_in_ct;
      report.max_public_validity =
          std::max(report.max_public_validity, leaf.validity_days());
    } else {
      ++report.private_leaves;
      if (logged) ++report.private_leaves_in_ct;
      all_private.insert(leaf.fingerprint());
      if (leaf.validity_days() > 5 * 365) long_private.insert(leaf.fingerprint());
      report.max_private_validity =
          std::max(report.max_private_validity, leaf.validity_days());
    }
  }
  report.tuples = report.points.size();
  report.private_long_validity_ratio =
      all_private.empty()
          ? 0
          : static_cast<double>(long_private.size()) / all_private.size();
  return report;
}

// ------------------------------------------------------------ benchmarks

void BM_Analyses_SeedStringMap(benchmark::State& state) {
  const Synthetic& s = Synthetic::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ref_validate_dataset(s.certs, s.members, s.world, kProbeDay));
    benchmark::DoNotOptimize(
        ref_issuer_matrix(s.certs, s.members, s.world.issuer_is_public));
    benchmark::DoNotOptimize(
        ref_issuer_report(s.certs, s.members, s.world.issuer_is_public));
    benchmark::DoNotOptimize(ref_ct_report(s.certs, s.members, s.world));
  }
  state.counters["snis"] = kGroups * kShare;
}
BENCHMARK(BM_Analyses_SeedStringMap)->Unit(benchmark::kMillisecond);

void run_interned(benchmark::State& state, int jobs) {
  const Synthetic& s = Synthetic::get();
  for (auto _ : state) {
    x509::ValidationCache cache;  // cold per iteration, like one survey run
    benchmark::DoNotOptimize(
        core::validate_dataset(s.certs, s.world, kProbeDay, jobs, &cache));
    benchmark::DoNotOptimize(core::issuer_matrix(s.certs, s.world.issuer_is_public));
    benchmark::DoNotOptimize(core::issuer_report(s.certs, s.world.issuer_is_public));
    // The seed's ct report materialized every Fig. 6 point; so does this side.
    core::CtMemo memo;
    benchmark::DoNotOptimize(core::ct_report(s.certs, s.world, jobs, &memo));
    benchmark::DoNotOptimize(core::ct_points(s.certs, s.world, jobs, &memo));
  }
  state.counters["snis"] = kGroups * kShare;
}

void BM_Analyses_InternedCached_Jobs1(benchmark::State& state) {
  run_interned(state, 1);
}
BENCHMARK(BM_Analyses_InternedCached_Jobs1)->Unit(benchmark::kMillisecond);

void BM_Analyses_InternedCached_Jobs8(benchmark::State& state) {
  run_interned(state, 8);
}
BENCHMARK(BM_Analyses_InternedCached_Jobs8)->Unit(benchmark::kMillisecond);

void run_collect(benchmark::State& state, int jobs) {
  const Synthetic& s = Synthetic::get();
  for (auto _ : state) {
    x509::ValidationCache cache;
    benchmark::DoNotOptimize(
        core::CertDataset::collect(s.client, s.world, 1, jobs, &cache));
  }
  state.counters["snis"] = kGroups * kShare;
}

void BM_Collect_Jobs1(benchmark::State& state) { run_collect(state, 1); }
BENCHMARK(BM_Collect_Jobs1)->Unit(benchmark::kMillisecond);

void BM_Collect_Jobs8(benchmark::State& state) { run_collect(state, 8); }
BENCHMARK(BM_Collect_Jobs8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
