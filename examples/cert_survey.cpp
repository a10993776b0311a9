// Certificate survey: the paper's §5 pipeline — probe every IoT server from
// three vantage points, validate the served chains against the union of
// trust stores, and audit Certificate Transparency coverage.
#include <cstdio>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/issuers.hpp"
#include "devicesim/fleet.hpp"
#include "util/dates.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  auto corpus = corpus::LibraryCorpus::standard();
  auto universe = devicesim::ServerUniverse::standard();
  auto fleet = devicesim::generate_fleet({}, corpus, universe);
  auto client = core::ClientDataset::from_fleet(fleet);
  auto world = devicesim::build_world(universe);

  auto certs = core::CertDataset::collect(client, world);
  std::printf("probed %zu SNIs from 3 vantage points: %zu reachable, "
              "%zu distinct leaf certificates, %zu issuer organizations\n",
              certs.extracted_snis(), certs.reachable_snis(),
              certs.leaves().size(), std::size_t{certs.index().issuers().size()});

  auto issuers = core::issuer_report(certs, world.issuer_is_public);
  std::printf("private-CA leaves: %s; self-signing vendors: %zu\n",
              fmt_percent(issuers.private_ratio).c_str(),
              issuers.self_signing_vendors.size());

  const std::int64_t now = days(2022, 4, 15);
  auto chains = core::validate_dataset(certs, world, now);
  std::printf("chain validation: %zu trusted / %zu validated; %zu expired; "
              "%zu CN mismatches\n",
              chains.trusted, chains.validated, chains.expired.size(),
              chains.cn_mismatches.size());
  for (const auto& row : chains.expired) {
    std::printf("  EXPIRED %-24s (%s) not_after=%s\n", row.sld.c_str(),
                row.issuer.c_str(), format_date(row.not_after).c_str());
  }
  for (const core::SniValidation* v : chains.cn_mismatches) {
    std::printf("  CN MISMATCH %s (issuer %s)\n", v->sni.c_str(),
                v->leaf_issuer.c_str());
  }

  auto ct = core::ct_report(certs, world);
  std::printf("CT: %zu/%zu public leaves logged; %zu/%zu private leaves "
              "logged; vendor-signed validity >5y: %s\n",
              ct.public_leaves_in_ct, ct.public_leaves, ct.private_leaves_in_ct,
              ct.private_leaves,
              fmt_percent(ct.private_long_validity_ratio).c_str());

  auto geo = certs.geo_comparison();
  std::printf("geo consistency: %zu SNIs serve one certificate everywhere\n",
              geo.shared_all);
  return 0;
}
