// Table 14 (App. C.2): certificate chains with private issuers — "private
// root CA" and "self-signed certificate" statuses with their domains,
// issuers, chain lengths and visiting vendors.
#include "common.hpp"
#include "core/chains.hpp"
#include "report/table.hpp"

using namespace iotls;

namespace {

void print_rows(const char* title, const std::vector<core::DomainChainRow>& rows) {
  std::printf("\n%s:\n", title);
  report::Table table({"Domain", "#.FQDNs", "Leaf issued by", "Chain len",
                       "#.devices", "Vendors"});
  for (const auto& row : rows) {
    std::string lens, vendors;
    for (std::size_t len : row.chain_lengths) {
      if (!lens.empty()) lens += ",";
      lens += std::to_string(len);
    }
    std::size_t shown = 0;
    for (const std::string& v : row.vendors) {
      if (shown++ == 4) { vendors += ",..."; break; }
      if (!vendors.empty()) vendors += ",";
      vendors += v;
    }
    table.add_row({row.sld, std::to_string(row.fqdns), row.leaf_issuer, lens,
                   std::to_string(row.devices.size()), vendors});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("Table 14", "certificate chains with private issuers");

  auto report = core::validate_dataset(ctx.certs, ctx.world, bench::kProbeDay);
  print_rows("Private root CA", report.private_root_rows);
  print_rows("Self-signed certificate", report.self_signed_rows);

  std::printf("\nCommon Name mismatches (§5.3):\n");
  const core::CertIndex& ix = ctx.certs.index();
  for (const core::SniValidation* v : report.cn_mismatches) {
    const std::uint32_t sni = ix.snis().find(v->sni);
    std::string vendors;
    for (const auto& vendor : core::names(ix.vendors(), ix.sni_vendors()[sni])) {
      vendors += vendor + " ";
    }
    std::printf("  %-30s issuer=%-22s devices=%zu vendors=%s\n", v->sni.c_str(),
                v->leaf_issuer.c_str(), ix.sni_devices()[sni].size(), vendors.c_str());
  }
  std::printf("[paper: a2.tuyaus.com, Tuya-signed, visited by 3 Tuya devices]\n");
  return 0;
}
