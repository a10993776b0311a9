// Fig. 6: certificate validity periods per vendor, coloured by chain class
// and marked by CT presence. Paper: public-CA leaves < 1,000 days; private
// leaves far beyond (up to 36,500 days); no private leaf logged in CT; 8
// public leaves missing from CT; 46.67% of vendor-signed leaves > 5 years.
#include <algorithm>

#include "common.hpp"
#include "core/ct_validity.hpp"
#include "report/chart.hpp"
#include "report/table.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("Fig. 6", "validity periods and CT status by vendor");

  auto report = core::ct_report(ctx.certs, ctx.world);
  std::printf("{server, leaf, vendor} tuples: %zu   [paper: 4,949]\n", report.tuples);
  std::printf("public leaves in CT: %zu / %zu; NOT in CT: %zu   [paper: 8 missing]\n",
              report.public_leaves_in_ct, report.public_leaves,
              report.public_not_logged.size());
  std::printf("private leaves in CT: %zu / %zu   [paper: 0]\n",
              report.private_leaves_in_ct, report.private_leaves);
  std::printf("vendor-signed leaves with validity > 5y: %s   [paper: 46.67%%]\n",
              fmt_percent(report.private_long_validity_ratio).c_str());
  std::printf("max public validity: %lld days; max private: %lld days "
              "  [paper: <1000 vs up to 36,500]\n\n",
              static_cast<long long>(report.max_public_validity),
              static_cast<long long>(report.max_private_validity));

  std::printf("public leaves absent from CT (the anomaly set):\n");
  for (const auto& point : report.public_not_logged) {
    std::printf("  %-45s issuer=%s\n", point.sni.c_str(), point.leaf_issuer.c_str());
  }

  // Per-vendor validity summary split by chain class.
  std::map<std::string, std::vector<double>> public_validity, private_validity;
  for (const auto& point : core::ct_points(ctx.certs, ctx.world)) {
    if (point.chain_class == core::ChainClass::kPublicLeafPublicRoot) {
      public_validity[point.vendor].push_back(static_cast<double>(point.validity_days));
    } else {
      private_validity[point.vendor].push_back(static_cast<double>(point.validity_days));
    }
  }
  std::printf("\nper-vendor validity (private/vendor-signed chains):\n");
  for (const auto& [vendor, values] : private_validity) {
    std::printf("%s", report::render_summary(vendor, report::summarize(values)).c_str());
  }
  return 0;
}
