// Fig. 10: DoC distribution across devices per vendor (App. B.5).
#include <algorithm>

#include "common.hpp"
#include "core/device_metrics.hpp"
#include "report/chart.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("Fig. 10", "degree of customization across devices, per vendor");

  const core::DatasetIndex& ix = ctx.client.index();
  auto per_device = core::doc_per_device(ctx.client);
  std::map<std::string, std::vector<double>> by_vendor;
  for (const auto& [device, doc] : per_device) {
    by_vendor[ix.vendors().str(ix.device_vendor(ix.devices().find(device)))]
        .push_back(doc);
  }

  std::vector<std::pair<std::string, report::Summary>> rows;
  for (auto& [vendor, values] : by_vendor) {
    rows.emplace_back(vendor, report::summarize(values));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.mean > b.second.mean;
  });
  for (const auto& [vendor, summary] : rows) {
    std::printf("%s", report::render_summary(vendor, summary).c_str());
  }
  return 0;
}
