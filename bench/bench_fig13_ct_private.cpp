// Fig. 13 (App. C.3): CT presence of leaf certificates in private-issuer
// chains. Paper: the vast majority of such leaves are NOT logged; two
// expired public-issued leaves (Sectigo not logged, Gandi logged).
#include "common.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "report/table.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("Fig. 13", "CT presence vs private-issuer chains");

  std::map<std::string, std::pair<std::size_t, std::size_t>> by_class;  // in/out
  std::set<std::string> seen;
  for (const auto& point : core::ct_points(ctx.certs, ctx.world)) {
    if (!seen.insert(point.leaf_fingerprint).second) continue;  // dedup leaves
    auto& [in_ct, not_in_ct] = by_class[core::chain_class_name(point.chain_class)];
    if (point.in_ct) ++in_ct;
    else ++not_in_ct;
  }
  report::Table table({"chain class", "leaves in CT", "leaves NOT in CT"});
  for (const auto& [cls, counts] : by_class) {
    table.add_row({cls, std::to_string(counts.first), std::to_string(counts.second)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper: no private-leaf chain is CT-logged, including the "
              "private-leaf/public-root chains that COULD be submitted\n");
  return 0;
}
