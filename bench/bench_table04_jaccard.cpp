// Table 4: vendor tuples with Jaccard similarity >= 0.2 over their
// fingerprint sets. Paper buckets: {HDHomeRun,Silicondust}=1;
// {Sharp,TCL} in [0.7,1); {Arlo,NETGEAR} in [0.4,0.7); ...
#include <chrono>

#include "common.hpp"
#include "core/sharing.hpp"
#include "report/table.hpp"
#include "util/strings.hpp"

using namespace iotls;

namespace {

// Wall-clock a callable, best of `iters` runs (best-of suppresses scheduler
// noise better than the mean for sub-second kernels).
template <typename F>
double best_ms(int iters, F&& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Pre-index reference: pairwise string-set intersection over vendor ->
// fingerprint-key sets built from the events, the algorithm the
// DatasetIndex bitsets replaced.
std::size_t jaccard_string_sets(const core::ClientDataset& ds, double threshold) {
  const auto vendor_fps = bench::vendor_fp_strings(ds);
  std::size_t kept = 0;
  for (auto a = vendor_fps.begin(); a != vendor_fps.end(); ++a) {
    for (auto b = std::next(a); b != vendor_fps.end(); ++b) {
      std::size_t inter = 0;
      for (const auto& key : a->second)
        if (b->second.count(key)) ++inter;
      std::size_t uni = a->second.size() + b->second.size() - inter;
      if (uni && static_cast<double>(inter) / uni >= threshold) ++kept;
    }
  }
  return kept;
}

void synthetic_scale_timing() {
  bench::banner("Perf: Table 4 kernel at synthetic scale",
                "64 vendors x 1,000 fingerprints — interned bitsets vs string sets");
  auto fleet = bench::synthetic_fleet();
  auto ds = core::ClientDataset::from_fleet(fleet);
  std::size_t interned_pairs = 0, reference_pairs = 0;
  double interned_ms = best_ms(10, [&] {
    interned_pairs = core::vendor_similarities(ds, 0.2).size();
  });
  double reference_ms = best_ms(3, [&] {
    reference_pairs = jaccard_string_sets(ds, 0.2);
  });
  std::printf("interned bitset AND/popcount: %8.3f ms  (%zu pairs >= 0.2)\n",
              interned_ms, interned_pairs);
  std::printf("string-set reference:         %8.3f ms  (%zu pairs >= 0.2)\n",
              reference_ms, reference_pairs);
  if (interned_ms > 0)
    std::printf("speedup: %.1fx\n\n", reference_ms / interned_ms);
}

}  // namespace

int main() {
  synthetic_scale_timing();
  const auto& ctx = bench::Context::get();
  bench::banner("Table 4", "vendor tuples with Jaccard similarity >= 0.2");

  auto pairs = core::vendor_similarities(ctx.client, 0.2);
  report::Table table({"Jaccard bucket", "Vendor tuple", "jaccard"});
  for (const auto& bucket : core::bucket_similarities(pairs)) {
    std::string label = bucket.lo >= 1.0
                            ? "1"
                            : "[" + fmt_double(bucket.lo, 1) + ", " +
                                  fmt_double(bucket.hi, 1) + ")";
    for (const auto& pair : bucket.pairs) {
      table.add_row({label, "{" + pair.vendor_a + ", " + pair.vendor_b + "}",
                     fmt_double(pair.jaccard, 3)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\npaper rows include: {HDHomeRun,SiliconDust}=1, {Sharp,TCL} in "
              "[0.7,1), {Arlo,NETGEAR} in [0.4,0.7), {Onkyo,Pioneer}, "
              "{Denon,Marantz}, {Synology,Western Digital}, {Nvidia,Xiaomi}...\n");
  return 0;
}
