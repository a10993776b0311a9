// §4.1: match device fingerprints against the known-library corpus.
// Paper: 23/903 fingerprints (2.55%) match 16 libraries (14 curl+OpenSSL,
// 2 Mbed TLS); 14/16 libraries unsupported as of 2020.
#include "common.hpp"
#include "core/library_match.hpp"
#include "report/table.hpp"
#include "util/strings.hpp"

using namespace iotls;

int main() {
  const auto& ctx = bench::Context::get();
  bench::banner("S4.1", "TLS library matching against 6,891 known builds");

  std::printf("corpus: %zu builds (%zu OpenSSL, %zu wolfSSL, %zu Mbed TLS, "
              "%zu curl+OpenSSL, %zu curl+wolfSSL), %zu distinct fingerprints\n",
              ctx.corpus.size(), ctx.corpus.count_family(corpus::Family::kOpenSsl),
              ctx.corpus.count_family(corpus::Family::kWolfSsl),
              ctx.corpus.count_family(corpus::Family::kMbedTls),
              ctx.corpus.count_family(corpus::Family::kCurlOpenSsl),
              ctx.corpus.count_family(corpus::Family::kCurlWolfSsl),
              ctx.corpus.distinct_fingerprints());

  auto report = core::match_against_corpus(ctx.client, ctx.corpus, bench::kCaptureEnd);
  std::printf("device fingerprints: %zu\n", report.total_fingerprints);
  std::printf("matched fingerprints: %zu (%s)   [paper: 23 (2.55%%)]\n",
              report.matches.size(), fmt_percent(report.match_ratio()).c_str());
  std::printf("matched libraries: %zu, unsupported as of 2020: %zu   "
              "[paper: 16 matched, 14 unsupported]\n",
              report.matched_libraries, report.unsupported_libraries);
  for (const auto& [family, count] : report.by_family) {
    std::printf("  family %-14s : %zu matched fingerprints\n",
                corpus::family_name(family).c_str(), count);
  }

  report::Table table({"fingerprint (ja3 of key)", "library", "supported", "devices"});
  const core::DatasetIndex& ix = ctx.client.index();
  for (const auto& m : report.matches) {
    table.add_row({ix.fp_value(ix.fps().find(m.fp_key)).ja3(), m.library,
                   m.supported ? "yes" : "no", std::to_string(m.device_count)});
  }
  std::printf("\n%s", table.render().c_str());
  return 0;
}
