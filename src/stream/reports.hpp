// The report registry: the live documents iotlsd serves and every paper
// table and figure, as named entries rendered from a StreamIngest.
//
// A JSON entry backs iotlsd's /report/<name> and `iotls_audit
// --report=<name>`; a text entry (PAPER.md §1) is served by iotls_audit
// alone. Each entry declares what it reads beyond the client index
// (ReportNeeds), so a caller can build an ingest that holds exactly that.
//
// Every JSON report is a deterministic obs::Json document computed from the
// ingest's *current* datasets, which is what makes the daemon's
// byte-identity contract checkable end to end: epoch-N streamed output ==
// cold batch output over the same event prefix, compared as bytes.
//
// Report docs intentionally carry no epoch/timestamp fields — ingest
// progress lives on /epoch — so the comparison is over analysis content
// only.
//
// JSON, client-side (always available):
//   table02  fingerprint degree distribution (§4.2, Table 2)
//   table03  per-vendor heterogeneity, top 10 by fingerprints (Table 3)
//   table04  vendor-pair Jaccard similarities >= 0.2 (§4.4, Table 4)
//   table05  server-tied fingerprints, cross-vendor rows (Table 5)
//
// JSON, server-side (certs mode only; absent otherwise):
//   certs      §5.1 probe funnel + certificate sharing stats
//   chains     §5.3 validation outcomes (Tables 7/8/14 aggregates)
//   issuers    §5.2 issuer mix
//   ct         §5.4 CT coverage
//   stacks     active stack-fingerprint clusters — the server-side dual of
//              Table 4/5 (docs/FINGERPRINTING.md §5)
//   dualstack  v4-vs-v6 stack/cert consistency — Table 16 extended across
//              address families (docs/FINGERPRINTING.md §5)
//
// Text: one entry per paper table and figure plus the ablations and
// extensions (text_report_names(); EXPERIMENTS.md has a section for each),
// each pinned byte for byte by tests/golden/paper_<name>.txt.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "devicesim/types.hpp"
#include "obs/json.hpp"
#include "stream/ingest.hpp"

namespace iotls::stream {

/// What an entry reads beyond the ingest's client index, as a bitmask.
enum ReportNeeds : unsigned {
  /// The resident CertDataset and its world: IngestConfig::certs.
  kNeedsCerts = 1u << 0,
  /// Parsed events in client().events(): IngestConfig::retain_events.
  kNeedsEvents = 1u << 1,
  /// The raw fleet the ingest folded (re-parsed under other options).
  kNeedsFleet = 1u << 2,
};

/// A text entry's output: the bytes it prints, and the files it writes as
/// (file name, contents) pairs, e.g. the Fig. 1 and Fig. 3 DOT graphs.
struct TextReport {
  std::string text;
  std::vector<std::pair<std::string, std::string>> files = {};
};

/// The JSON entries render_report understands, in serving order. Cert-mode
/// names are included regardless of whether the ingest has certs enabled
/// (the route table is static; the handler answers 404-equivalent docs at
/// runtime).
const std::vector<std::string>& report_names();

/// The text entries render_text_report understands, in paper order.
const std::vector<std::string>& text_report_names();

/// The ReportNeeds bits of entry `name` (JSON or text); nullopt for an
/// unknown name.
std::optional<unsigned> report_needs(const std::string& name);

/// Render JSON report `name` over the ingest's current datasets. nullopt
/// for a name outside report_names(). For a server-side report on an
/// ingest without certs (or before the first fold), returns a
/// {"error": ...} document.
std::optional<obs::Json> render_report(const std::string& name,
                                       StreamIngest& ingest);

/// Render text entry `name`. nullopt for a name outside
/// text_report_names(). `fleet` is read only by entries that need it.
/// Throws std::logic_error when an input the entry needs is missing: certs
/// off or no epoch folded, events not retained, or a null `fleet`.
std::optional<TextReport> render_text_report(
    const std::string& name, StreamIngest& ingest,
    const devicesim::FleetDataset* fleet = nullptr);

}  // namespace iotls::stream
