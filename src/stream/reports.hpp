// Live report documents served by iotlsd's /report/<name> endpoints.
//
// Every report is a deterministic obs::Json document computed from the
// ingest's *current* datasets. The same functions back `iotls_audit
// --report=<name>` in batch mode, which is what makes the daemon's
// byte-identity contract checkable end to end: epoch-N streamed output ==
// cold batch output over the same event prefix, compared as bytes.
//
// Report docs intentionally carry no epoch/timestamp fields — ingest
// progress lives on /epoch — so the comparison is over analysis content
// only.
//
// Client-side (always available):
//   table02  fingerprint degree distribution (§4.2, Table 2)
//   table03  per-vendor heterogeneity, top 10 by fingerprints (Table 3)
//   table04  vendor-pair Jaccard similarities >= 0.2 (§4.4, Table 4)
//   table05  server-tied fingerprints, cross-vendor rows (Table 5)
//
// Server-side (certs mode only; absent otherwise):
//   certs      §5.1 probe funnel + certificate sharing stats
//   chains     §5.3 validation outcomes (Tables 7/8/14 aggregates)
//   issuers    §5.2 issuer mix
//   ct         §5.4 CT coverage
//   stacks     active stack-fingerprint clusters — the server-side dual of
//              Table 4/5 (docs/FINGERPRINTING.md §5)
//   dualstack  v4-vs-v6 stack/cert consistency — Table 16 extended across
//              address families (docs/FINGERPRINTING.md §5)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "stream/ingest.hpp"

namespace iotls::stream {

/// Names render_report understands, in serving order. Cert-mode names are
/// included regardless of whether the ingest has certs enabled (the route
/// table is static; the handler answers 404-equivalent docs at runtime).
const std::vector<std::string>& report_names();

/// True for the server-side reports, which need an ingest with certs
/// enabled; false for the client-side ones and for unknown names.
bool report_needs_certs(const std::string& name);

/// Render report `name` over the ingest's current datasets. nullopt for an
/// unknown name. For a server-side report on an ingest without certs (or
/// before the first fold), returns a {"error": ...} document.
std::optional<obs::Json> render_report(const std::string& name,
                                       StreamIngest& ingest);

}  // namespace iotls::stream
