#include "net/survey_json.hpp"

namespace iotls::net {

namespace {

/// Full-fidelity JSON value for one probe result.
obs::Json probe_result_json(const ProbeResult& result) {
  obs::Json out{obs::Json::Object{}};
  out.set("sni", obs::Json(result.sni));
  out.set("vantage", obs::Json(vantage_name(result.vantage)));
  // Address family, with a compat default: kIPv4 probes — everything that
  // existed before dual-stack vantages — omit the member entirely, so
  // golden v4 reports keep their exact bytes. Absent == "v4".
  if (result.family != AddressFamily::kIPv4) {
    out.set("family", obs::Json(family_name(result.family)));
  }
  out.set("reachable", obs::Json(result.reachable));
  out.set("negotiated_suite",
          obs::Json(static_cast<std::int64_t>(result.negotiated_suite)));
  obs::Json::Array chain;
  for (const x509::Certificate& cert : result.chain) {
    chain.emplace_back(cert.fingerprint());
  }
  out.set("chain", obs::Json(std::move(chain)));
  out.set("stapled", obs::Json(result.stapled.has_value()));
  out.set("error", obs::Json(probe_error_name(result.error)));
  out.set("error_detail", obs::Json(result.error_detail));
  out.set("attempts", obs::Json(static_cast<std::int64_t>(result.attempts)));
  out.set("transient", obs::Json(result.transient));
  out.set("quarantined", obs::Json(result.quarantined));
  return out;
}

}  // namespace

obs::Json survey_report_json(const SurveyReport& report) {
  obs::Json::Array results;
  results.reserve(report.results.size());
  for (const MultiVantageResult& multi : report.results) {
    obs::Json entry{obs::Json::Object{}};
    entry.set("sni", obs::Json(multi.sni));
    obs::Json::Array vantages;
    for (VantagePoint v : kAllVantagePoints) {
      auto it = multi.by_vantage.find(v);
      if (it != multi.by_vantage.end()) {
        vantages.push_back(probe_result_json(it->second));
      }
    }
    entry.set("vantages", obs::Json(std::move(vantages)));
    entry.set("consistent", obs::Json(multi.consistent_across_vantages()));
    entry.set("majority_error", obs::Json(probe_error_name(multi.majority_error())));
    results.push_back(std::move(entry));
  }

  const DegradationSummary& s = report.summary;
  obs::Json summary{obs::Json::Object{}};
  summary.set("snis", obs::Json(static_cast<std::int64_t>(s.snis)));
  summary.set("fully_reachable",
              obs::Json(static_cast<std::int64_t>(s.fully_reachable)));
  summary.set("degraded", obs::Json(static_cast<std::int64_t>(s.degraded)));
  summary.set("unreachable", obs::Json(static_cast<std::int64_t>(s.unreachable)));
  summary.set("quarantined_snis",
              obs::Json(static_cast<std::int64_t>(s.quarantined_snis)));
  summary.set("attempts", obs::Json(s.attempts));
  summary.set("retries", obs::Json(s.retries));
  summary.set("recovered_probes", obs::Json(s.recovered_probes));
  summary.set("transient_failures", obs::Json(s.transient_failures));
  summary.set("persistent_failures", obs::Json(s.persistent_failures));
  summary.set("skipped_probes", obs::Json(s.skipped_probes));
  summary.set("budget_denied", obs::Json(s.budget_denied));
  summary.set("backoff_ms_total", obs::Json(s.backoff_ms_total));

  obs::Json out{obs::Json::Object{}};
  out.set("results", obs::Json(std::move(results)));
  out.set("summary", std::move(summary));
  return out;
}

std::string survey_report_dump(const SurveyReport& report) {
  return survey_report_json(report).dump();
}

}  // namespace iotls::net
