#include "net/prober.hpp"

#include <array>
#include <cctype>
#include <cstdio>

#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/alert.hpp"

namespace iotls::net {

namespace {

/// Metric-name slug for a vantage ("New York" -> "new_york").
std::string vantage_slug(VantagePoint v) {
  std::string name = vantage_name(v);
  for (char& c : name) {
    if (c == ' ') c = '_';
    else c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

/// net.probe.reachable.<vantage> (or .unreachable.), resolved once.
obs::Counter& vantage_counter(bool reachable, VantagePoint v) {
  static const auto counters = [] {
    std::array<std::array<obs::Counter*, kAllVantagePoints.size()>, 2> c{};
    for (VantagePoint vp : kAllVantagePoints) {
      const auto i = static_cast<std::size_t>(vp);
      c[0][i] = &obs::metrics().counter("net.probe.unreachable." + vantage_slug(vp));
      c[1][i] = &obs::metrics().counter("net.probe.reachable." + vantage_slug(vp));
    }
    return c;
  }();
  return *counters[reachable ? 1 : 0][static_cast<std::size_t>(v)];
}

/// net.probe.error.<category>, resolved once; kNone is never counted.
obs::Counter& error_counter(ProbeError e) {
  static const auto counters = [] {
    std::array<obs::Counter*, 7> c{};
    for (ProbeError err : {ProbeError::kDns, ProbeError::kConnect,
                           ProbeError::kAlert, ProbeError::kParse,
                           ProbeError::kTimeout, ProbeError::kSkipped}) {
      c[static_cast<std::size_t>(err)] =
          &obs::metrics().counter("net.probe.error." + probe_error_name(err));
    }
    return c;
  }();
  return *counters[static_cast<std::size_t>(e)];
}

/// Our own client hello: a modern, fixed configuration (the probing client
/// is ours; only the *server's* response matters for the §5 dataset).
/// Extension 5 (status_request) asks for an OCSP staple.
const ProbeSpec& prober_spec() {
  static const ProbeSpec spec{"prober", 0x0303, modern_suites(),
                              {0, 5, 10, 11, 13}, {}, {}, false};
  return spec;
}

}  // namespace

ProbeResult ProbeResult::skipped_by_breaker(std::string sni, VantagePoint vantage) {
  ProbeResult skipped;
  skipped.sni = std::move(sni);
  skipped.vantage = vantage;
  skipped.error = ProbeError::kSkipped;
  skipped.error_detail = "quarantined by circuit breaker";
  skipped.attempts = 0;  // never attempted — overrides the >=1 default
  skipped.transient = false;
  skipped.quarantined = true;
  return skipped;
}

bool MultiVantageResult::consistent_across_vantages() const {
  std::optional<std::string> first_leaf;
  for (const auto& [vantage, result] : by_vantage) {
    if (!result.reachable || result.chain.empty()) continue;
    std::string fp = result.chain.front().fingerprint();
    if (!first_leaf.has_value()) {
      first_leaf = fp;
    } else if (*first_leaf != fp) {
      return false;
    }
  }
  return true;
}

ProbeError MultiVantageResult::majority_error() const {
  // Votes per category over failed vantages; a tie goes to New York's
  // category (the paper's primary vantage), else to the lower enum value.
  std::map<ProbeError, int> votes;
  for (const auto& [vantage, result] : by_vantage) {
    if (!result.reachable && result.error != ProbeError::kNone) ++votes[result.error];
  }
  auto ny = by_vantage.find(VantagePoint::kNewYork);
  const ProbeError ny_error = ny != by_vantage.end() && !ny->second.reachable
                                  ? ny->second.error
                                  : ProbeError::kNone;
  ProbeError best = ProbeError::kNone;
  int best_votes = 0;
  for (const auto& [error, n] : votes) {
    if (n > best_votes || (n == best_votes && error == ny_error)) {
      best = error;
      best_votes = n;
    }
  }
  return best;
}

void DegradationSummary::merge(const DegradationSummary& other) {
  snis += other.snis;
  fully_reachable += other.fully_reachable;
  degraded += other.degraded;
  unreachable += other.unreachable;
  quarantined_snis += other.quarantined_snis;
  attempts += other.attempts;
  retries += other.retries;
  recovered_probes += other.recovered_probes;
  transient_failures += other.transient_failures;
  persistent_failures += other.persistent_failures;
  skipped_probes += other.skipped_probes;
  budget_denied += other.budget_denied;
  backoff_ms_total += other.backoff_ms_total;
}

std::string DegradationSummary::to_string() const {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%zu SNIs: %zu fully reachable, %zu degraded, %zu unreachable, "
      "%zu quarantined | %llu attempts (%llu retries, %llu recovered), "
      "%llu transient / %llu persistent failures, %llu skipped, "
      "%llu budget-denied, %llu ms backoff",
      snis, fully_reachable, degraded, unreachable, quarantined_snis,
      static_cast<unsigned long long>(attempts),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(recovered_probes),
      static_cast<unsigned long long>(transient_failures),
      static_cast<unsigned long long>(persistent_failures),
      static_cast<unsigned long long>(skipped_probes),
      static_cast<unsigned long long>(budget_denied),
      static_cast<unsigned long long>(backoff_ms_total));
  return buf;
}

TlsProber::TlsProber(const Internet& internet)
    : ProbeEngine(internet, "net.probe") {}

ProbeResult TlsProber::probe_with(const std::string& sni, VantagePoint vantage,
                                  BytesView flight, CircuitBreaker* breaker,
                                  RetryBudget* budget,
                                  DegradationSummary& summary) const {
  static obs::Counter& total = obs::metrics().counter("net.probe.total");
  static obs::Counter& skipped = obs::metrics().counter("net.probe.skipped.breaker");
  static obs::Counter& recovered = obs::metrics().counter("net.probe.recovered");
  static obs::Counter& transient_fail = obs::metrics().counter("net.probe.transient_fail");
  static obs::Counter& persistent_fail = obs::metrics().counter("net.probe.persistent_fail");
  static obs::Histogram& attempts_hist = obs::metrics().histogram(
      "net.probe.attempts_per_probe", {1, 2, 3, 4, 5, 6, 8, 10});

  // Flight-recorder span per probe (one relaxed load when --trace-out is
  // off): a leaf of its worker's flamegraph track.
  obs::TraceSpan trace_span("net.probe");
  if (trace_span.active()) {
    trace_span.detail("sni=" + sni + " vantage=" + vantage_slug(vantage));
  }

  Exchange ex = exchange(sni, vantage, family_, flight, breaker, sni, budget);
  if (ex.error == ProbeError::kSkipped) {
    error_counter(ProbeError::kSkipped).inc();
    skipped.inc();
    ++summary.skipped_probes;
    return ProbeResult::skipped_by_breaker(sni, vantage);
  }
  total.inc();

  ProbeResult result;
  result.sni = sni;
  result.vantage = vantage;
  result.family = family_;
  result.attempts = ex.attempts;
  result.transient = ex.transient;
  result.error = ex.error;
  result.error_detail = std::move(ex.detail);
  if (ex.error == ProbeError::kNone) {
    ServerFlight parsed = parse_server_flight(
        BytesView(ex.response.data(), ex.response.size()), SIZE_MAX, true);
    if (parsed.hello.has_value()) result.negotiated_suite = parsed.hello->cipher_suite;
    if (parsed.alert.has_value()) {
      result.error = ProbeError::kAlert;
      result.error_detail =
          "alert: " + tls::alert_description_name(parsed.alert->description);
    } else if (!parsed.error.empty()) {
      result.error = ProbeError::kParse;
      result.error_detail = std::move(parsed.error);
    } else {
      result.reachable = true;
      result.chain = std::move(parsed.chain);
      result.stapled = std::move(parsed.staple);
    }
  }

  attempts_hist.observe(static_cast<std::uint64_t>(result.attempts));
  summary.attempts += static_cast<std::uint64_t>(result.attempts);
  summary.retries += static_cast<std::uint64_t>(result.attempts - 1);
  summary.backoff_ms_total += ex.backoff_ms;
  if (ex.budget_denied) ++summary.budget_denied;
  if (result.reachable) {
    vantage_counter(true, vantage).inc();
    if (result.attempts > 1) {
      recovered.inc();
      ++summary.recovered_probes;
    }
    return result;
  }
  vantage_counter(false, vantage).inc();
  error_counter(result.error).inc();
  if (result.transient) {
    transient_fail.inc();
    ++summary.transient_failures;
  } else {
    persistent_fail.inc();
    ++summary.persistent_failures;
  }
  if (obs::logger().enabled(obs::LogLevel::kDebug)) {
    obs::logger().debug("probe failed",
                        {{"sni", sni},
                         {"vantage", vantage_slug(vantage)},
                         {"category", probe_error_name(result.error)},
                         {"attempts", std::to_string(result.attempts)},
                         {"weather", result.transient ? "transient" : "persistent"},
                         {"detail", result.error_detail}});
  }
  return result;
}

ProbeResult TlsProber::probe(const std::string& sni, VantagePoint vantage) const {
  DegradationSummary unused;
  const Bytes flight = prober_spec().flight(sni);
  return probe_with(sni, vantage, BytesView(flight.data(), flight.size()), nullptr,
                    nullptr, unused);
}

MultiVantageResult TlsProber::probe_vantages(const std::string& sni,
                                             CircuitBreaker* breaker,
                                             RetryBudget* budget,
                                             DegradationSummary& summary) const {
  obs::TraceSpan trace_span("net.survey_one");
  if (trace_span.active()) trace_span.detail("sni=" + sni);
  MultiVantageResult multi;
  multi.sni = sni;
  // One flight serves every vantage: the hello depends on the SNI only.
  const Bytes flight = prober_spec().flight(sni);
  for (VantagePoint v : kAllVantagePoints) {
    multi.by_vantage[v] = probe_with(sni, v, BytesView(flight.data(), flight.size()),
                                     breaker, budget, summary);
  }
  return multi;
}

MultiVantageResult TlsProber::probe_all_vantages(const std::string& sni) const {
  DegradationSummary unused;
  return probe_vantages(sni, nullptr, nullptr, unused);
}

std::vector<MultiVantageResult> TlsProber::survey(
    const std::vector<std::string>& snis) const {
  return survey_report(snis).results;
}

SurveyReport TlsProber::survey_report(const std::vector<std::string>& snis) const {
  // Readiness for the export plane: "ready" unless every breaker the last
  // survey left is open (total quarantine: retrying now would only burn
  // budget). Registered on the first survey; reads the gauges below.
  static const obs::ScopedHealthCheck readiness(
      "net.prober", obs::HealthKind::kReadiness, [] {
        std::int64_t closed = obs::metrics().gauge("net.probe.breaker.closed").value();
        std::int64_t open = obs::metrics().gauge("net.probe.breaker.open").value();
        std::int64_t half = obs::metrics().gauge("net.probe.breaker.half_open").value();
        char detail[96];
        std::snprintf(detail, sizeof detail,
                      "breakers closed=%lld open=%lld half_open=%lld",
                      static_cast<long long>(closed), static_cast<long long>(open),
                      static_cast<long long>(half));
        bool all_quarantined = open > 0 && closed == 0 && half == 0;
        return all_quarantined ? obs::HealthStatus::unhealthy(detail)
                               : obs::HealthStatus::healthy(detail);
      });

  auto span = obs::tracer().span("probe");

  SurveyReport report;
  report.summary.snis = snis.size();
  RetryBudget budget(retry_policy().retry_budget);
  const CircuitBreaker::Counts counts = survey_shards(
      snis, "probe.shard", report.results, report.summary,
      [&](const std::string& sni, CircuitBreaker& breaker,
          DegradationSummary& partial) {
        return probe_vantages(sni, &breaker, &budget, partial);
      });

  // Per-SNI classification, in input order on the calling thread (the
  // probe span and its failure tags therefore never race).
  for (const MultiVantageResult& multi : report.results) {
    span.add_items();
    std::size_t reachable_vantages = 0;
    bool any_quarantined = false;
    for (const auto& [vantage, result] : multi.by_vantage) {
      if (result.reachable) ++reachable_vantages;
      if (result.quarantined) any_quarantined = true;
    }
    if (reachable_vantages == multi.by_vantage.size()) {
      ++report.summary.fully_reachable;
    } else if (reachable_vantages > 0) {
      ++report.summary.degraded;
    } else {
      ++report.summary.unreachable;
      // Tag by the majority category across vantages (ties favour New
      // York, the paper's primary vantage) — a per-vantage mix must not
      // be misattributed wholesale to one location's error.
      span.fail(probe_error_name(multi.majority_error()));
    }
    if (any_quarantined) ++report.summary.quarantined_snis;
  }

  // Export breaker occupancy so a fleet dashboard sees quarantine pressure.
  obs::metrics().gauge("net.probe.breaker.closed").set(
      static_cast<std::int64_t>(counts.closed));
  obs::metrics().gauge("net.probe.breaker.open").set(
      static_cast<std::int64_t>(counts.open));
  obs::metrics().gauge("net.probe.breaker.half_open").set(
      static_cast<std::int64_t>(counts.half_open));
  return report;
}

}  // namespace iotls::net
