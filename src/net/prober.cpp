#include "net/prober.hpp"

#include <cctype>
#include <cstdio>
#include <mutex>

#include "exec/pool.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/alert.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

/// Per-vantage reachability counters, resolved once.
obs::Counter& reachable_counter(VantagePoint v) {
  static obs::Counter* counters[kAllVantagePoints.size()] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (VantagePoint vp : kAllVantagePoints) {
      counters[static_cast<std::size_t>(vp)] = &obs::metrics().counter(
          "net.probe.reachable." + vantage_slug(vp));
    }
  });
  return *counters[static_cast<std::size_t>(v)];
}

obs::Counter& unreachable_counter(VantagePoint v) {
  static obs::Counter* counters[kAllVantagePoints.size()] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (VantagePoint vp : kAllVantagePoints) {
      counters[static_cast<std::size_t>(vp)] = &obs::metrics().counter(
          "net.probe.unreachable." + vantage_slug(vp));
    }
  });
  return *counters[static_cast<std::size_t>(v)];
}

obs::Counter& error_counter(ProbeError e) {
  // Indexed by enum value; kNone is never counted.
  static obs::Counter* counters[7] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (ProbeError err : {ProbeError::kDns, ProbeError::kConnect,
                           ProbeError::kAlert, ProbeError::kParse,
                           ProbeError::kTimeout, ProbeError::kSkipped}) {
      counters[static_cast<std::size_t>(err)] =
          &obs::metrics().counter("net.probe.error." + probe_error_name(err));
    }
  });
  return *counters[static_cast<std::size_t>(e)];
}

/// Retries broken down by the transient category that triggered them.
obs::Counter& retry_counter(ProbeError e) {
  static obs::Counter* timeout = &obs::metrics().counter("net.probe.retry.timeout");
  static obs::Counter* connect = &obs::metrics().counter("net.probe.retry.connect");
  return e == ProbeError::kTimeout ? *timeout : *connect;
}

ProbeError classify_net_error(NetError::Kind kind) {
  switch (kind) {
    case NetError::Kind::kNoRoute: return ProbeError::kDns;
    case NetError::Kind::kTimeout: return ProbeError::kTimeout;
    case NetError::Kind::kConnect: return ProbeError::kConnect;
    case NetError::Kind::kProtocol: return ProbeError::kConnect;
  }
  return ProbeError::kConnect;
}

/// Did the probe reach *a server* (even one that refused us)? Only
/// connectivity failures feed the circuit breaker; a fatal alert or a
/// garbled flight proves something answered.
bool connectivity_failure(ProbeError e) {
  return e == ProbeError::kDns || e == ProbeError::kTimeout ||
         e == ProbeError::kConnect;
}

/// Our own client hello: a modern, fixed configuration (the probing client
/// is ours; only the *server's* response matters for the §5 dataset).
tls::ClientHello prober_hello(const std::string& sni) {
  tls::ClientHello ch;
  ch.legacy_version = 0x0303;
  Rng rng(fnv1a64("prober:" + sni));
  for (auto& b : ch.random) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  ch.cipher_suites = {0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8,
                      0xc013, 0xc014, 0x009c, 0x009d, 0x002f, 0x0035, 0x000a};
  ch.set_sni(sni);
  ch.extensions.push_back({5, {}});  // status_request: ask for an OCSP staple
  ch.extensions.push_back({10, {0x00, 0x04, 0x00, 0x17, 0x00, 0x18}});
  ch.extensions.push_back({11, {0x01, 0x00}});
  ch.extensions.push_back({13, {0x00, 0x04, 0x04, 0x01, 0x05, 0x01}});
  return ch;
}

}  // namespace

std::string probe_error_name(ProbeError e) {
  switch (e) {
    case ProbeError::kNone: return "none";
    case ProbeError::kDns: return "dns";
    case ProbeError::kConnect: return "connect";
    case ProbeError::kAlert: return "alert";
    case ProbeError::kParse: return "parse";
    case ProbeError::kTimeout: return "timeout";
    case ProbeError::kSkipped: return "skipped";
  }
  return "?";
}

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
  // Count votes per category over failed vantages.
  std::map<ProbeError, int> votes;
  for (const auto& [vantage, result] : by_vantage) {
    if (!result.reachable && result.error != ProbeError::kNone) {
      ++votes[result.error];
    }
  }
  if (votes.empty()) return ProbeError::kNone;
  auto ny = by_vantage.find(VantagePoint::kNewYork);
  ProbeError ny_error = (ny != by_vantage.end() && !ny->second.reachable)
                            ? ny->second.error
                            : ProbeError::kNone;
  ProbeError best = ProbeError::kNone;
  int best_votes = 0;
  for (const auto& [error, n] : votes) {
    if (n > best_votes) {
      best = error;
      best_votes = n;
    } else if (n == best_votes && error == ny_error) {
      best = error;  // tie: the paper's primary vantage wins
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

ProbeResult TlsProber::probe_once(const std::string& sni,
                                  VantagePoint vantage) const {
  static obs::Counter& attempts_total = obs::metrics().counter("net.probe.attempts");
  static obs::Histogram& handshake_ns =
      obs::metrics().histogram("net.probe.handshake_ns");
  attempts_total.inc();

  ProbeResult result;
  result.sni = sni;
  result.vantage = vantage;
  result.family = family_;

  Bytes hello_msg = prober_hello(sni).encode();
  Bytes flight = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                     BytesView(hello_msg.data(), hello_msg.size()));
  Bytes response;
  try {
    obs::ScopedTimer timer(handshake_ns);
    response = internet_->connect(vantage, family_,
                                  BytesView(flight.data(), flight.size()));
  } catch (const NetError& e) {
    result.error = classify_net_error(e.kind());
    result.error_detail = e.what();
  }

  if (result.error == ProbeError::kNone) {
    // A fatal alert instead of a ServerHello: reachable at the TCP level
    // but the handshake was refused.
    if (auto alert = tls::find_alert(BytesView(response.data(), response.size()))) {
      result.error = ProbeError::kAlert;
      result.error_detail =
          "alert: " + tls::alert_description_name(alert->description);
    }
  }

  if (result.error == ProbeError::kNone) {
    try {
      auto records = tls::parse_records(BytesView(response.data(), response.size()));
      Bytes handshakes = tls::handshake_payload(records);
      auto msgs =
          tls::split_handshakes(BytesView(handshakes.data(), handshakes.size()));
      for (const auto& m : msgs) {
        Bytes framed =
            tls::encode_handshake(m.type, BytesView(m.body.data(), m.body.size()));
        if (m.type == tls::HandshakeType::kServerHello) {
          auto sh = tls::ServerHello::parse(BytesView(framed.data(), framed.size()));
          result.negotiated_suite = sh.cipher_suite;
        } else if (m.type == tls::HandshakeType::kCertificate) {
          auto cert_msg =
              tls::CertificateMsg::parse(BytesView(framed.data(), framed.size()));
          for (const Bytes& enc : cert_msg.chain) {
            result.chain.push_back(
                x509::Certificate::parse(BytesView(enc.data(), enc.size())));
          }
        } else if (m.type == tls::HandshakeType::kCertificateStatus) {
          result.stapled =
              x509::OcspResponse::parse(BytesView(m.body.data(), m.body.size()));
        }
      }
      result.reachable = true;
    } catch (const ParseError& e) {
      result.chain.clear();
      result.stapled.reset();
      result.error = ProbeError::kParse;
      result.error_detail = e.what();
    }
  }
  return result;
}

ProbeResult TlsProber::probe_with_retries(const std::string& sni,
                                          VantagePoint vantage,
                                          RetryBudget* budget,
                                          DegradationSummary* summary) const {
  static obs::Counter& total = obs::metrics().counter("net.probe.total");
  static obs::Counter& retries_total = obs::metrics().counter("net.probe.retry");
  static obs::Counter& recovered = obs::metrics().counter("net.probe.recovered");
  static obs::Counter& transient_fail =
      obs::metrics().counter("net.probe.transient_fail");
  static obs::Counter& persistent_fail =
      obs::metrics().counter("net.probe.persistent_fail");
  static obs::Counter& backoff_total =
      obs::metrics().counter("net.probe.backoff_ms_total");
  static obs::Histogram& attempts_hist = obs::metrics().histogram(
      "net.probe.attempts_per_probe", {1, 2, 3, 4, 5, 6, 8, 10});
  total.inc();

  // Flight-recorder span per probe (one relaxed load when --trace-out is
  // off): renders each SNI x vantage attempt loop as a leaf of its worker's
  // flamegraph track.
  obs::TraceSpan trace_span("net.probe");
  if (trace_span.active()) {
    trace_span.detail("sni=" + sni + " vantage=" + vantage_slug(vantage));
  }

  const int max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  ProbeResult result;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result = probe_once(sni, vantage);
    result.attempts = attempt;
    if (result.error == ProbeError::kNone) break;
    result.transient = RetryPolicy::retryable(result.error);
    // Definitive categories (alert/parse/dns) are the server's answer, not
    // weather — retrying them would bias the §5 failure statistics.
    if (!result.transient || attempt == max_attempts) break;
    // One token buys one extra attempt; the acquire is a single CAS, so a
    // budget of K yields exactly K survey-wide retries even with N workers
    // racing for the last token (a failed acquire spends nothing).
    if (budget != nullptr && !budget->try_acquire()) {
      if (summary != nullptr) ++summary->budget_denied;
      break;
    }
    retries_total.inc();
    retry_counter(result.error).inc();
    if (summary != nullptr) ++summary->retries;
    std::uint64_t backoff = retry_.backoff_ms(attempt, sni, vantage);
    backoff_total.inc(backoff);
    if (summary != nullptr) summary->backoff_ms_total += backoff;
    clock().sleep_ms(backoff);
  }
  attempts_hist.observe(static_cast<std::uint64_t>(result.attempts));
  if (summary != nullptr) {
    summary->attempts += static_cast<std::uint64_t>(result.attempts);
  }

  if (result.reachable) {
    reachable_counter(vantage).inc();
    if (result.attempts > 1) {
      recovered.inc();
      if (summary != nullptr) ++summary->recovered_probes;
    }
  } else {
    unreachable_counter(vantage).inc();
    error_counter(result.error).inc();
    if (result.transient) {
      transient_fail.inc();
      if (summary != nullptr) ++summary->transient_failures;
    } else {
      persistent_fail.inc();
      if (summary != nullptr) ++summary->persistent_failures;
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
  }
  return result;
}

ProbeResult TlsProber::probe(const std::string& sni, VantagePoint vantage) const {
  return probe_with_retries(sni, vantage, nullptr, nullptr);
}

MultiVantageResult TlsProber::probe_all_vantages(const std::string& sni) const {
  MultiVantageResult out;
  out.sni = sni;
  for (VantagePoint v : kAllVantagePoints) out.by_vantage[v] = probe(sni, v);
  return out;
}

std::vector<MultiVantageResult> TlsProber::survey(
    const std::vector<std::string>& snis) const {
  return survey_report(snis).results;
}

MultiVantageResult TlsProber::survey_one(const std::string& sni,
                                         CircuitBreaker& breaker,
                                         RetryBudget& budget,
                                         DegradationSummary& summary) const {
  static obs::Counter& skipped_counter =
      obs::metrics().counter("net.probe.skipped.breaker");

  obs::TraceSpan trace_span("net.survey_one");
  if (trace_span.active()) trace_span.detail("sni=" + sni);

  MultiVantageResult multi;
  multi.sni = sni;
  for (VantagePoint v : kAllVantagePoints) {
    if (!breaker.allow(sni)) {
      // Quarantined: report the gap honestly instead of blocking on a
      // host the survey already knows is dead.
      error_counter(ProbeError::kSkipped).inc();
      skipped_counter.inc();
      ++summary.skipped_probes;
      multi.by_vantage[v] = ProbeResult::skipped_by_breaker(sni, v);
      continue;
    }
    ProbeResult r = probe_with_retries(sni, v, &budget, &summary);
    if (r.reachable || !connectivity_failure(r.error)) {
      breaker.record_success(sni);
    } else {
      breaker.record_failure(sni);
    }
    multi.by_vantage[v] = std::move(r);
  }
  return multi;
}

SurveyReport TlsProber::survey_report(const std::vector<std::string>& snis) const {
  // Readiness for the export plane: the prober is "ready" unless every
  // circuit breaker it has seen is open (total quarantine — retrying the
  // survey right now would only burn budget). Registered once, on the
  // first survey of the process; reads only the occupancy gauges below.
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
  report.results.resize(snis.size());
  report.summary.snis = snis.size();

  RetryBudget budget(retry_.retry_budget);

  // Shard by distinct SNI, first-occurrence order. All occurrences of one
  // SNI stay in one shard and run in input order, so its circuit-breaker
  // history (per-SNI state, nothing cross-SNI) and its fault-injector
  // attempt counters evolve exactly as in the sequential walk; distinct
  // SNIs are independent and may run on any worker.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < snis.size(); ++i) {
      auto [it, fresh] = group_of.emplace(snis[i], groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  // Per-shard state, merged after the join: degradation partials fold
  // additively; breaker occupancy sums (each shard's breaker holds exactly
  // the shard's one SNI). Result slots are pre-sized and index-disjoint,
  // so workers write without coordination and the merged vector is in
  // input order — bit-identical to the sequential walk.
  std::vector<DegradationSummary> partials(groups.size());
  std::vector<CircuitBreaker::Counts> occupancy(groups.size());

  auto run_group = [&](std::size_t g) {
    // Stage span per shard: rolls up into one deterministic `probe.shard`
    // stats row (calls == shard count at every jobs level) and, when the
    // flight recorder is on, draws the shard as a bar on its worker's
    // trace track with the per-SNI spans nested inside.
    auto shard_span = obs::tracer().span("probe.shard");
    CircuitBreaker breaker(breaker_config_);
    for (std::size_t index : groups[g]) {
      report.results[index] =
          survey_one(snis[index], breaker, budget, partials[g]);
      shard_span.add_items();
    }
    occupancy[g] = breaker.counts();
  };

  exec::parallel_for(jobs_, groups.size(), run_group);

  for (const DegradationSummary& partial : partials) {
    report.summary.merge(partial);
  }

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
  CircuitBreaker::Counts counts;
  for (const CircuitBreaker::Counts& c : occupancy) {
    counts.closed += c.closed;
    counts.open += c.open;
    counts.half_open += c.half_open;
  }
  obs::metrics().gauge("net.probe.breaker.closed").set(
      static_cast<std::int64_t>(counts.closed));
  obs::metrics().gauge("net.probe.breaker.open").set(
      static_cast<std::int64_t>(counts.open));
  obs::metrics().gauge("net.probe.breaker.half_open").set(
      static_cast<std::int64_t>(counts.half_open));
  return report;
}

}  // namespace iotls::net
