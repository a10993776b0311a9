// Active TLS prober — our analogue of the paper's certificate harvester
// (§5.1): connect to each SNI from each vantage point, record the served
// chain, cross-check consistency across locations.
//
// Resilience: the prober runs on the shared probe engine (net/engine.hpp):
// retries under a RetryPolicy, a survey-wide retry budget and a per-SNI
// circuit breaker. Every result is tagged transient vs persistent with its
// attempt count, so a survey under network chaos degrades into partial
// results plus an explicit degradation summary.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/engine.hpp"

namespace iotls::net {

/// Result of one probe (one SNI from one vantage point).
struct ProbeResult {
  std::string sni;
  VantagePoint vantage = VantagePoint::kNewYork;
  /// Address family the connection travelled over (kIPv4 unless the prober
  /// was pointed at IPv6 with TlsProber::set_family).
  AddressFamily family = AddressFamily::kIPv4;
  bool reachable = false;
  std::uint16_t negotiated_suite = 0;
  std::vector<x509::Certificate> chain;  // as served, leaf first
  std::optional<x509::OcspResponse> stapled;  // CertificateStatus, if sent
  ProbeError error = ProbeError::kNone;  // category, set when !reachable
  std::string error_detail;              // human-readable message

  /// Connection attempts made (>= 1 unless the breaker skipped the probe).
  int attempts = 1;
  /// Failure weather: true when the final category is retryable network
  /// weather (timeout/connect) — the host may well exist; false means the
  /// outcome is definitive (success, alert, parse, dns, skipped).
  bool transient = false;
  /// True when the circuit breaker quarantined the SNI and this probe was
  /// never attempted (error == kSkipped, attempts == 0).
  bool quarantined = false;

  /// The one way to build a breaker-skipped result: `quarantined` implies
  /// `error == kSkipped` and `attempts == 0`.
  static ProbeResult skipped_by_breaker(std::string sni, VantagePoint vantage);

  /// Legacy display string: the detail when present, else the category name;
  /// empty for a successful probe.
  std::string error_string() const {
    if (error == ProbeError::kNone) return {};
    return error_detail.empty() ? probe_error_name(error) : error_detail;
  }
};

/// Harvest of one SNI across all vantage points.
struct MultiVantageResult {
  std::string sni;
  std::map<VantagePoint, ProbeResult> by_vantage;

  /// Leaf fingerprints identical at every reachable vantage?
  ///
  /// Vacuous agreement is deliberate: with zero or one reachable vantage,
  /// or when reachable vantages served empty chains, there is no pair of
  /// leaves to disagree — the SNI counts as consistent (the paper's
  /// Table 16 likewise only counts *observed* cross-location differences).
  bool consistent_across_vantages() const;

  /// Majority failure category across failed vantages (ties broken in
  /// favour of New York, the paper's primary vantage; then by enum order).
  /// kNone when every vantage succeeded.
  ProbeError majority_error() const;
};

/// How a survey degraded under failure: the §5.1 funnel bookkeeping.
struct DegradationSummary {
  std::size_t snis = 0;             // surveyed
  std::size_t fully_reachable = 0;  // every vantage answered
  std::size_t degraded = 0;         // some, not all, vantages answered
  std::size_t unreachable = 0;      // no vantage answered
  std::size_t quarantined_snis = 0; // >=1 probe skipped by the breaker

  std::uint64_t attempts = 0;          // connection attempts, incl. retries
  std::uint64_t retries = 0;           // attempts beyond each probe's first
  std::uint64_t recovered_probes = 0;  // failed at least once, then succeeded
  std::uint64_t transient_failures = 0;   // probes lost to network weather
  std::uint64_t persistent_failures = 0;  // probes with definitive failures
  std::uint64_t skipped_probes = 0;       // probes denied by the breaker
  std::uint64_t budget_denied = 0;        // retries forgone: budget exhausted
  std::uint64_t backoff_ms_total = 0;     // virtual time slept between tries

  /// Fold another summary in (additive fields only): per-shard partials
  /// merge in shard order.
  void merge(const DegradationSummary& other);

  std::string to_string() const;
};

/// Survey output: per-SNI results plus the degradation accounting.
struct SurveyReport {
  std::vector<MultiVantageResult> results;
  DegradationSummary summary;
};

/// The prober drives full wire handshakes against an Internet (the
/// simulation itself, or a FaultInjector wrapped around it): one fixed
/// hello from every vantage point, on the shared probe engine.
class TlsProber : private ProbeEngine {
 public:
  explicit TlsProber(const Internet& internet);

  using ProbeEngine::set_breaker;  // keyed per SNI
  using ProbeEngine::set_clock;
  using ProbeEngine::set_jobs;
  using ProbeEngine::set_retry_policy;

  /// Address family every probe travels over. Default IPv4 — the §5
  /// pipeline's historical behaviour; set kIPv6 to walk the same survey
  /// over the v6 frontends (v4-only servers then report dns failures,
  /// "no AAAA record").
  void set_family(AddressFamily family) { family_ = family; }

  /// Probe one SNI from one vantage point (retries per the policy; no
  /// budget, no breaker — those are survey-scoped).
  ProbeResult probe(const std::string& sni, VantagePoint vantage) const;

  /// Probe one SNI from all three vantage points.
  MultiVantageResult probe_all_vantages(const std::string& sni) const;

  /// Probe a list of SNIs from all vantage points.
  std::vector<MultiVantageResult> survey(const std::vector<std::string>& snis) const;

  /// survey() plus the degradation summary and breaker bookkeeping. The
  /// survey's retry budget is shared by all shards.
  SurveyReport survey_report(const std::vector<std::string>& snis) const;

 private:
  /// One probe: the exchange of `flight` (the prober's ClientHello for
  /// `sni`; gated by `breaker` and drawing on `budget` when given), the
  /// server flight parse, and the net.probe.* and `summary` accounting.
  ProbeResult probe_with(const std::string& sni, VantagePoint vantage,
                         BytesView flight, CircuitBreaker* breaker,
                         RetryBudget* budget, DegradationSummary& summary) const;
  /// All vantage points in order for one occurrence of `sni`, sending the
  /// one ClientHello flight built for it.
  MultiVantageResult probe_vantages(const std::string& sni,
                                    CircuitBreaker* breaker,
                                    RetryBudget* budget,
                                    DegradationSummary& summary) const;

  AddressFamily family_ = AddressFamily::kIPv4;
};

}  // namespace iotls::net
