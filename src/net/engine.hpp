// The probe engine both active surveys run on: the §5 certificate harvest
// (TlsProber: one fixed hello x 3 vantages) and the server-stack battery
// (StackFingerprinter: K hellos x families x vantages). After Active TLS
// Stack Fingerprinting (arxiv 2206.13230), a certificate grab is one entry
// of a probe battery. The parts: exchange() (one flight under the retry
// policy and the breaker), parse_server_flight(), and survey_shards().
//
// Determinism contract: all occurrences of one SNI run in one shard, in
// input order, with a breaker of their own; results land in input-order
// slots and per-shard summaries fold additively. Retries draw
// per-(SNI, vantage, attempt) fault and jitter streams, so a survey is
// byte-identical at any jobs level, unless a shared RetryBudget runs out
// mid-survey (README "Parallelism").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "net/internet.hpp"
#include "net/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/alert.hpp"
#include "tls/serverhello.hpp"
#include "x509/certificate.hpp"
#include "x509/revocation.hpp"

namespace iotls::net {

/// The §5 prober's modern suite list: its own hello offers it, and the
/// battery table (docs/FINGERPRINTING.md) calls it "M".
const std::vector<std::uint16_t>& modern_suites();

/// One declarative battery entry: everything needed to build its
/// ClientHello. `extensions` lists the ordered extension type codes the
/// hello carries; codes with content (0 = SNI, 16 = ALPN from `alpn`,
/// 43 = supported_versions from `supported_versions`) get their payloads
/// from the spec, all others are sent empty. `grease` prepends 0x0a0a to
/// both the suite list and the extension list (RFC 8701; the value is
/// fixed, not rotated, so the battery bytes are deterministic).
struct ProbeSpec {
  std::string name;
  std::uint16_t legacy_version = 0x0303;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint16_t> extensions;
  std::vector<std::uint16_t> supported_versions;
  std::vector<std::string> alpn;
  bool grease = false;

  /// The probe's ClientHello for `sni`. Deterministic: the hello random is
  /// derived from (probe name, sni), nothing else.
  tls::ClientHello build(const std::string& sni) const;
  /// build(sni) as the first flight a client sends: one handshake record.
  Bytes flight(const std::string& sni) const;
};

/// What one exchange came back with.
struct Exchange {
  Bytes response;                        // the server's records when error == kNone
  ProbeError error = ProbeError::kNone;  // kNone, dns/timeout/connect, or kSkipped
  std::string detail;                    // the last NetError's message
  int attempts = 0;                      // connects made; 0 when the breaker denied it
  bool transient = false;                // the final failure was retryable weather
  bool budget_denied = false;            // a retry was forgone: the budget ran dry
  ProbeError retried = ProbeError::kNone;  // the failure that prompted the last retry
  std::uint64_t backoff_ms = 0;          // virtual time slept between attempts
};

/// A server's flight, parsed in message order.
struct ServerFlight {
  std::optional<tls::Alert> alert;            // set: nothing else was parsed
  std::optional<tls::ServerHello> hello;      // the last ServerHello
  std::vector<x509::Certificate> chain;       // leaf first
  std::optional<x509::OcspResponse> staple;   // CertificateStatus
  /// Non-empty when the bytes were malformed: the ParseError message. The
  /// fields above then hold what parsed before the error.
  std::string error;
};

/// Parse `records`: a fatal alert ends the parse; otherwise records ->
/// handshakes -> ServerHello, Certificate and CertificateStatus messages,
/// each read in place from the records. Only the first `max_certs`
/// certificates are parsed (later entries and Certificate messages are
/// skipped), and the staple only when `staple` is set.
ServerFlight parse_server_flight(BytesView records, std::size_t max_certs,
                                 bool staple);

/// Retry policy, breaker configuration, clock and jobs shared by a survey,
/// plus the exchange and the sharded driver that survey runs on.
class ProbeEngine {
 public:
  /// `metric_prefix` names the engine's instruments: <prefix>.attempts and
  /// the <prefix>.handshake_ns histogram per connect; <prefix>.retry,
  /// <prefix>.retry.{timeout,connect} and <prefix>.backoff_ms_total per
  /// retry.
  ProbeEngine(const Internet& internet, const std::string& metric_prefix);

  /// Retry discipline for every exchange. Default: single attempt.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Per-shard circuit breaker. Default: open after 3 consecutive
  /// connectivity failures — which a distinct-SNI prober survey never
  /// notices, but repeated passes over a dead host skip it.
  /// failure_threshold 0 disables quarantining.
  void set_breaker(const BreakerConfig& config) { breaker_ = config; }

  /// Clock that backoff sleeps advance; defaults to an internal
  /// VirtualClock (instant, deterministic). Non-owning.
  void set_clock(Clock* clock) { clock_ = clock; }

  /// Worker threads for surveys. 1 (the default) walks the survey on the
  /// calling thread; N > 1 shards SNI groups across a work-stealing pool;
  /// 0 asks the hardware.
  void set_jobs(int jobs) { jobs_ = jobs; }

 protected:
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Send `flight` for `sni` from `vantage` over `family`. A breaker must
  /// allow `breaker_key` first (else kSkipped, 0 attempts) and records a
  /// dns/timeout/connect outcome as a failure, a response as a success.
  /// Only timeout and connect NetErrors are retried, after a deterministic
  /// backoff; a non-null `budget` must yield a token per retry.
  Exchange exchange(const std::string& sni, VantagePoint vantage,
                    AddressFamily family, BytesView flight,
                    CircuitBreaker* breaker, const std::string& breaker_key,
                    RetryBudget* budget) const;

  /// Fill `results` (input order) with probe_one(sni, breaker, partial) for
  /// every entry of `snis`. One shard per distinct SNI, in first-occurrence
  /// order, each with its own breaker, summary partial and `shard_stage`
  /// span; partials merge into `summary` in shard order. Returns the
  /// shards' summed breaker occupancy.
  template <typename Result, typename Summary, typename ProbeOne>
  CircuitBreaker::Counts survey_shards(const std::vector<std::string>& snis,
                                       const char* shard_stage,
                                       std::vector<Result>& results,
                                       Summary& summary,
                                       const ProbeOne& probe_one) const {
    std::vector<std::vector<std::size_t>> shards;
    std::map<std::string, std::size_t> shard_of;
    for (std::size_t i = 0; i < snis.size(); ++i) {
      auto [it, fresh] = shard_of.emplace(snis[i], shards.size());
      if (fresh) shards.emplace_back();
      shards[it->second].push_back(i);
    }
    results.resize(snis.size());
    std::vector<Summary> partials(shards.size());
    std::vector<CircuitBreaker::Counts> occupancy(shards.size());
    exec::parallel_for(jobs_, shards.size(), [&](std::size_t s) {
      auto span = obs::tracer().span(shard_stage);
      CircuitBreaker breaker(breaker_);
      for (std::size_t index : shards[s]) {
        results[index] = probe_one(snis[index], breaker, partials[s]);
        span.add_items();
      }
      occupancy[s] = breaker.counts();
    });
    CircuitBreaker::Counts total;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      summary.merge(partials[s]);
      total.closed += occupancy[s].closed;
      total.open += occupancy[s].open;
      total.half_open += occupancy[s].half_open;
    }
    return total;
  }

 private:
  Clock& clock() const { return clock_ != nullptr ? *clock_ : own_clock_; }

  const Internet* internet_;
  RetryPolicy retry_;
  BreakerConfig breaker_;
  Clock* clock_ = nullptr;
  int jobs_ = 1;
  mutable VirtualClock own_clock_;

  obs::Counter& attempts_;
  obs::Histogram& handshake_ns_;
  obs::Counter& retries_;
  obs::Counter& retries_timeout_;
  obs::Counter& retries_connect_;
  obs::Counter& backoff_ms_;
};

}  // namespace iotls::net
