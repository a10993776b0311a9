// Active server-stack fingerprinting (JARM-style).
//
// After "Active TLS Stack Fingerprinting: Characterizing TLS Server
// Deployments at Scale" (arxiv 2206.13230): send a *deterministic battery*
// of K varied ClientHellos — TLS version spread, ciphersuite orderings,
// GREASE on/off, ALPN/extension permutations — and hash the canonicalized
// ServerHello responses (selected version / cipher / extensions / alert
// behaviour) into one digest per (SNI, vantage, address family). Two
// servers sharing a digest run behaviourally indistinguishable TLS stacks;
// clustering vendors' backends by digest is the server-side dual of the
// paper's Table 4/5 client-fingerprint sharing.
//
// The battery is *normative*: docs/FINGERPRINTING.md carries the exact
// probe table, canonicalization grammar and hash rule, and a test
// cross-checks that document against standard_battery() — the fingerprint
// is reproducible from the doc alone.
//
// The battery runs on the shared probe engine (net/engine.hpp) and keeps
// its determinism contract: one SNI's probes run family-major, then by
// vantage, then by battery index. No retry budget is consulted (budget
// exhaustion is walk-order dependent); max_attempts and backoff apply.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/engine.hpp"

namespace iotls::net {

/// One battery entry's canonicalized outcome (docs/FINGERPRINTING.md §3):
///   "vvvv|cccc|eeee+eeee|proto"  ServerHello: selected version, cipher,
///                                extension codes in wire order ("-" when
///                                none), ALPN protocol ("-" when none)
///   "alert|N"                    fatal/warning alert, decimal description
///   "x|category"                 no server response: dns, connect,
///                                timeout, parse, or skipped (breaker)
struct ProbeObservation {
  std::string probe;      // ProbeSpec::name
  std::string canonical;
  int attempts = 1;       // connection attempts incl. retries; 0 = skipped
};

/// The battery's outcome at one (SNI, vantage, family).
struct StackFingerprint {
  VantagePoint vantage = VantagePoint::kNewYork;
  AddressFamily family = AddressFamily::kIPv4;
  /// Did any probe elicit a server response (ServerHello or alert)? False
  /// for v4-dark hosts and for v6 probes of v4-only servers.
  bool answered = false;
  std::vector<ProbeObservation> observations;  // battery order
  /// First 32 hex chars of SHA-256 over the ","-joined canonical strings.
  std::string digest;
  /// Leaf-certificate fingerprint from the first probe that served a
  /// chain; empty when none did. Feeds the dual-stack cert-divergence
  /// report without re-running the §5 harvester.
  std::string leaf_fp;
};

/// All fingerprints of one SNI: vantage-major map, families within.
struct ServerStackResult {
  std::string sni;
  std::map<VantagePoint, std::map<AddressFamily, StackFingerprint>> fingerprints;

  /// Lookup; nullptr when that (vantage, family) was not probed.
  const StackFingerprint* at(VantagePoint v, AddressFamily f) const;
};

/// Additive battery accounting (merged across shards in input order).
struct StackSurveySummary {
  std::size_t snis = 0;
  std::uint64_t probes = 0;    // battery entries attempted
  std::uint64_t attempts = 0;  // connection attempts incl. retries
  std::uint64_t retries = 0;
  std::uint64_t answered_probes = 0;
  std::uint64_t skipped_probes = 0;  // denied by an open breaker

  void merge(const StackSurveySummary& other);
};

struct StackSurvey {
  std::vector<ServerStackResult> results;  // input order
  StackSurveySummary summary;
};

/// Drives the battery against an Internet (the simulation, or a
/// FaultInjector wrapped around it) on the shared probe engine.
class StackFingerprinter : private ProbeEngine {
 public:
  explicit StackFingerprinter(const Internet& internet);

  /// The normative K=10 battery of docs/FINGERPRINTING.md.
  static const std::vector<ProbeSpec>& standard_battery();

  /// Replace the battery (tests use 2-3 entry batteries; iotls_probe
  /// --battery=K sends a prefix of the standard one).
  void set_battery(std::vector<ProbeSpec> battery) {
    battery_ = std::move(battery);
  }
  const std::vector<ProbeSpec>& battery() const { return battery_; }

  /// Families probed per (SNI, vantage), in order. Default: IPv4 only.
  void set_families(std::vector<AddressFamily> families) {
    families_ = std::move(families);
  }

  /// The breaker is keyed per (SNI, family): a dark v6 frontend must not
  /// quarantine the v4 battery.
  using ProbeEngine::set_breaker;
  using ProbeEngine::set_clock;
  using ProbeEngine::set_jobs;
  using ProbeEngine::set_retry_policy;

  /// Run the battery at one (SNI, vantage, family); no breaker (that is
  /// survey-scoped).
  StackFingerprint fingerprint(const std::string& sni, VantagePoint vantage,
                               AddressFamily family) const;

  /// Full battery for one SNI: every configured family x all vantages.
  ServerStackResult fingerprint_server(const std::string& sni) const;

  /// Battery over a list of SNIs, sharded by distinct SNI when jobs > 1;
  /// byte-identical to the sequential walk at any jobs level.
  StackSurvey survey(const std::vector<std::string>& snis) const;

 private:
  /// What the battery runs of one SNI share: its flights, built once, and
  /// the last leaf fingerprinted, reused while the same leaf comes back.
  struct SniBattery {
    std::vector<Bytes> flights;  // battery order
    std::optional<x509::Certificate> leaf;
    std::string leaf_fp;
  };
  SniBattery prepare(const std::string& sni) const;

  StackFingerprint run_battery(const std::string& sni, VantagePoint vantage,
                               AddressFamily family, SniBattery& shared,
                               CircuitBreaker* breaker,
                               StackSurveySummary* summary) const;
  ServerStackResult survey_one(const std::string& sni, CircuitBreaker& breaker,
                               StackSurveySummary& summary) const;

  std::vector<ProbeSpec> battery_ = standard_battery();
  std::vector<AddressFamily> families_ = {AddressFamily::kIPv4};
};

}  // namespace iotls::net
