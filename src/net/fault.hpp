// Deterministic network fault injection for the probing pipeline.
//
// FaultInjector decorates any Internet with seeded chaos: transient
// timeouts, connection resets, truncated or garbled response streams,
// per-vantage outage windows, and added (virtual) latency. Every decision
// is a pure function of (seed, SNI, vantage, attempt index), so the same
// spec replays the identical fault schedule — which is what lets the tests
// assert "20% injected timeouts, N retries, ≥99% of certificates recovered,
// byte-identical counters" instead of flaky probabilistic bounds.
//
// Specs are parseable from a CLI string (`iotls_probe --fault-spec=...`):
//
//   seed=7,timeout=0.2,reset=0.05,truncate=0.01,garble=0.01,
//   latency-ms=20,latency-jitter-ms=5,outage=frankfurt:10:25
//
// `timeout`/`reset`/`truncate`/`garble` are per-attempt probabilities in
// [0,1]; `outage=<vantage>:<start>:<end>` fails that vantage's connection
// numbers [start, end) (repeatable for multiple windows).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/internet.hpp"
#include "net/retry.hpp"
#include "net/vantage.hpp"
#include "util/rng.hpp"

namespace iotls::net {

/// One per-vantage outage: connections [start, end) from `vantage` time
/// out regardless of target (a regional blackout, Table 16's per-location
/// misses taken to the extreme).
struct OutageWindow {
  VantagePoint vantage = VantagePoint::kNewYork;
  std::uint64_t start = 0;  // inclusive, per-vantage connection index
  std::uint64_t end = 0;    // exclusive
};

/// Declarative fault schedule. Default-constructed == no faults.
struct FaultSpec {
  std::uint64_t seed = 1;
  double timeout_rate = 0.0;   // transient timeout (NetError::kTimeout)
  double reset_rate = 0.0;     // connection reset (NetError::kConnect)
  double truncate_rate = 0.0;  // response cut short mid-record
  double garble_rate = 0.0;    // response bytes flipped
  std::uint64_t latency_ms = 0;         // added per-connect latency
  std::uint64_t latency_jitter_ms = 0;  // uniform extra in [0, jitter]
  std::vector<OutageWindow> outages;

  /// Does this spec inject anything at all?
  bool any() const;

  /// Parse the CLI syntax documented above. Throws ParseError with a
  /// pointed message on unknown keys or malformed values.
  static FaultSpec parse(const std::string& text);
  std::string to_string() const;
};

/// Internet decorator that applies a FaultSpec. Thread-safe; attempt
/// indices are tracked per (SNI, vantage) so retries see fresh draws.
class FaultInjector final : public Internet {
 public:
  /// `upstream` must outlive the injector. `clock`, when given, is
  /// advanced by injected latency (must also outlive the injector).
  FaultInjector(const Internet& upstream, FaultSpec spec, Clock* clock = nullptr)
      : upstream_(&upstream), spec_(std::move(spec)), clock_(clock) {}

  using Internet::connect;

  /// Injected timeouts, resets and outages come back as NetError values,
  /// like the upstream's own failures.
  ConnectResult connect(VantagePoint vantage, AddressFamily family,
                        BytesView client_records) const override;

  const FaultSpec& spec() const { return spec_; }

  /// Totals by fault kind, for assertions and reports.
  struct Stats {
    std::uint64_t timeouts = 0;
    std::uint64_t resets = 0;
    std::uint64_t truncated = 0;
    std::uint64_t garbled = 0;
    std::uint64_t outage_hits = 0;
    std::uint64_t latency_ms_total = 0;
    std::uint64_t connects = 0;  // attempts seen (faulted or not)
  };
  Stats stats() const;

  /// Forget attempt counters and stats; the next connect sequence replays
  /// the schedule from the beginning (same spec -> same faults).
  void reset();

 private:
  const Internet* upstream_;
  FaultSpec spec_;
  Clock* clock_;

  /// One (SNI, vantage) decision source: its attempts so far and the
  /// stream forked for it, from which each attempt forks its own.
  struct Route {
    std::uint64_t attempts = 0;
    Rng stream;
  };

  mutable std::mutex mu_;
  /// Per vantage, by SNI; string_view lookups build no key.
  mutable std::map<std::string, Route, std::less<>> routes_[kAllVantagePoints.size()];
  mutable std::uint64_t vantage_connects_[kAllVantagePoints.size()] = {};
  mutable Stats stats_;
};

}  // namespace iotls::net
