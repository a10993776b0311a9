#include "net/retry.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace iotls::net {

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

std::uint64_t RetryPolicy::backoff_ms(int k, const std::string& sni,
                                      VantagePoint vantage) const {
  if (k < 1) return 0;
  // Exponential growth, saturating at max_backoff_ms. Computed in floating
  // point so large exponents cannot overflow.
  double raw = static_cast<double>(base_backoff_ms) *
               std::pow(multiplier, static_cast<double>(k - 1));
  std::uint64_t backoff = raw >= static_cast<double>(max_backoff_ms)
                              ? max_backoff_ms
                              : static_cast<std::uint64_t>(raw);
  // Deterministic jitter: same (seed, sni, vantage, k) -> same delay, so a
  // reseeded survey replays the exact retry schedule; different SNIs still
  // decorrelate (no thundering herd against one backend).
  if (base_backoff_ms > 0) {
    Rng rng = Rng(jitter_seed)
                  .fork(sni)
                  .fork(vantage_name(vantage))
                  .fork("retry" + std::to_string(k));
    backoff += rng.uniform(0, base_backoff_ms - 1);
  }
  // The cap bounds the *returned* delay, jitter included — adding jitter
  // after saturating could otherwise exceed max_backoff_ms by up to
  // base_backoff_ms - 1.
  return backoff < max_backoff_ms ? backoff : max_backoff_ms;
}

bool CircuitBreaker::allow(const std::string& sni) {
  if (!enabled()) return true;
  Entry& e = entries_[sni];
  switch (e.state) {
    case State::kClosed:
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      if (++e.denials >= config_.cooldown_denials) {
        e.state = State::kHalfOpen;  // admit one trial probe
        e.denials = 0;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::record_success(const std::string& sni) {
  if (!enabled()) return;
  Entry& e = entries_[sni];
  e.state = State::kClosed;
  e.consecutive_failures = 0;
  e.denials = 0;
}

void CircuitBreaker::record_failure(const std::string& sni) {
  if (!enabled()) return;
  Entry& e = entries_[sni];
  if (e.state == State::kHalfOpen) {
    // Failed trial: straight back to open, cooldown restarts.
    e.state = State::kOpen;
    e.denials = 0;
    return;
  }
  if (++e.consecutive_failures >= config_.failure_threshold) {
    e.state = State::kOpen;
    e.denials = 0;
  }
}

CircuitBreaker::State CircuitBreaker::state(const std::string& sni) const {
  auto it = entries_.find(sni);
  return it == entries_.end() ? State::kClosed : it->second.state;
}

std::vector<std::string> CircuitBreaker::quarantined() const {
  std::vector<std::string> out;
  for (const auto& [sni, e] : entries_) {
    if (e.state != State::kClosed) out.push_back(sni);
  }
  return out;
}

CircuitBreaker::Counts CircuitBreaker::counts() const {
  Counts c;
  for (const auto& [sni, e] : entries_) {
    switch (e.state) {
      case State::kClosed: ++c.closed; break;
      case State::kOpen: ++c.open; break;
      case State::kHalfOpen: ++c.half_open; break;
    }
  }
  return c;
}

}  // namespace iotls::net
