#include "net/fault.hpp"

#include <cstdio>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "tls/record.hpp"
#include "util/error.hpp"

namespace iotls::net {

namespace {

obs::Counter& fault_counter(const char* kind) {
  return obs::metrics().counter(std::string("net.fault.injected.") + kind);
}

VantagePoint parse_vantage(const std::string& token) {
  if (token == "newyork" || token == "new_york" || token == "ny") {
    return VantagePoint::kNewYork;
  }
  if (token == "frankfurt" || token == "fra") return VantagePoint::kFrankfurt;
  if (token == "singapore" || token == "sgp") return VantagePoint::kSingapore;
  throw ParseError("fault-spec: unknown vantage '" + token +
                   "' (want newyork|frankfurt|singapore)");
}

const char* vantage_token(VantagePoint v) {
  switch (v) {
    case VantagePoint::kNewYork: return "newyork";
    case VantagePoint::kFrankfurt: return "frankfurt";
    case VantagePoint::kSingapore: return "singapore";
  }
  return "?";
}

double parse_rate(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double rate = 0;
  try {
    rate = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || rate < 0.0 || rate > 1.0) {
    throw ParseError("fault-spec: " + key + " wants a probability in [0,1], got '" +
                     value + "'");
  }
  return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size()) {
    throw ParseError("fault-spec: " + key + " wants a non-negative integer, got '" +
                     value + "'");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace

bool FaultSpec::any() const {
  return timeout_rate > 0 || reset_rate > 0 || truncate_rate > 0 ||
         garble_rate > 0 || latency_ms > 0 || latency_jitter_ms > 0 ||
         !outages.empty();
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  // Scalar keys may appear once: a spec like "timeout=0.2,timeout=0" is
  // almost certainly an editing accident, and silently honouring the last
  // write would run a very different experiment than the one on the
  // command line. (outage is the exception — windows are repeatable.)
  std::set<std::string> seen;
  auto once = [&seen](const std::string& key) {
    if (!seen.insert(key).second) {
      throw ParseError("fault-spec: duplicate key '" + key +
                       "' (each scalar key may appear once)");
    }
  };
  if (!text.empty() && text.back() == ',') {
    std::size_t prev = text.size() >= 2
                           ? text.find_last_of(',', text.size() - 2)
                           : std::string::npos;
    std::size_t start = prev == std::string::npos ? 0 : prev + 1;
    throw ParseError("fault-spec: trailing ',' after '" +
                     text.substr(start, text.size() - 1 - start) + "'");
  }
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string field = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (field.empty()) {
      throw ParseError("fault-spec: empty field (stray ',') in '" + text + "'");
    }
    std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw ParseError("fault-spec: field '" + field + "' is not key=value");
    }
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key != "outage") once(key);
    if (key == "seed") {
      spec.seed = parse_u64(key, value);
    } else if (key == "timeout") {
      spec.timeout_rate = parse_rate(key, value);
    } else if (key == "reset") {
      spec.reset_rate = parse_rate(key, value);
    } else if (key == "truncate") {
      spec.truncate_rate = parse_rate(key, value);
    } else if (key == "garble") {
      spec.garble_rate = parse_rate(key, value);
    } else if (key == "latency-ms") {
      spec.latency_ms = parse_u64(key, value);
    } else if (key == "latency-jitter-ms") {
      spec.latency_jitter_ms = parse_u64(key, value);
    } else if (key == "outage") {
      // <vantage>:<start>:<end>
      std::size_t c1 = value.find(':');
      std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                               : value.find(':', c1 + 1);
      if (c2 == std::string::npos) {
        throw ParseError("fault-spec: outage wants <vantage>:<start>:<end>, got '" +
                         value + "'");
      }
      OutageWindow w;
      w.vantage = parse_vantage(value.substr(0, c1));
      w.start = parse_u64("outage start", value.substr(c1 + 1, c2 - c1 - 1));
      w.end = parse_u64("outage end", value.substr(c2 + 1));
      if (w.end <= w.start) {
        throw ParseError("fault-spec: outage window is empty: '" + value + "'");
      }
      spec.outages.push_back(w);
    } else {
      throw ParseError("fault-spec: unknown key '" + key + "'");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "seed=%llu,timeout=%g,reset=%g,truncate=%g,garble=%g,"
                "latency-ms=%llu,latency-jitter-ms=%llu",
                static_cast<unsigned long long>(seed), timeout_rate, reset_rate,
                truncate_rate, garble_rate,
                static_cast<unsigned long long>(latency_ms),
                static_cast<unsigned long long>(latency_jitter_ms));
  std::string out = buf;
  for (const OutageWindow& w : outages) {
    out += ",outage=" + std::string(vantage_token(w.vantage)) + ":" +
           std::to_string(w.start) + ":" + std::to_string(w.end);
  }
  return out;
}

ConnectResult FaultInjector::connect(VantagePoint vantage, AddressFamily family,
                                     BytesView client_records) const {
  // Routing key, read in place. A flight without an SNI is passed straight
  // through — the upstream rejects it with its own (definitive) protocol
  // error.
  //
  // The attempt counter and the decision stream are keyed by (SNI,
  // vantage), deliberately NOT by family: a v4-only walk draws exactly the
  // schedule it always drew, and a dual-stack walk that visits families in
  // a fixed per-SNI order (as the battery does) is equally deterministic.
  const tls::RecordStream records(client_records);
  const std::optional<std::string_view> sni = client_hello_view_of(records).sni();
  if (!sni.has_value()) return upstream_->connect(vantage, family, client_records);

  // One decision stream per (seed, sni, vantage, attempt): replaying the
  // same probe sequence replays the same faults, and a *retry* is a new
  // attempt with fresh draws — exactly how transient weather behaves.
  Rng rng(0);  // the attempt's stream, forked under the lock
  std::uint64_t conn_index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& routes = routes_[static_cast<std::size_t>(vantage)];
    auto it = routes.find(*sni);
    if (it == routes.end()) {
      Rng stream = Rng(spec_.seed).fork(*sni).fork(vantage_name(vantage));
      it = routes.emplace(std::string(*sni), Route{0, stream}).first;
    }
    char attempt[32];
    const int len = std::snprintf(attempt, sizeof attempt, "attempt%llu",
                                  static_cast<unsigned long long>(it->second.attempts++));
    rng = it->second.stream.fork(std::string_view(attempt, static_cast<std::size_t>(len)));
    conn_index = vantage_connects_[static_cast<std::size_t>(vantage)]++;
    ++stats_.connects;
  }

  // One injected fault: the injector's stats and net.fault.injected.<kind>.
  auto tally = [this](std::uint64_t Stats::*field, obs::Counter& counter) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(stats_.*field);
    }
    counter.inc();
  };
  auto failure = [&sni](std::string what, NetError::Kind kind) {
    return NetError(what.append(*sni), kind);
  };

  if (spec_.latency_ms > 0 || spec_.latency_jitter_ms > 0) {
    std::uint64_t lat = spec_.latency_ms;
    if (spec_.latency_jitter_ms > 0) lat += rng.uniform(0, spec_.latency_jitter_ms);
    if (clock_ != nullptr) clock_->sleep_ms(lat);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.latency_ms_total += lat;
  }

  for (const OutageWindow& w : spec_.outages) {
    if (w.vantage == vantage && conn_index >= w.start && conn_index < w.end) {
      static obs::Counter& c = fault_counter("outage");
      tally(&Stats::outage_hits, c);
      return failure("injected outage at " + vantage_name(vantage) + ": ",
                     NetError::Kind::kTimeout);
    }
  }

  if (rng.chance(spec_.timeout_rate)) {
    static obs::Counter& c = fault_counter("timeout");
    tally(&Stats::timeouts, c);
    return failure("injected timeout: ", NetError::Kind::kTimeout);
  }
  if (rng.chance(spec_.reset_rate)) {
    static obs::Counter& c = fault_counter("reset");
    tally(&Stats::resets, c);
    return failure("injected connection reset: ", NetError::Kind::kConnect);
  }

  ConnectResult answer = upstream_->connect(vantage, family, client_records);
  if (!answer.ok()) return answer;
  Bytes& response = answer.response;

  if (response.size() > 1 && rng.chance(spec_.truncate_rate)) {
    // Cut mid-stream: the client sees a partial flight, as a dropped
    // connection after the first segments would leave it.
    response.resize(static_cast<std::size_t>(
        rng.uniform(1, static_cast<std::uint64_t>(response.size() - 1))));
    static obs::Counter& c = fault_counter("truncate");
    tally(&Stats::truncated, c);
  }
  if (!response.empty() && rng.chance(spec_.garble_rate)) {
    std::size_t flips = 1 + response.size() / 64;
    for (std::size_t i = 0; i < flips; ++i) {
      std::size_t pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::uint64_t>(response.size() - 1)));
      response[pos] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    static obs::Counter& c = fault_counter("garble");
    tally(&Stats::garbled, c);
  }
  return answer;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& routes : routes_) routes.clear();
  for (auto& n : vantage_connects_) n = 0;
  stats_ = Stats{};
}

}  // namespace iotls::net
