#include "net/stack_fingerprint.hpp"

#include <cstdio>
#include <map>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iotls::net {

namespace {

std::string hex4(std::uint16_t v) {
  char buf[5];
  std::snprintf(buf, sizeof buf, "%04x", v);
  return buf;
}

/// Selected ALPN protocol from a ServerHello's extension 16 (RFC 7301 wire
/// form: u16 list length, then one u8-length-prefixed name). Empty when the
/// extension is absent or malformed.
std::string alpn_of_serverhello(const tls::ServerHello& sh) {
  for (const tls::Extension& e : sh.extensions) {
    if (e.type != 16) continue;
    if (e.data.size() < 3) return {};
    std::size_t name_len = e.data[2];
    if (3 + name_len > e.data.size()) return {};
    return std::string(e.data.begin() + 3, e.data.begin() + 3 + name_len);
  }
  return {};
}

/// Negotiated version: the supported_versions echo (extension 43) when
/// present — a TLS 1.3 ServerHello keeps 0x0303 on the wire — else the
/// legacy version field.
std::uint16_t version_of_serverhello(const tls::ServerHello& sh) {
  for (const tls::Extension& e : sh.extensions) {
    if (e.type == 43 && e.data.size() == 2) {
      return static_cast<std::uint16_t>((e.data[0] << 8) | e.data[1]);
    }
  }
  return sh.version;
}

/// docs/FINGERPRINTING.md §3: "vvvv|cccc|eeee+eeee|proto" for a
/// ServerHello, "alert|N" for an alert, "x|parse" for a flight that is
/// malformed or carries no ServerHello.
std::string canonicalize(const ServerFlight& flight) {
  if (flight.alert.has_value()) {
    return "alert|" + std::to_string(static_cast<int>(flight.alert->description));
  }
  if (!flight.error.empty() || !flight.hello.has_value()) return "x|parse";
  const tls::ServerHello& sh = *flight.hello;
  std::string exts;
  for (const tls::Extension& e : sh.extensions) {
    if (!exts.empty()) exts += '+';
    exts += hex4(e.type);
  }
  const std::string alpn = alpn_of_serverhello(sh);
  return hex4(version_of_serverhello(sh)) + "|" + hex4(sh.cipher_suite) + "|" +
         (exts.empty() ? "-" : exts) + "|" + (alpn.empty() ? "-" : alpn);
}

}  // namespace

const std::vector<ProbeSpec>& StackFingerprinter::standard_battery() {
  // The normative K=10 battery. docs/FINGERPRINTING.md carries this table
  // verbatim and tests/stack_fingerprint_test.cpp cross-checks the two —
  // change them together. "M" is the §5 prober's modern suite list.
  static const std::vector<ProbeSpec> kBattery = [] {
    const std::vector<std::uint16_t>& kModern = modern_suites();
    std::vector<ProbeSpec> b;
    // 1. Baseline TLS 1.2, full modern list, rich extension set.
    b.push_back({"tls12", 0x0303, kModern,
                 {0, 5, 10, 11, 13, 16, 23}, {}, {"h2", "http/1.1"}, false});
    // 2. Same suites reversed: does the server honour client order?
    {
      std::vector<std::uint16_t> rev(kModern.rbegin(), kModern.rend());
      b.push_back({"tls12-reverse", 0x0303, std::move(rev),
                   {0, 10, 11, 13}, {}, {}, false});
    }
    // 3. Narrow top-3 offer: preference when choice is scarce.
    b.push_back({"tls12-top3", 0x0303, {0xc02b, 0xc02f, 0xcca9},
                 {0, 10, 11, 13}, {}, {}, false});
    // 4. GREASE in suites and extensions (RFC 8701 tolerance).
    b.push_back({"tls12-grease", 0x0303, kModern,
                 {0, 5, 10, 11, 13, 16, 23}, {}, {"h2"}, true});
    // 5. TLS 1.3 offer with a 1.2 fallback list.
    {
      std::vector<std::uint16_t> suites = {0x1301, 0x1302, 0x1303};
      suites.insert(suites.end(), kModern.begin(), kModern.end());
      b.push_back({"tls13", 0x0303, std::move(suites),
                   {0, 10, 11, 13, 16, 43}, {0x0304, 0x0303}, {"h2"}, false});
    }
    // 6. Pure TLS 1.3, permuted extension order.
    b.push_back({"tls13-compat", 0x0303, {0x1301, 0x1302, 0x1303},
                 {0, 43, 10, 11, 13}, {0x0304}, {}, false});
    // 7. TLS 1.1 with the legacy CBC tail.
    b.push_back({"tls11", 0x0302, {0xc013, 0xc014, 0x002f, 0x0035, 0x000a},
                 {0, 10, 11}, {}, {}, false});
    // 8. TLS 1.0, legacy suites only.
    b.push_back({"tls10", 0x0301, {0x002f, 0x0035, 0x000a, 0x0005, 0x0004},
                 {0}, {}, {}, false});
    // 9. RC4-leaning legacy offer: only ancient stacks accept.
    b.push_back({"legacy-rc4", 0x0301, {0x0005, 0x0004, 0x000a},
                 {0}, {}, {}, false});
    // 10. Bare hello: SNI + session_ticket, nothing else.
    b.push_back({"bare", 0x0303, kModern, {0, 35}, {}, {}, false});
    return b;
  }();
  return kBattery;
}

const StackFingerprint* ServerStackResult::at(VantagePoint v,
                                              AddressFamily f) const {
  auto vit = fingerprints.find(v);
  if (vit == fingerprints.end()) return nullptr;
  auto fit = vit->second.find(f);
  if (fit == vit->second.end()) return nullptr;
  return &fit->second;
}

void StackSurveySummary::merge(const StackSurveySummary& other) {
  snis += other.snis;
  probes += other.probes;
  attempts += other.attempts;
  retries += other.retries;
  answered_probes += other.answered_probes;
  skipped_probes += other.skipped_probes;
}

StackFingerprinter::StackFingerprinter(const Internet& internet)
    : ProbeEngine(internet, "net.fingerprint") {}

StackFingerprinter::SniBattery StackFingerprinter::prepare(
    const std::string& sni) const {
  SniBattery shared;
  shared.flights.reserve(battery_.size());
  for (const ProbeSpec& spec : battery_) shared.flights.push_back(spec.flight(sni));
  return shared;
}

StackFingerprint StackFingerprinter::run_battery(
    const std::string& sni, VantagePoint vantage, AddressFamily family,
    SniBattery& shared, CircuitBreaker* breaker,
    StackSurveySummary* summary) const {
  static obs::Counter& probes = obs::metrics().counter("net.fingerprint.probes");
  // Breaker key per (SNI, family): "no AAAA" on a v4-only server must not
  // quarantine the v4 battery (and vice versa).
  const std::string breaker_key = sni + "|" + family_name(family);

  StackFingerprint fp;
  fp.vantage = vantage;
  fp.family = family;
  fp.observations.reserve(battery_.size());

  std::string joined;
  for (std::size_t k = 0; k < battery_.size(); ++k) {
    const Bytes& flight = shared.flights[k];
    Exchange ex = exchange(sni, vantage, family,
                           BytesView(flight.data(), flight.size()), breaker,
                           breaker_key, nullptr);
    ServerFlight parsed;
    if (ex.error == ProbeError::kNone) {
      // Only the leaf is read: its fingerprint feeds the dual-stack report.
      parsed = parse_server_flight(
          BytesView(ex.response.data(), ex.response.size()), 1, false);
    }
    std::string canonical = ex.error == ProbeError::kNone
                                ? canonicalize(parsed)
                                : "x|" + probe_error_name(ex.error);
    if (fp.leaf_fp.empty() && parsed.error.empty() && !parsed.chain.empty()) {
      x509::Certificate& leaf = parsed.chain.front();
      if (shared.leaf != leaf) {
        shared.leaf_fp = leaf.fingerprint();
        shared.leaf = std::move(leaf);
      }
      fp.leaf_fp = shared.leaf_fp;
    }
    const bool answered = canonical.rfind("x|", 0) != 0;
    fp.answered = fp.answered || answered;

    if (ex.error == ProbeError::kSkipped) {
      if (summary != nullptr) ++summary->skipped_probes;
    } else {
      probes.inc();
      if (summary != nullptr) {
        ++summary->probes;
        summary->attempts += static_cast<std::uint64_t>(ex.attempts);
        summary->retries += static_cast<std::uint64_t>(ex.attempts - 1);
        if (answered) ++summary->answered_probes;
      }
    }

    if (!joined.empty()) joined += ',';
    joined += canonical;
    fp.observations.push_back({battery_[k].name, std::move(canonical), ex.attempts});
  }

  fp.digest = crypto::sha256_hex(
                  BytesView(reinterpret_cast<const std::uint8_t*>(joined.data()),
                            joined.size()))
                  .substr(0, 32);
  return fp;
}

StackFingerprint StackFingerprinter::fingerprint(const std::string& sni,
                                                 VantagePoint vantage,
                                                 AddressFamily family) const {
  SniBattery shared = prepare(sni);
  return run_battery(sni, vantage, family, shared, nullptr, nullptr);
}

ServerStackResult StackFingerprinter::fingerprint_server(
    const std::string& sni) const {
  return survey({sni}).results.front();
}

ServerStackResult StackFingerprinter::survey_one(
    const std::string& sni, CircuitBreaker& breaker,
    StackSurveySummary& summary) const {
  obs::TraceSpan trace_span("net.fingerprint");
  if (trace_span.active()) trace_span.detail("sni=" + sni);

  // Family-major walk, v4 before v6, vantages in enum order: the fault
  // injector's attempt counters are keyed (SNI, vantage) — not family — so
  // this fixed order is what makes a dual-stack survey replayable.
  ServerStackResult out;
  out.sni = sni;
  SniBattery shared = prepare(sni);
  for (AddressFamily family : families_) {
    for (VantagePoint v : kAllVantagePoints) {
      out.fingerprints[v][family] = run_battery(sni, v, family, shared, &breaker,
                                                &summary);
    }
  }
  return out;
}

StackSurvey StackFingerprinter::survey(
    const std::vector<std::string>& snis) const {
  auto span = obs::tracer().span("fingerprint");
  StackSurvey survey;
  survey.summary.snis = snis.size();
  survey_shards(snis, "fingerprint.shard", survey.results, survey.summary,
                [&](const std::string& sni, CircuitBreaker& breaker,
                    StackSurveySummary& partial) {
                  return survey_one(sni, breaker, partial);
                });
  span.add_items();
  return survey;
}

}  // namespace iotls::net
