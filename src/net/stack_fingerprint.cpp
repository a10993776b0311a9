#include "net/stack_fingerprint.hpp"

#include <cstdio>
#include <map>

#include "crypto/sha256.hpp"
#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tls/alert.hpp"
#include "tls/record.hpp"
#include "tls/serverhello.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/writer.hpp"
#include "x509/certificate.hpp"

namespace iotls::net {

namespace {

constexpr std::uint16_t kGreaseValue = 0x0a0a;

std::string hex4(std::uint16_t v) {
  char buf[5];
  std::snprintf(buf, sizeof buf, "%04x", v);
  return buf;
}

/// "x|<category>" slug for a failed connection, mirroring ProbeError names.
std::string failure_canonical(NetError::Kind kind) {
  switch (kind) {
    case NetError::Kind::kNoRoute: return "x|dns";
    case NetError::Kind::kTimeout: return "x|timeout";
    case NetError::Kind::kConnect: return "x|connect";
    case NetError::Kind::kProtocol: return "x|connect";
  }
  return "x|connect";
}

bool retryable_kind(NetError::Kind kind) {
  return kind == NetError::Kind::kTimeout || kind == NetError::Kind::kConnect;
}

/// A response was elicited (ServerHello, alert, even garbage) — anything
/// that is not a connection-level failure or a breaker skip.
bool canonical_answered(const std::string& canonical) {
  return canonical.rfind("x|", 0) != 0;
}

bool canonical_connectivity_failure(const std::string& canonical) {
  return canonical == "x|dns" || canonical == "x|timeout" ||
         canonical == "x|connect";
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

obs::Counter& battery_probe_counter() {
  static obs::Counter& c = obs::metrics().counter("net.fingerprint.probes");
  return c;
}

}  // namespace

tls::ClientHello ProbeSpec::build(const std::string& sni) const {
  tls::ClientHello ch;
  ch.legacy_version = legacy_version;
  // Deterministic hello random: the battery must be a pure function of
  // (probe, sni) so a replayed survey sends identical bytes.
  Rng rng(fnv1a64("stackprobe:" + name + ":" + sni));
  for (auto& b : ch.random) b = static_cast<std::uint8_t>(rng.uniform(0, 255));

  if (grease) ch.cipher_suites.push_back(kGreaseValue);
  ch.cipher_suites.insert(ch.cipher_suites.end(), cipher_suites.begin(),
                          cipher_suites.end());

  if (grease) ch.extensions.push_back({kGreaseValue, {}});
  for (std::uint16_t code : extensions) {
    switch (code) {
      case 0:
        ch.set_sni(sni);
        break;
      case 10:  // supported_groups: secp256r1, secp384r1
        ch.extensions.push_back({10, {0x00, 0x04, 0x00, 0x17, 0x00, 0x18}});
        break;
      case 11:  // ec_point_formats: uncompressed
        ch.extensions.push_back({11, {0x01, 0x00}});
        break;
      case 13:  // signature_algorithms: ecdsa_sha256, rsa_pkcs1_sha384
        ch.extensions.push_back({13, {0x00, 0x04, 0x04, 0x01, 0x05, 0x01}});
        break;
      case 16: {  // ALPN from the spec's protocol list (RFC 7301)
        Writer w;
        auto list = w.begin_length(2);
        for (const std::string& proto : alpn) {
          auto entry = w.begin_length(1);
          w.str(proto);
          w.end_length(entry);
        }
        w.end_length(list);
        ch.extensions.push_back({16, w.take()});
        break;
      }
      case 43: {  // supported_versions from the spec's version list
        Writer w;
        auto list = w.begin_length(1);
        for (std::uint16_t v : supported_versions) w.u16(v);
        w.end_length(list);
        ch.extensions.push_back({43, w.take()});
        break;
      }
      default:  // flag-style extensions travel empty (5, 23, 35, ...)
        ch.extensions.push_back({code, {}});
        break;
    }
  }
  return ch;
}

const std::vector<ProbeSpec>& StackFingerprinter::standard_battery() {
  // The normative K=10 battery. docs/FINGERPRINTING.md carries this table
  // verbatim and tests/stack_fingerprint_test.cpp cross-checks the two —
  // change them together. "M" below is the §5 prober's modern suite list.
  static const std::vector<std::uint16_t> kModern = {
      0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013,
      0xc014, 0x009c, 0x009d, 0x002f, 0x0035, 0x000a};
  static const std::vector<ProbeSpec> kBattery = [] {
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

StackFingerprint StackFingerprinter::run_battery(
    const std::string& sni, VantagePoint vantage, AddressFamily family,
    CircuitBreaker* breaker, StackSurveySummary* summary) const {
  // Breaker key per (SNI, family): "no AAAA" on a v4-only server must not
  // quarantine the v4 battery (and vice versa).
  const std::string breaker_key = sni + "|" + family_name(family);
  Clock& clock = clock_ != nullptr ? *clock_ : own_clock_;
  const int max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;

  StackFingerprint fp;
  fp.vantage = vantage;
  fp.family = family;
  fp.observations.reserve(battery_.size());

  std::string joined;
  for (const ProbeSpec& spec : battery_) {
    if (breaker != nullptr && !breaker->allow(breaker_key)) {
      if (summary != nullptr) ++summary->skipped_probes;
      if (!joined.empty()) joined += ',';
      joined += "x|skipped";
      fp.observations.push_back({spec.name, "x|skipped", 0});
      continue;
    }

    battery_probe_counter().inc();
    Bytes hello_msg = spec.build(sni).encode();
    Bytes flight =
        tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                            BytesView(hello_msg.data(), hello_msg.size()));

    std::string canonical;
    int attempts = 0;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      attempts = attempt;
      Bytes response;
      try {
        response = internet_->connect(vantage, family,
                                      BytesView(flight.data(), flight.size()));
      } catch (const NetError& e) {
        canonical = failure_canonical(e.kind());
        // Only network weather earns another attempt; dns ("no AAAA") and
        // protocol rejections are the path's definitive answer.
        if (retryable_kind(e.kind()) && attempt < max_attempts) {
          if (summary != nullptr) ++summary->retries;
          clock.sleep_ms(retry_.backoff_ms(attempt, sni, vantage));
          continue;
        }
        break;
      }

      if (auto alert =
              tls::find_alert(BytesView(response.data(), response.size()))) {
        canonical =
            "alert|" + std::to_string(static_cast<int>(alert->description));
        break;
      }

      try {
        auto records =
            tls::parse_records(BytesView(response.data(), response.size()));
        Bytes handshakes = tls::handshake_payload(records);
        auto msgs = tls::split_handshakes(
            BytesView(handshakes.data(), handshakes.size()));
        std::string leaf_fp;
        for (const auto& m : msgs) {
          Bytes framed = tls::encode_handshake(
              m.type, BytesView(m.body.data(), m.body.size()));
          if (m.type == tls::HandshakeType::kServerHello) {
            auto sh =
                tls::ServerHello::parse(BytesView(framed.data(), framed.size()));
            std::string exts;
            for (const tls::Extension& e : sh.extensions) {
              if (!exts.empty()) exts += '+';
              exts += hex4(e.type);
            }
            if (exts.empty()) exts = "-";
            std::string alpn = alpn_of_serverhello(sh);
            canonical = hex4(version_of_serverhello(sh)) + "|" +
                        hex4(sh.cipher_suite) + "|" + exts + "|" +
                        (alpn.empty() ? "-" : alpn);
          } else if (m.type == tls::HandshakeType::kCertificate &&
                     leaf_fp.empty()) {
            auto cert_msg = tls::CertificateMsg::parse(
                BytesView(framed.data(), framed.size()));
            if (!cert_msg.chain.empty()) {
              leaf_fp = x509::Certificate::parse(
                            BytesView(cert_msg.chain.front().data(),
                                      cert_msg.chain.front().size()))
                            .fingerprint();
            }
          }
        }
        if (canonical.empty()) canonical = "x|parse";  // no ServerHello at all
        if (fp.leaf_fp.empty()) fp.leaf_fp = leaf_fp;
      } catch (const ParseError&) {
        // A garbled flight is a definitive (non-retryable) observation:
        // kParse is outside RetryPolicy::retryable, same as the §5 prober.
        canonical = "x|parse";
      }
      break;
    }

    if (summary != nullptr) {
      ++summary->probes;
      summary->attempts += static_cast<std::uint64_t>(attempts);
      if (canonical_answered(canonical)) ++summary->answered_probes;
    }
    if (canonical_answered(canonical)) {
      fp.answered = true;
      if (breaker != nullptr) breaker->record_success(breaker_key);
    } else if (breaker != nullptr &&
               canonical_connectivity_failure(canonical)) {
      breaker->record_failure(breaker_key);
    } else if (breaker != nullptr) {
      breaker->record_success(breaker_key);  // x|parse: something answered
    }

    if (!joined.empty()) joined += ',';
    joined += canonical;
    fp.observations.push_back({spec.name, std::move(canonical), attempts});
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
  return run_battery(sni, vantage, family, nullptr, nullptr);
}

ServerStackResult StackFingerprinter::fingerprint_server(
    const std::string& sni) const {
  CircuitBreaker breaker(breaker_config_);
  StackSurveySummary scratch;
  return survey_one(sni, breaker, scratch);
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
  for (AddressFamily family : families_) {
    for (VantagePoint v : kAllVantagePoints) {
      out.fingerprints[v][family] = run_battery(sni, v, family, &breaker,
                                                &summary);
    }
  }
  return out;
}

StackSurvey StackFingerprinter::survey(
    const std::vector<std::string>& snis) const {
  auto span = obs::tracer().span("fingerprint");

  StackSurvey survey;
  survey.results.resize(snis.size());
  survey.summary.snis = snis.size();

  // Shard by distinct SNI, first-occurrence order — the prober's pattern:
  // all occurrences of one SNI stay in one shard (its breaker and fault
  // attempt counters replay exactly), distinct SNIs run on any worker, and
  // results land in pre-sized input-order slots.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < snis.size(); ++i) {
      auto [it, fresh] = group_of.emplace(snis[i], groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  std::vector<StackSurveySummary> partials(groups.size());
  auto run_group = [&](std::size_t g) {
    auto shard_span = obs::tracer().span("fingerprint.shard");
    CircuitBreaker breaker(breaker_config_);
    for (std::size_t index : groups[g]) {
      survey.results[index] = survey_one(snis[index], breaker, partials[g]);
      shard_span.add_items();
    }
  };

  exec::parallel_for(jobs_, groups.size(), run_group);

  for (const StackSurveySummary& partial : partials) {
    survey.summary.merge(partial);
  }
  span.add_items();
  return survey;
}

}  // namespace iotls::net
