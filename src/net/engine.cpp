#include "net/engine.hpp"

#include "tls/record.hpp"
#include "util/error.hpp"
#include "util/reader.hpp"
#include "util/rng.hpp"
#include "util/writer.hpp"

namespace iotls::net {

namespace {

/// kNoRoute is dns, kTimeout timeout, and kConnect or kProtocol (a hello
/// without SNI) a refused connection.
ProbeError classify_net_error(NetError::Kind kind) {
  if (kind == NetError::Kind::kNoRoute) return ProbeError::kDns;
  return kind == NetError::Kind::kTimeout ? ProbeError::kTimeout : ProbeError::kConnect;
}

}  // namespace

const std::vector<std::uint16_t>& modern_suites() {
  static const std::vector<std::uint16_t> kModern = {
      0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013,
      0xc014, 0x009c, 0x009d, 0x002f, 0x0035, 0x000a};
  return kModern;
}

tls::ClientHello ProbeSpec::build(const std::string& sni) const {
  tls::ClientHello ch;
  ch.legacy_version = legacy_version;
  // Deterministic hello random: the battery must be a pure function of
  // (probe, sni) so a replayed survey sends identical bytes.
  Rng rng(fnv1a64("stackprobe:" + name + ":" + sni));
  for (auto& b : ch.random) b = static_cast<std::uint8_t>(rng.uniform(0, 255));

  constexpr std::uint16_t kGreaseValue = 0x0a0a;
  if (grease) ch.cipher_suites.push_back(kGreaseValue);
  ch.cipher_suites.insert(ch.cipher_suites.end(), cipher_suites.begin(),
                          cipher_suites.end());

  if (grease) ch.extensions.push_back({kGreaseValue, {}});
  for (std::uint16_t code : extensions) {
    switch (code) {
      case 0: ch.set_sni(sni); break;
      // supported_groups: secp256r1, secp384r1
      case 10: ch.extensions.push_back({10, {0x00, 0x04, 0x00, 0x17, 0x00, 0x18}}); break;
      // ec_point_formats: uncompressed
      case 11: ch.extensions.push_back({11, {0x01, 0x00}}); break;
      // signature_algorithms: ecdsa_sha256, rsa_pkcs1_sha384
      case 13: ch.extensions.push_back({13, {0x00, 0x04, 0x04, 0x01, 0x05, 0x01}}); break;
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

Bytes ProbeSpec::flight(const std::string& sni) const {
  Bytes msg = build(sni).encode();
  return tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                             BytesView(msg.data(), msg.size()));
}

ServerFlight parse_server_flight(BytesView records, std::size_t max_certs,
                                 bool staple) {
  ServerFlight flight;
  try {
    // One walk over the records; every message below is read in place.
    const tls::RecordStream stream(records);
    // A fatal alert instead of a ServerHello: reachable at the TCP level,
    // but the handshake was refused.
    flight.alert = tls::find_alert(stream);
    if (flight.alert.has_value()) return flight;
    const BytesView handshakes = stream.handshakes();
    // The whole framing is checked before any message is read, so a
    // truncated trailing message fails the flight as a unit.
    for (Reader r(handshakes); !r.empty();) tls::read_handshake(r);
    for (Reader r(handshakes); !r.empty();) {
      const tls::HandshakeView m = tls::read_handshake(r);
      if (m.type == tls::HandshakeType::kServerHello) {
        flight.hello = tls::ServerHello::parse(m.framed);
      } else if (m.type == tls::HandshakeType::kCertificate &&
                 flight.chain.size() < max_certs) {
        tls::CertificateMsgView::parse(m.framed).for_each([&](BytesView der) {
          flight.chain.push_back(x509::Certificate::parse(der));
          return flight.chain.size() < max_certs;
        });
      } else if (m.type == tls::HandshakeType::kCertificateStatus && staple) {
        flight.staple = x509::OcspResponse::parse(m.body());
      }
    }
  } catch (const ParseError& e) {
    flight.error = e.what();
  }
  return flight;
}

ProbeEngine::ProbeEngine(const Internet& internet,
                         const std::string& metric_prefix)
    : internet_(&internet),
      attempts_(obs::metrics().counter(metric_prefix + ".attempts")),
      handshake_ns_(obs::metrics().histogram(metric_prefix + ".handshake_ns")),
      retries_(obs::metrics().counter(metric_prefix + ".retry")),
      retries_timeout_(obs::metrics().counter(metric_prefix + ".retry.timeout")),
      retries_connect_(obs::metrics().counter(metric_prefix + ".retry.connect")),
      backoff_ms_(obs::metrics().counter(metric_prefix + ".backoff_ms_total")) {}

Exchange ProbeEngine::exchange(const std::string& sni, VantagePoint vantage,
                               AddressFamily family, BytesView flight,
                               CircuitBreaker* breaker,
                               const std::string& breaker_key,
                               RetryBudget* budget) const {
  Exchange ex;
  if (breaker != nullptr && !breaker->allow(breaker_key)) {
    // Quarantined: report the gap instead of blocking on a host the survey
    // already knows is dead.
    ex.error = ProbeError::kSkipped;
    return ex;
  }
  const int max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  for (int attempt = 1;; ++attempt) {
    ex.attempts = attempt;
    attempts_.inc();
    ConnectResult answer = [&] {
      obs::ScopedTimer timer(handshake_ns_);
      return internet_->connect(vantage, family, flight);
    }();
    if (answer.ok()) {
      ex.response = std::move(answer.response);
      ex.error = ProbeError::kNone;
      ex.detail.clear();
      ex.transient = false;
      break;
    }
    const NetError& failure = *answer.error;
    ex.error = classify_net_error(failure.kind());
    ex.detail = failure.what();
    // Only network weather earns another attempt. dns ("no AAAA") and a
    // hello the network refuses outright (no SNI) are definitive.
    ex.transient = failure.kind() != NetError::Kind::kProtocol &&
                   RetryPolicy::retryable(ex.error);
    if (!ex.transient || attempt == max_attempts) break;
    // One token buys one extra attempt; the acquire is a single CAS, so a
    // budget of K yields exactly K survey-wide retries even with N workers
    // racing for the last token (a failed acquire spends nothing).
    if (budget != nullptr && !budget->try_acquire()) {
      ex.budget_denied = true;
      break;
    }
    ex.retried = ex.error;
    retries_.inc();
    (ex.error == ProbeError::kTimeout ? retries_timeout_ : retries_connect_).inc();
    const std::uint64_t backoff = retry_.backoff_ms(attempt, sni, vantage);
    backoff_ms_.inc(backoff);
    ex.backoff_ms += backoff;
    clock().sleep_ms(backoff);
  }
  // Only connectivity failures feed the breaker: a fatal alert or a garbled
  // flight still proves something answered.
  if (breaker != nullptr) {
    ex.error == ProbeError::kNone ? breaker->record_success(breaker_key)
                                  : breaker->record_failure(breaker_key);
  }
  return ex;
}

}  // namespace iotls::net
