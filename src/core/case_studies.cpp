#include "core/case_studies.hpp"

#include <algorithm>

#include "devicesim/stacks.hpp"
#include "net/prober.hpp"
#include "pcap/flow.hpp"
#include "tls/fingerprint.hpp"
#include "tls/record.hpp"
#include "util/dates.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace iotls::core {

namespace {

/// Frame a ClientHello's record bytes into Ethernet/IP/TCP packets.
std::vector<pcap::PcapPacket> frame_flight(const Bytes& records,
                                           std::uint32_t device_index,
                                           std::uint32_t ts) {
  pcap::TcpSegment seg;
  seg.src_mac.bytes = {0x02, 0x00, 0x00, 0x00, 0x00,
                       static_cast<std::uint8_t>(device_index)};
  seg.dst_mac.bytes = {0x02, 0xff, 0x00, 0x00, 0x00, 0x01};
  seg.src_ip = pcap::Ipv4Addr::from_string(
      "192.168.1." + std::to_string(10 + device_index % 200));
  seg.dst_ip = pcap::Ipv4Addr::from_string("93.184.216.34");
  seg.src_port = static_cast<std::uint16_t>(40000 + device_index);
  seg.dst_port = 443;
  seg.seq = 1000;
  seg.flags = pcap::kPsh | pcap::kAck;
  seg.payload = records;

  pcap::PcapPacket packet;
  packet.ts_sec = ts;
  packet.frame = pcap::encode_frame(seg);
  return {packet};
}

SmartTvGroup analyze_group(const std::string& group,
                           const std::vector<std::string>& snis,
                           const devicesim::SimWorld& world, std::int64_t now) {
  SmartTvGroup out;
  out.group = group;
  net::TlsProber prober(world.internet);

  std::map<std::string, IssuerValidityPoints> issuers;
  for (const std::string& sni : snis) {
    net::ProbeResult probe = prober.probe(sni, net::VantagePoint::kNewYork);
    if (!probe.reachable || probe.chain.empty()) continue;
    ++out.servers;
    const x509::Certificate& leaf = probe.chain.front();

    IssuerValidityPoints& pts = issuers[leaf.issuer.organization];
    pts.issuer = leaf.issuer.organization;
    auto pub = world.issuer_is_public.find(leaf.issuer.organization);
    pts.issuer_public = pub == world.issuer_is_public.end() ? true : pub->second;
    pts.validity_days.push_back(leaf.validity_days());
    ++pts.total;
    if (world.ct_index.logged(leaf.fingerprint())) ++pts.in_ct;

    x509::ValidationResult v =
        x509::validate_chain(probe.chain, sni, world.trust, world.keys, now);
    std::string domain = second_level_domain(sni);
    switch (v.status) {
      case x509::ChainStatus::kIncompleteChain:
        out.invalid.incomplete_chain.push_back(domain);
        break;
      case x509::ChainStatus::kUntrustedRoot:
        out.invalid.untrusted_root.push_back(domain);
        break;
      case x509::ChainStatus::kSelfSigned:
        out.invalid.self_signed.push_back(domain);
        break;
      default:
        break;
    }
    if (v.expired) out.invalid.expired.push_back(domain);
  }
  for (auto& [org, pts] : issuers) out.issuers.push_back(std::move(pts));
  std::sort(out.issuers.begin(), out.issuers.end(),
            [](const IssuerValidityPoints& a, const IssuerValidityPoints& b) {
              return a.total > b.total;
            });
  return out;
}

}  // namespace

SmartTvStudy smart_tv_study(const devicesim::SimWorld& world,
                            const devicesim::ServerUniverse& universe,
                            const corpus::LibraryCorpus& corpus, std::int64_t now) {
  SmartTvStudy study;

  // ---- Lab capture: two TVs talking to their clouds, captured to pcap.
  devicesim::TlsStack fire_tv;
  fire_tv.name = "lab:fire-tv";
  Rng rng(fnv1a64("smart-tv-lab"));
  fire_tv.config = devicesim::mutate_era(corpus.era("openssl-1.0.2"), rng, 0.4);
  devicesim::TlsStack roku_tv;
  roku_tv.name = "lab:roku-tv";
  roku_tv.config = devicesim::mutate_era(corpus.era("openssl-1.0.1"), rng, 0.5);

  std::vector<std::string> amazon_snis;
  for (const std::string& sni : universe.fqdns_with_tag("vendor:Amazon")) {
    std::string sld = second_level_domain(sni);
    // §6.1 excludes amazonaws.com / amazonvideo.com (Roku devices visit them).
    if (sld == "amazonaws.com" || sld == "amazonvideo.com") continue;
    amazon_snis.push_back(sni);
  }
  std::vector<std::string> roku_snis = universe.fqdns_with_tag("vendor:Roku");
  std::vector<std::string> tv_snis = universe.fqdns_with_tag("tv");

  std::vector<pcap::PcapPacket> capture;
  std::uint32_t ts = 1561000000;
  auto record_flight = [&](const devicesim::TlsStack& stack, const std::string& sni,
                           std::uint32_t device_index) {
    tls::ClientHello hello = devicesim::hello_from_stack(stack, sni, device_index);
    Bytes msg = hello.encode();
    Bytes records = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                        BytesView(msg.data(), msg.size()));
    for (pcap::PcapPacket& p : frame_flight(records, device_index, ts++)) {
      capture.push_back(std::move(p));
    }
  };
  std::uint32_t idx = 0;
  for (const std::string& sni : amazon_snis) record_flight(fire_tv, sni, idx++);
  for (const std::string& sni : roku_snis) record_flight(roku_tv, sni, idx++);
  for (std::size_t i = 0; i < tv_snis.size() && i < 12; ++i) {
    record_flight(i % 2 == 0 ? fire_tv : roku_tv, tv_snis[i], idx++);
  }

  // Round-trip the capture through the real pcap format, then recover
  // ClientHellos from the reassembled flows.
  Bytes pcap_bytes = pcap::write_pcap(capture);
  std::vector<pcap::PcapPacket> reread =
      pcap::read_pcap(BytesView(pcap_bytes.data(), pcap_bytes.size()));
  study.pcap_packets = reread.size();
  auto hellos = pcap::extract_client_hellos(reread);
  study.pcap_hellos = hellos.size();
  std::set<std::string> fps;
  for (const auto& [flow, ts_sec, hello] : hellos) {
    fps.insert(tls::fingerprint_of(hello).key());
  }
  study.pcap_fingerprints = fps.size();

  // ---- Server-side analysis per vendor group (Fig. 7 / Table 17).
  // The Amazon/Roku groups also include the third-party TV app servers each
  // TV contacted in the capture.
  std::vector<std::string> amazon_group = amazon_snis;
  std::vector<std::string> roku_group = roku_snis;
  for (std::size_t i = 0; i < tv_snis.size() && i < 12; ++i) {
    (i % 2 == 0 ? amazon_group : roku_group).push_back(tv_snis[i]);
  }
  study.amazon = analyze_group("Amazon", amazon_group, world, now);
  study.roku = analyze_group("Roku", roku_group, world, now);
  return study;
}

LocalPkiStudy local_network_study() {
  LocalPkiStudy study;

  const std::int64_t lab_day = days(2022, 6, 1);

  // The local devices' key material (§6.2 observations).
  // Amazon Echo: single self-signed cert, CN = its IP, 1-year validity.
  auto echo = x509::CertificateAuthority::make_root(
      "192.168.1.23", "Amazon", x509::CaKind::kPrivate, lab_day - 30,
      lab_day - 30 + 365);

  // Google Cast PKI: "Cast Root CA" -> per-product intermediates with 20-22
  // year validity -> per-device leaves named by serial number.
  auto cast_root = x509::CertificateAuthority::make_root(
      "Cast Root CA", "Google", x509::CaKind::kPrivate, days(2014, 1, 1),
      days(2044, 1, 1));
  auto chromecast_ica = cast_root.subordinate("Chromecast ICA 12", days(2015, 3, 1),
                                              days(2015, 3, 1) + 22 * 365);
  auto home_ica = cast_root.subordinate("Chromecast ICA 16 (Audio Assist 4)",
                                        days(2016, 9, 1),
                                        days(2016, 9, 1) + 20 * 365);

  x509::IssueRequest req;
  req.subject.common_name = "8d2e9f0a1b3c4d5e";  // serial-number CN
  req.not_before = days(2018, 1, 1);
  req.not_after = days(2038, 1, 1);
  x509::Certificate chromecast_leaf = chromecast_ica.issue(req);
  req.subject.common_name = "f00ddeadbeef1234";
  x509::Certificate home_leaf = home_ica.issue(req);

  // Client trust stores: neither Android (Pixel) nor macOS carries the Cast
  // Root CA; CT contains none of these certificates.
  x509::TrustStoreSet android_store, macos_store;
  android_store.add(x509::TrustStore("android"));
  macos_store.add(x509::TrustStore("macos"));
  ct::CtIndex empty_ct;

  struct Link {
    const char* client;
    const char* server;
    std::uint16_t port;
    std::uint16_t version;
    std::vector<x509::Certificate> chain;
    const x509::TrustStoreSet* store;
  };
  std::vector<Link> links = {
      {"Fire TV", "Echo", 55443, 0x0303, {echo.certificate()}, &android_store},
      {"Google Home", "Chromecast", 10101, 0x0303,
       {chromecast_leaf, chromecast_ica.certificate()}, &android_store},
      {"Pixel", "Chromecast", 8443, 0x0303,
       {chromecast_leaf, chromecast_ica.certificate()}, &android_store},
      {"MacBook", "Chromecast", 32245, 0x0304, {}, &macos_store},  // TLS 1.3
      {"Pixel", "Google Home", 8443, 0x0303,
       {home_leaf, home_ica.certificate()}, &android_store},
  };

  for (const Link& link : links) {
    LocalObservation obs;
    obs.client = link.client;
    obs.server = link.server;
    obs.port = link.port;
    obs.tls_version = link.version;
    obs.certificates_visible = link.version < 0x0304;  // TLS 1.3 encrypts them
    if (obs.certificates_visible && !link.chain.empty()) {
      const x509::Certificate& leaf = link.chain.front();
      const x509::Certificate& top = link.chain.back();
      obs.leaf_common_name = leaf.subject.common_name;
      obs.root_common_name =
          top.self_signed() ? top.subject.common_name : top.issuer.common_name;
      obs.validity_days = top.validity_days();
      obs.chain_length = link.chain.size();
      obs.root_in_client_store = link.store->contains_key(top.subject_key_id) ||
                                 link.store->contains_key(top.authority_key_id);
      obs.in_ct = empty_ct.logged(leaf.fingerprint());
      if (obs.validity_days >= 20 * 365) ++study.long_validity_roots;
    }
    study.observations.push_back(std::move(obs));
  }
  return study;
}

}  // namespace iotls::core
