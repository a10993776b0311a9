// Performance suite (google-benchmark): throughput of the pipeline's hot
// paths — ClientHello encode/parse, fingerprinting, JA3 hashing, certificate
// encode/parse/validation, Merkle proofs, pcap extraction.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/semantic.hpp"
#include "core/sharing.hpp"
#include "core/vendor_metrics.hpp"
#include "corpus/corpus.hpp"
#include "ct/merkle.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "devicesim/stacks.hpp"
#include "pcap/flow.hpp"
#include "tls/fingerprint.hpp"
#include "tls/record.hpp"
#include "x509/validation.hpp"

using namespace iotls;

namespace {

const corpus::LibraryCorpus& standard_corpus() {
  static const corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  return corpus;
}

tls::ClientHello sample_hello() {
  tls::ClientHello ch;
  ch.cipher_suites = {0x1301, 0x1302, 0xc02b, 0xc02f, 0xcca9, 0xc013,
                      0xc014, 0x009c, 0x002f, 0x0035, 0x000a};
  ch.extensions = {{10, {0, 4, 0, 23, 0, 24}}, {11, {1, 0}}, {13, {0, 2, 4, 1}},
                   {35, {}}, {23, {}}};
  ch.set_sni("device-metrics-us.amazon.com");
  return ch;
}

void BM_ClientHelloEncode(benchmark::State& state) {
  tls::ClientHello ch = sample_hello();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.encode());
  }
}
BENCHMARK(BM_ClientHelloEncode);

void BM_ClientHelloParse(benchmark::State& state) {
  Bytes wire = sample_hello().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tls::ClientHello::parse(BytesView(wire.data(), wire.size())));
  }
}
BENCHMARK(BM_ClientHelloParse);

void BM_Fingerprint(benchmark::State& state) {
  tls::ClientHello ch = sample_hello();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tls::fingerprint_of(ch));
  }
}
BENCHMARK(BM_Fingerprint);

void BM_Ja3Hash(benchmark::State& state) {
  tls::Fingerprint fp = tls::fingerprint_of(sample_hello());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp.ja3());
  }
}
BENCHMARK(BM_Ja3Hash);

void BM_CorpusMatch(benchmark::State& state) {
  const auto& corpus = standard_corpus();
  tls::Fingerprint fp = tls::fingerprint_of(sample_hello());
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus.best_match(fp));
  }
}
BENCHMARK(BM_CorpusMatch);

void BM_CertificateEncodeParse(benchmark::State& state) {
  auto ca = x509::CertificateAuthority::make_root("Perf CA", "Perf",
                                                  x509::CaKind::kPublicTrust, 0, 40000);
  x509::IssueRequest req;
  req.subject.common_name = "perf.example.com";
  req.san_dns = {"perf.example.com", "alt.perf.example.com"};
  req.not_after = 400;
  x509::Certificate cert = ca.issue(req);
  for (auto _ : state) {
    Bytes enc = cert.encode();
    benchmark::DoNotOptimize(x509::Certificate::parse(BytesView(enc.data(), enc.size())));
  }
}
BENCHMARK(BM_CertificateEncodeParse);

void BM_ChainValidation(benchmark::State& state) {
  auto ca = x509::CertificateAuthority::make_root("Perf CA", "Perf",
                                                  x509::CaKind::kPublicTrust, 0, 40000);
  auto inter = ca.subordinate("Perf Issuing", 0, 39000);
  x509::KeyRegistry keys;
  ca.publish_key(keys);
  inter.publish_key(keys);
  x509::TrustStoreSet trust;
  x509::TrustStore store("perf");
  store.add_root(ca.certificate());
  trust.add(std::move(store));
  x509::IssueRequest req;
  req.subject.common_name = "perf.example.com";
  req.san_dns = {"perf.example.com"};
  req.not_after = 400;
  std::vector<x509::Certificate> chain = {inter.issue(req), inter.certificate(),
                                          ca.certificate()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x509::validate_chain(chain, "perf.example.com", trust, keys, 100));
  }
}
BENCHMARK(BM_ChainValidation);

void BM_MerkleInclusionProof(benchmark::State& state) {
  ct::MerkleTree tree;
  for (int i = 0; i < 1024; ++i) {
    std::string entry = "entry" + std::to_string(i);
    tree.append(BytesView(reinterpret_cast<const std::uint8_t*>(entry.data()),
                          entry.size()));
  }
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.inclusion_proof(index++ % 1024, 1024));
  }
}
BENCHMARK(BM_MerkleInclusionProof);

void BM_PcapExtractHellos(benchmark::State& state) {
  // One flow carrying a ClientHello, framed and pcap-encoded.
  Bytes msg = sample_hello().encode();
  Bytes records = tls::encode_records(tls::ContentType::kHandshake, 0x0301,
                                      BytesView(msg.data(), msg.size()));
  pcap::TcpSegment seg;
  seg.src_ip = pcap::Ipv4Addr::from_string("192.168.1.10");
  seg.dst_ip = pcap::Ipv4Addr::from_string("93.184.216.34");
  seg.src_port = 40000;
  seg.dst_port = 443;
  seg.payload = records;
  pcap::PcapPacket packet;
  packet.frame = pcap::encode_frame(seg);
  std::vector<pcap::PcapPacket> capture(16, packet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcap::extract_client_hellos(capture));
  }
}
BENCHMARK(BM_PcapExtractHellos);

// --- Synthetic perf-acceptance scale: 64 vendors x 1,000 fingerprints ----
// The acceptance workload for the interned DatasetIndex. Built once.

struct SyntheticContext {
  devicesim::FleetDataset fleet;
  core::ClientDataset client;

  SyntheticContext()
      : fleet(bench::synthetic_fleet()),
        client(core::ClientDataset::from_fleet(fleet)) {}

  static const SyntheticContext& get() {
    static SyntheticContext ctx;
    return ctx;
  }
};

void BM_DatasetBuild64x1k(benchmark::State& state) {
  const auto& fleet = SyntheticContext::get().fleet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ClientDataset::from_fleet(fleet));
  }
}
BENCHMARK(BM_DatasetBuild64x1k)->Unit(benchmark::kMillisecond);

void BM_VendorJaccard64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::vendor_similarities(ds, 0.2));
  }
}
BENCHMARK(BM_VendorJaccard64x1k)->Unit(benchmark::kMillisecond);

// Reference implementation of the pre-index algorithm: pairwise
// std::set<std::string> intersection over vendor -> fingerprint-key sets
// built from the events. Kept in the binary so the speedup of
// BM_VendorJaccard64x1k is always measurable against the same build and
// inputs.
void BM_VendorJaccardStringSets(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  const auto vendor_fps = bench::vendor_fp_strings(ds);
  for (auto _ : state) {
    std::vector<core::VendorSimilarity> out;
    for (auto a = vendor_fps.begin(); a != vendor_fps.end(); ++a) {
      for (auto b = std::next(a); b != vendor_fps.end(); ++b) {
        std::size_t inter = 0;
        for (const auto& key : a->second)
          if (b->second.count(key)) ++inter;
        std::size_t uni = a->second.size() + b->second.size() - inter;
        double jaccard = uni ? static_cast<double>(inter) / uni : 0;
        if (jaccard >= 0.2)
          out.push_back({a->first, b->first, jaccard, 0});
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VendorJaccardStringSets)->Unit(benchmark::kMillisecond);

void BM_ServerTied64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  const auto& corpus = standard_corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::server_tied_fingerprints(ds, corpus));
  }
}
BENCHMARK(BM_ServerTied64x1k)->Unit(benchmark::kMillisecond);

void BM_SemanticMatch64x1k(benchmark::State& state) {
  const auto& ds = SyntheticContext::get().client;
  const auto& corpus = standard_corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::semantic_match(ds, corpus, kCaptureEnd));
  }
}
BENCHMARK(BM_SemanticMatch64x1k)->Unit(benchmark::kMillisecond);

void BM_FullClientAnalysis(benchmark::State& state) {
  static const devicesim::FleetDataset fleet = devicesim::generate_fleet(
      {}, standard_corpus(), devicesim::ServerUniverse::standard());
  for (auto _ : state) {
    auto ds = core::ClientDataset::from_fleet(fleet);
    benchmark::DoNotOptimize(core::fingerprint_degree_distribution(ds));
  }
}
BENCHMARK(BM_FullClientAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
