// iotls_fingerprint — fingerprint every TLS ClientHello in a pcap file.
//
// Usage:
//   iotls_fingerprint [--csv] [--match] [--stats[=json]] capture.pcap ...
//   iotls_fingerprint --snapshot=FILE [--csv] [--match] [--stats[=json]]
//
// Prints one line per recovered ClientHello: source, SNI, fingerprint key,
// JA3 digest and ciphersuite security classification. With --match, also
// attributes the fingerprint to a known TLS library build when it matches
// the corpus exactly (§4.1).
//
// `--snapshot=FILE` fingerprints a columnar .iotlsnap fleet container
// (docs/SNAPSHOT.md) instead of pcaps: events are materialized from the
// mapped columns chunk by chunk (the source column is the device id), so a
// fleet-scale snapshot streams through without ever holding the full event
// vector.
//
// Observability: IOTLS_LOG_LEVEL controls structured logs on stderr;
// `--stats` appends stage timings and counters (frames, flows, hellos,
// corpus hits/misses) to stderr, `--stats=json` emits them as one JSON
// document on stderr (stdout stays parseable --csv output). `--serve=PORT`
// exposes the live export plane (/metrics, /stats, /healthz, /readyz,
// /trace) while captures are processed (with `--serve-linger[=MS]` it stays
// up afterwards); `--trace-out=FILE` writes the run's nested spans as
// Chrome trace-event JSON for Perfetto.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "fleetio/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs_cli.hpp"
#include "pcap/flow.hpp"
#include "tls/ciphersuite.hpp"
#include "tls/fingerprint.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace iotls;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: iotls_fingerprint [--csv] [--match] [--stats[=json]]\n"
               "                         [--serve=PORT] [--serve-linger[=MS]]\n"
               "                         [--trace-out=FILE] capture.pcap ...\n"
               "       iotls_fingerprint --snapshot=FILE [--csv] [--match]\n"
               "                         [--stats[=json]]\n");
}

/// The first ClientHello in an event's record-layer bytes, or nullopt when
/// the bytes carry none (the snapshot path's analogue of flow reassembly).
std::optional<tls::ClientHello> hello_from_wire(BytesView wire) {
  try {
    return tls::first_client_hello(wire);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false, match = false;
  std::string snapshot_path;
  tools::ObsCli obs_cli;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    bool bad = false;
    if (obs_cli.parse(argv[i], &bad)) {
      if (bad) return 2;
    }
    else if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    else if (std::strcmp(argv[i], "--match") == 0) match = true;
    else if (std::strncmp(argv[i], "--snapshot=", 11) == 0)
      snapshot_path = argv[i] + 11;
    else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(stderr);
      return 2;
    }
    else paths.emplace_back(argv[i]);
  }
  if (paths.empty() == snapshot_path.empty()) {
    usage(stderr);
    std::fprintf(stderr, "example: iotls_fingerprint --match capture.pcap\n");
    return 2;
  }
  if (!obs_cli.start()) return 2;

  corpus::LibraryCorpus corpus_db =
      match ? corpus::LibraryCorpus::standard() : corpus::LibraryCorpus{};

  if (csv) {
    std::printf("file,src,sni,ja3,security,library\n");
  }

  int exit_code = 0;
  auto emit = [&](const std::string& file, const std::string& src,
                  const tls::ClientHello& hello) {
    tls::Fingerprint fp = tls::fingerprint_of(hello);
    std::string security = tls::security_level_name(
        tls::classify_suite_list(fp.cipher_suites));
    std::string library;
    if (match) {
      if (const corpus::KnownLibrary* lib = corpus_db.best_match(fp)) {
        obs::metrics().counter("corpus.match.hit").inc();
        library = lib->version;
      } else {
        obs::metrics().counter("corpus.match.miss").inc();
      }
    }
    std::string sni = hello.sni().value_or("-");
    if (csv) {
      std::printf("%s,%s,%s,%s,%s,%s\n", file.c_str(), src.c_str(),
                  sni.c_str(), fp.ja3().c_str(), security.c_str(),
                  library.c_str());
    } else {
      std::printf("  %-15s -> %-35s ja3=%s  [%s]%s%s\n", src.c_str(),
                  sni.c_str(), fp.ja3().c_str(), security.c_str(),
                  library.empty() ? "" : "  lib=", library.c_str());
    }
  };

  for (const std::string& path : paths) {
    std::vector<pcap::PcapPacket> packets;
    try {
      packets = pcap::read_pcap_file(path);
    } catch (const ParseError& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      exit_code = 1;
      continue;
    }
    auto hellos = pcap::extract_client_hellos(packets);
    if (!csv) {
      std::printf("%s: %zu packets, %zu ClientHellos\n", path.c_str(),
                  packets.size(), hellos.size());
    }
    auto fp_span = obs::tracer().span("fingerprint.extract");
    auto match_span = obs::tracer().span("corpus.match");
    for (const pcap::CapturedClientHello& captured : hellos) {
      fp_span.add_items();
      if (match) match_span.add_items();
      emit(path, captured.flow.src_ip.to_string(), captured.hello);
    }
  }

  if (!snapshot_path.empty()) {
    constexpr std::uint64_t kChunk = 65536;
    try {
      auto snap = fleetio::SnapshotReader::open(snapshot_path);
      if (!csv) {
        std::printf("%s: %llu events, %u devices\n", snapshot_path.c_str(),
                    static_cast<unsigned long long>(snap.event_count()),
                    snap.device_count());
      }
      auto fp_span = obs::tracer().span("fingerprint.extract");
      auto match_span = obs::tracer().span("corpus.match");
      for (std::uint64_t begin = 0; begin < snap.event_count();
           begin += kChunk) {
        std::uint64_t end = std::min(snap.event_count(), begin + kChunk);
        for (const devicesim::ClientHelloEvent& ev : snap.events(begin, end)) {
          fp_span.add_items();
          auto hello =
              hello_from_wire(BytesView(ev.wire.data(), ev.wire.size()));
          if (!hello.has_value()) {
            fp_span.fail("no_client_hello");
            continue;
          }
          if (match) match_span.add_items();
          emit(snapshot_path, ev.device_id, *hello);
        }
      }
    } catch (const ParseError& e) {
      std::fprintf(stderr, "%s: %s\n", snapshot_path.c_str(), e.what());
      exit_code = 1;
    }
  }

  obs_cli.print_stats(stderr);
  std::fflush(stdout);
  obs_cli.finish();
  return exit_code;
}
