// Tests for the JARM-style server-stack fingerprinter, including the
// cross-check that keeps docs/FINGERPRINTING.md normative: the battery
// table and the worked example in the doc are parsed and compared against
// standard_battery() and a live run, so doc and code cannot drift apart.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/internet.hpp"
#include "net/stack_fingerprint.hpp"
#include "stack_survey_text.hpp"
#include "x509/authority.hpp"

namespace iotls::net {
namespace {

struct Fixture {
  devicesim::ServerUniverse universe = devicesim::ServerUniverse::standard();
  devicesim::SimWorld world = devicesim::build_world(universe);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

// ------------------------------------------------------------ doc parsing

std::string docs_path(const std::string& name) {
  return std::string(IOTLS_DOCS_DIR) + "/" + name;
}

std::string read_doc(const std::string& name) {
  std::ifstream in(docs_path(name));
  EXPECT_TRUE(in.good()) << "cannot open " << docs_path(name);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t pos = 1;  // skip leading '|'
  while (pos < line.size()) {
    std::size_t bar = line.find('|', pos);
    if (bar == std::string::npos) break;
    cells.push_back(trim(line.substr(pos, bar - pos)));
    pos = bar + 1;
  }
  return cells;
}

std::vector<std::string> split_tokens(const std::string& cell) {
  std::vector<std::string> tokens;
  std::istringstream in(cell);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::vector<std::uint16_t> parse_hex_list(const std::string& cell) {
  std::vector<std::uint16_t> out;
  if (cell == "-") return out;
  for (const std::string& tok : split_tokens(cell))
    out.push_back(static_cast<std::uint16_t>(std::strtoul(tok.c_str(), nullptr, 16)));
  return out;
}

std::vector<std::uint16_t> parse_dec_list(const std::string& cell) {
  std::vector<std::uint16_t> out;
  if (cell == "-") return out;
  for (const std::string& tok : split_tokens(cell))
    out.push_back(static_cast<std::uint16_t>(std::strtoul(tok.c_str(), nullptr, 10)));
  return out;
}

/// The doc's §2 battery rows: the 8-cell table rows whose first cell is a
/// row number (this skips the header, the separator, and the 3-cell
/// extension-payload table of §1).
std::vector<std::vector<std::string>> battery_rows(const std::string& doc) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells = split_cells(line);
    if (cells.size() != 8) continue;
    char* end = nullptr;
    long idx = std::strtol(cells[0].c_str(), &end, 10);
    if (end == cells[0].c_str() || *end != '\0' || idx < 1) continue;
    rows.push_back(std::move(cells));
  }
  return rows;
}

// --------------------------------------------------------- doc cross-check

TEST(FingerprintSpec, DocBatteryTableMatchesStandardBattery) {
  const std::string doc = read_doc("FINGERPRINTING.md");
  const std::vector<std::vector<std::string>> rows = battery_rows(doc);
  const std::vector<ProbeSpec>& battery = StackFingerprinter::standard_battery();

  ASSERT_EQ(rows.size(), battery.size()) << "doc table row count != battery size";
  for (std::size_t i = 0; i < battery.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    const ProbeSpec& spec = battery[i];
    SCOPED_TRACE("battery entry " + std::to_string(i + 1) + " (" + spec.name + ")");
    EXPECT_EQ(std::strtol(row[0].c_str(), nullptr, 10), static_cast<long>(i + 1));
    EXPECT_EQ(row[1], spec.name);
    EXPECT_EQ(std::strtoul(row[2].c_str(), nullptr, 16), spec.legacy_version);
    EXPECT_EQ(parse_hex_list(row[3]), spec.cipher_suites);
    EXPECT_EQ(parse_dec_list(row[4]), spec.extensions);
    EXPECT_EQ(parse_hex_list(row[5]), spec.supported_versions);
    EXPECT_EQ(split_tokens(row[6] == "-" ? "" : row[6]), spec.alpn);
    ASSERT_TRUE(row[7] == "yes" || row[7] == "no") << "grease cell: " << row[7];
    EXPECT_EQ(row[7] == "yes", spec.grease);
  }
}

TEST(FingerprintSpec, DocWorkedExampleMatchesLiveRun) {
  const std::string doc = read_doc("FINGERPRINTING.md");

  // Parse §4's code block ("<probe-name>  <canonical>" lines) and the
  // 32-hex digest from the line after it.
  std::size_t sec = doc.find("## 4.");
  ASSERT_NE(sec, std::string::npos);
  std::istringstream in(doc.substr(sec));
  std::string line;
  std::vector<std::pair<std::string, std::string>> doc_lines;
  bool in_block = false;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      if (in_block) break;
      in_block = true;
      continue;
    }
    if (!in_block) continue;
    std::istringstream cols(line);
    std::string probe, canonical;
    ASSERT_TRUE(cols >> probe >> canonical) << "bad example line: " << line;
    doc_lines.emplace_back(probe, canonical);
  }
  std::string doc_digest;
  auto is_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  while (doc_digest.empty() && std::getline(in, line)) {
    std::size_t run = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i < line.size() && is_hex(line[i])) {
        ++run;
        continue;
      }
      if (run == 32) doc_digest = line.substr(i - 32, 32);
      run = 0;
    }
  }
  ASSERT_EQ(doc_digest.size(), 32u) << "no digest found in §4";

  StackFingerprinter fp(fixture().world.internet);
  StackFingerprint live = fp.fingerprint("appboot.netflix.com",
                                         VantagePoint::kNewYork,
                                         AddressFamily::kIPv4);
  ASSERT_EQ(doc_lines.size(), live.observations.size());
  for (std::size_t i = 0; i < live.observations.size(); ++i) {
    EXPECT_EQ(doc_lines[i].first, live.observations[i].probe);
    EXPECT_EQ(doc_lines[i].second, live.observations[i].canonical)
        << "probe " << live.observations[i].probe;
  }
  EXPECT_EQ(doc_digest, live.digest);
  EXPECT_TRUE(live.answered);
}

// ----------------------------------------------------------- fingerprints

x509::CertificateAuthority test_ca() {
  return x509::CertificateAuthority::make_root("Stack Test CA", "StackTest",
                                               x509::CaKind::kPublicTrust,
                                               15000, 30000);
}

SimServer make_server(const std::string& sni,
                      const x509::CertificateAuthority& ca) {
  SimServer server;
  server.sni = sni;
  server.ips = {"203.0.113.9"};
  x509::IssueRequest req;
  req.subject.common_name = sni;
  req.san_dns = {sni};
  req.not_before = 18000;
  req.not_after = 19500;
  server.default_chain = {ca.issue(req), ca.certificate()};
  return server;
}

TEST(StackFingerprinter, DistinctStacksGetDistinctDigests) {
  x509::CertificateAuthority ca = test_ca();
  SimInternet internet;

  SimServer modern = make_server("modern.example", ca);
  modern.max_tls_version = 0x0304;
  modern.min_tls_version = 0x0302;
  modern.alpn_protocols = {"h2", "http/1.1"};
  modern.session_tickets = true;
  internet.add_server(modern);

  SimServer hardened = make_server("hardened.example", ca);
  hardened.min_tls_version = 0x0302;
  internet.add_server(hardened);

  SimServer legacy = make_server("legacy.example", ca);
  internet.add_server(legacy);

  StackFingerprinter fp(internet);
  auto digest = [&](const std::string& sni) {
    StackFingerprint r =
        fp.fingerprint(sni, VantagePoint::kNewYork, AddressFamily::kIPv4);
    EXPECT_TRUE(r.answered) << sni;
    return r.digest;
  };
  std::string d_modern = digest("modern.example");
  std::string d_hardened = digest("hardened.example");
  std::string d_legacy = digest("legacy.example");
  EXPECT_NE(d_modern, d_hardened);
  EXPECT_NE(d_modern, d_legacy);
  EXPECT_NE(d_hardened, d_legacy);

  // Same stack => same digest, and the leaf fingerprint is harvested.
  SimServer clone = make_server("clone.example", ca);
  internet.add_server(clone);
  StackFingerprint a =
      fp.fingerprint("legacy.example", VantagePoint::kNewYork, AddressFamily::kIPv4);
  StackFingerprint b =
      fp.fingerprint("clone.example", VantagePoint::kNewYork, AddressFamily::kIPv4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_FALSE(a.leaf_fp.empty());
  EXPECT_NE(a.leaf_fp, b.leaf_fp);  // different certs, same stack
}

TEST(StackFingerprinter, DualStackDivergenceAndAbsence) {
  x509::CertificateAuthority ca = test_ca();
  SimInternet internet;

  SimServer split = make_server("split.example", ca);
  split.dual_stack = true;
  split.ipv6_addresses = {"2001:db8::1"};
  split.suites_v6 = std::vector<std::uint16_t>{0xc030, 0x009d};
  split.max_tls_version_v6 = 0x0303;
  split.max_tls_version = 0x0304;
  internet.add_server(split);

  SimServer v4only = make_server("v4only.example", ca);
  internet.add_server(v4only);

  StackFingerprinter fp(internet);
  fp.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});

  ServerStackResult divergent = fp.fingerprint_server("split.example");
  const StackFingerprint* v4 =
      divergent.at(VantagePoint::kNewYork, AddressFamily::kIPv4);
  const StackFingerprint* v6 =
      divergent.at(VantagePoint::kNewYork, AddressFamily::kIPv6);
  ASSERT_NE(v4, nullptr);
  ASSERT_NE(v6, nullptr);
  EXPECT_TRUE(v4->answered);
  EXPECT_TRUE(v6->answered);
  EXPECT_NE(v4->digest, v6->digest);  // v6 frontend runs a different stack

  ServerStackResult absent = fp.fingerprint_server("v4only.example");
  const StackFingerprint* dark =
      absent.at(VantagePoint::kNewYork, AddressFamily::kIPv6);
  ASSERT_NE(dark, nullptr);
  EXPECT_FALSE(dark->answered);
  // No AAAA record; after the breaker's failure threshold the remaining
  // battery entries are skipped. The per-(SNI, family) keying means the
  // dark v6 path never quarantines v4:
  EXPECT_EQ(dark->observations.front().canonical, "x|dns");
  for (const ProbeObservation& obs : dark->observations)
    EXPECT_TRUE(obs.canonical == "x|dns" || obs.canonical == "x|skipped")
        << obs.canonical;
  const StackFingerprint* lit =
      absent.at(VantagePoint::kNewYork, AddressFamily::kIPv4);
  ASSERT_NE(lit, nullptr);
  EXPECT_TRUE(lit->answered);
}

// ------------------------------------------------------------ determinism

std::vector<std::string> sample_snis() {
  std::vector<std::string> snis;
  for (const SimServer* server : fixture().world.internet.servers()) {
    snis.push_back(server->sni);
    if (snis.size() == 24) break;
  }
  // Duplicates must land in the duplicate's slot, not be collapsed.
  snis.push_back(snis.front());
  return snis;
}

TEST(StackFingerprinter, SurveyIsByteIdenticalAcrossJobs) {
  const std::vector<std::string> snis = sample_snis();

  StackFingerprinter seq(fixture().world.internet);
  seq.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});
  seq.set_jobs(1);
  std::string baseline = serialize(seq.survey(snis));

  StackFingerprinter par(fixture().world.internet);
  par.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});
  par.set_jobs(8);
  EXPECT_EQ(baseline, serialize(par.survey(snis)));
}

TEST(StackFingerprinter, FaultySurveyIsByteIdenticalAcrossJobsWithRetries) {
  const std::vector<std::string> snis = sample_snis();
  // timeout faults are retryable, so the retry machinery is exercised;
  // no truncate/garble here — kParse outcomes are definitive, not retried.
  const FaultSpec spec = FaultSpec::parse("seed=7,timeout=0.2,reset=0.1");

  auto run = [&](int jobs) {
    FaultInjector injector(fixture().world.internet, spec);
    StackFingerprinter fp(injector);
    fp.set_families({AddressFamily::kIPv4, AddressFamily::kIPv6});
    RetryPolicy retry;
    retry.max_attempts = 3;
    fp.set_retry_policy(retry);
    fp.set_jobs(jobs);
    return fp.survey(snis);
  };

  StackSurvey baseline = run(1);
  EXPECT_GT(baseline.summary.retries, 0u) << "fault spec should force retries";
  EXPECT_GT(baseline.summary.attempts, baseline.summary.probes);
  EXPECT_EQ(serialize(baseline), serialize(run(8)));
}

TEST(StackFingerprinter, BatteryPrefixChangesDigest) {
  const std::vector<ProbeSpec>& standard = StackFingerprinter::standard_battery();
  StackFingerprinter full(fixture().world.internet);
  StackFingerprinter prefix(fixture().world.internet);
  prefix.set_battery(
      std::vector<ProbeSpec>(standard.begin(), standard.begin() + 3));

  StackFingerprint a = full.fingerprint("appboot.netflix.com",
                                        VantagePoint::kNewYork,
                                        AddressFamily::kIPv4);
  StackFingerprint b = prefix.fingerprint("appboot.netflix.com",
                                          VantagePoint::kNewYork,
                                          AddressFamily::kIPv4);
  ASSERT_EQ(b.observations.size(), 3u);
  EXPECT_NE(a.digest, b.digest);
  // The shared prefix canonicalizes identically.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(a.observations[i].canonical, b.observations[i].canonical);
}

}  // namespace
}  // namespace iotls::net
