// Golden outputs: the paper outputs pinned byte for byte.
//
// Two families of goldens live in tests/golden/:
//  * report_<name>.json — every stream::render_report document over the
//    default generate_fleet with certs on. jobs 1 and jobs 8 are compared
//    against the same file, so the --jobs byte-identity contract is pinned
//    together with the content.
//  * bench_<name>.txt — the stdout of each paper bench_* main whose output
//    is byte-stable across runs (mains that print wall times are not
//    pinned). The set of these files is the set of pinned mains. A file a
//    main writes into its working directory (fig01/fig03 write DOT graphs)
//    is compared against the golden of the same name.
//
// Each bench main runs in its own directory under the build tree, so no run
// rewrites a tracked file. On a mismatch the actual bytes are written next
// to the run as <golden>.actual; a golden may only be replaced by one of
// those, with the reason stated in CHANGES.md.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"

namespace iotls {
namespace {

namespace fs = std::filesystem;

const fs::path kGoldenDir = IOTLS_GOLDEN_DIR;
const fs::path kBenchDir = IOTLS_BENCH_DIR;
const fs::path kWorkDir = IOTLS_GOLDEN_WORK_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compare `actual` with the golden `name`; on a mismatch (or a missing
/// golden), write the actual bytes to the work directory as `name`.actual.
void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path golden = kGoldenDir / name;
  const bool exists = fs::exists(golden);
  if (exists && read_file(golden) == actual) return;
  fs::create_directories(kWorkDir);
  const fs::path dump = kWorkDir / (name + ".actual");
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << name << (exists ? " differs from its golden" : " has no golden")
                << "; actual output in " << dump;
}

// ------------------------------------------------------------- reports

void check_reports(int jobs) {
  devicesim::FleetDataset fleet =
      devicesim::generate_fleet({}, corpus::LibraryCorpus::standard(),
                                devicesim::ServerUniverse::standard());
  stream::IngestConfig config;
  config.jobs = jobs;
  config.certs = true;
  stream::StreamIngest ingest(fleet.devices, config);
  ingest.fold_epoch(fleet.events);
  for (const std::string& name : stream::report_names()) {
    auto doc = stream::render_report(name, ingest);
    ASSERT_TRUE(doc.has_value()) << name;
    expect_golden("report_" + name + ".json", doc->dump() + "\n");
  }
}

TEST(GoldenReports, DefaultFleetJobs1) { check_reports(1); }
TEST(GoldenReports, DefaultFleetJobs8) { check_reports(8); }

// --------------------------------------------------------- bench mains

/// The pinned mains: one per tests/golden/bench_*.txt, in name order.
std::vector<std::string> pinned_mains() {
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(kGoldenDir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("bench_", 0) == 0 && entry.path().extension() == ".txt") {
      out.push_back(entry.path().stem().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class GoldenBench : public testing::TestWithParam<std::string> {};

/// Run the main in an empty directory of its own: its stdout must match
/// <main>.txt, and every file it writes there must match the golden of the
/// same name.
TEST_P(GoldenBench, OutputsMatch) {
  const std::string& main = GetParam();
  const fs::path dir = kWorkDir / main;
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string cmd =
      "cd '" + dir.string() + "' && '" + (kBenchDir / main).string() + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  ASSERT_EQ(pclose(pipe), 0) << cmd;

  expect_golden(main + ".txt", out);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    expect_golden(entry.path().filename().string(), read_file(entry.path()));
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, GoldenBench, testing::ValuesIn(pinned_mains()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace iotls
