// The tools' shared argument handling: the one bounded integer parser
// behind `--jobs=`, `--retries=`, `--breaker=`, `--users=` and
// `--battery=`, `iotls_probe`'s unsigned 64-bit flags, and
// `iotls_audit --report=NAME` rejecting an unknown name before it reads any
// input, and serving paper entries over a fleet exported by iotlsd.
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs_cli.hpp"
#include "stream/reports.hpp"

namespace iotls::tools {
namespace {

TEST(ParseJobs, AcceptsZeroToTheCap) {
  int jobs = -1;
  EXPECT_TRUE(parse_int_flag("--jobs=", "0", kMaxJobs, &jobs));
  EXPECT_EQ(jobs, 0);
  EXPECT_TRUE(parse_int_flag("--jobs=", "8", kMaxJobs, &jobs));
  EXPECT_EQ(jobs, 8);
  EXPECT_TRUE(
      parse_int_flag("--jobs=", std::to_string(kMaxJobs).c_str(), kMaxJobs, &jobs));
  EXPECT_EQ(jobs, static_cast<int>(kMaxJobs));
}

TEST(ParseJobs, RejectsValuesThatUsedToWrapOrGoNegative) {
  // Parsing only: a rejected value never reaches a pool, so no thread starts.
  int jobs = 3;
  for (const char* value :
       {"4294967297", "3000000000", "18446744073709551616", "1025", "-1", "+2",
        " 2", "2x", ""}) {
    EXPECT_FALSE(parse_int_flag("--jobs=", value, kMaxJobs, &jobs)) << "'" << value << "'";
    EXPECT_EQ(jobs, 3) << "'" << value << "'";
  }
}

/// Every bounded integer flag, with its cap.
struct BoundedFlag {
  const char* flag;
  unsigned long long max;
};
constexpr BoundedFlag kBoundedFlags[] = {{"--jobs=", kMaxJobs},
                                         {"--retries=", kMaxRetries},
                                         {"--breaker=", kMaxBreaker},
                                         {"--users=", kMaxUsers}};

TEST(ParseIntFlag, EveryCapFitsAnInt) {
  for (const BoundedFlag& f : kBoundedFlags) {
    int out = -1;
    EXPECT_LE(f.max, static_cast<unsigned long long>(INT32_MAX)) << f.flag;
    EXPECT_TRUE(parse_int_flag(f.flag, std::to_string(f.max).c_str(), f.max, &out))
        << f.flag;
    EXPECT_EQ(out, static_cast<int>(f.max)) << f.flag;
    EXPECT_FALSE(parse_int_flag(f.flag, std::to_string(f.max + 1).c_str(), f.max, &out))
        << f.flag;
  }
}

TEST(ParseIntFlag, RejectsValuesAnIntCastWouldWrap) {
  // 2^31 turns negative through an int cast; 2^32 and 2^32+1 wrap to 0 and
  // 1 (`--retries=4294967297` used to mean `--retries=1`).
  for (const BoundedFlag& f : kBoundedFlags) {
    for (const char* value : {"2147483648", "4294967296", "4294967297"}) {
      int out = 5;
      EXPECT_FALSE(parse_int_flag(f.flag, value, f.max, &out)) << f.flag << value;
      EXPECT_EQ(out, 5) << f.flag << value;
    }
  }
}

/// Run `cmd` with stderr folded into stdout (or left on the test's own
/// stderr); returns the exit status.
int run(const std::string& cmd, std::string* out, bool fold_stderr = true) {
  FILE* pipe = popen((fold_stderr ? cmd + " 2>&1" : cmd).c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out->append(buf, n);
  }
  int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(AuditCli, UnknownReportFailsBeforeReadingInput) {
  // The CSV paths do not exist: reaching the import would fail with
  // "cannot open" and exit 1 instead.
  std::string out;
  int status = run(std::string(IOTLS_TOOLS_DIR) +
                       "/iotls_audit --report=bogus /nonexistent/events.csv "
                       "/nonexistent/devices.csv",
                   &out);
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("unknown report: bogus"), std::string::npos) << out;
  for (const auto* names : {&stream::report_names(), &stream::text_report_names()}) {
    for (const std::string& name : *names) {
      EXPECT_NE(out.find(" " + name), std::string::npos) << name << " not listed: " << out;
    }
  }
  EXPECT_EQ(out.find("cannot open"), std::string::npos) << out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AuditCli, PaperEntriesOverTheExportedFleetMatchTheirGoldens) {
  // The default fleet exported the way the paper's artifact is released,
  // then read back by iotls_audit: a certs entry prints its golden, and a
  // figure also writes its DOT golden into the working directory.
  namespace fs = std::filesystem;
  const std::string tools = IOTLS_TOOLS_DIR;
  const fs::path golden = IOTLS_GOLDEN_DIR;
  const fs::path dir = fs::path(IOTLS_CLI_WORK_DIR) / "paper";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cd = "cd '" + dir.string() + "' && " + tools;
  std::string log;
  ASSERT_EQ(run(cd + "/iotlsd --export-fleet=paper --wire", &log), 0) << log;
  for (const std::string name : {"table07_invalid_chains", "fig01_vendor_graph"}) {
    std::string out;
    EXPECT_EQ(run(cd + "/iotls_audit --report=" + name +
                      " paper-events.csv paper-devices.csv",
                  &out, false),
              0);
    EXPECT_EQ(out, read_file(golden / ("paper_" + name + ".txt"))) << name;
  }
  EXPECT_EQ(read_file(dir / "fig01_vendor_graph.dot"),
            read_file(golden / "fig01_vendor_graph.dot"));
}

TEST(ToolCli, WrappingIntegerFlagsExitTwoBeforeAnyWork) {
  // Each tool parses its flags before touching input or the network, so a
  // rejected value exits 2 without starting a survey or building a fleet.
  const std::string tools = IOTLS_TOOLS_DIR;
  struct Case {
    std::string command;
    const char* flag;
  };
  for (const char* value : {"2147483648", "4294967296", "4294967297"}) {
    const std::string v = value;
    for (const Case& c : {
             Case{tools + "/iotls_probe --retries=" + v + " a2.tuyaus.com", "--retries="},
             Case{tools + "/iotls_probe --breaker=" + v + " a2.tuyaus.com", "--breaker="},
             Case{tools + "/iotls_probe --jobs=" + v + " a2.tuyaus.com", "--jobs="},
             Case{tools + "/iotlsd --export-fleet=/nonexistent/fleet --users=" + v,
                  "--users="},
             Case{tools + "/iotlsd --jobs=" + v + " /nonexistent/events.csv "
                  "/nonexistent/devices.csv", "--jobs="},
         }) {
      std::string out;
      EXPECT_EQ(run(c.command, &out), 2) << c.command << ": " << out;
      EXPECT_NE(out.find(std::string(c.flag) + " wants an integer"), std::string::npos)
          << c.command << ": " << out;
    }
  }
}

TEST(ProbeCli, BatterySizeOutsideTheBatteryIsAnAttributedError) {
  // K must name a prefix of the 10-probe battery: 0 and 11 used to be
  // rejected and silently clamped, and -1 wrapped to 2^64-1 (all probes).
  const std::string probe = std::string(IOTLS_TOOLS_DIR) + "/iotls_probe";
  for (const char* value : {"0", "11", "-1", "+3", "18446744073709551617", "3x", ""}) {
    std::string out;
    const std::string command = probe + " --battery=" + value + " a2.tuyaus.com";
    EXPECT_EQ(run(command, &out), 2) << command << ": " << out;
    EXPECT_NE(out.find("--battery= wants an integer"), std::string::npos)
        << command << ": " << out;
  }
  for (const char* value : {"1", "10"}) {
    std::string out;
    const std::string command = probe + " --battery=" + value + " a2.tuyaus.com";
    EXPECT_EQ(run(command, &out), 0) << command << ": " << out;
    EXPECT_NE(out.find("battery: " + std::string(value) + " probes"), std::string::npos)
        << command << ": " << out;
  }
}

TEST(ProbeCli, SignedU64FlagsAreRejectedNotWrapped) {
  const std::string probe = std::string(IOTLS_TOOLS_DIR) + "/iotls_probe";
  for (const char* flag : {"--backoff-ms=", "--retry-budget="}) {
    for (const char* value : {"-1", "-0", "+5", " 5", "18446744073709551616"}) {
      std::string out;
      const std::string command =
          probe + " '" + flag + value + "' a2.tuyaus.com";
      EXPECT_EQ(run(command, &out), 2) << command << ": " << out;
      EXPECT_NE(out.find(std::string(flag) + " wants a non-negative integer"),
                std::string::npos)
          << command << ": " << out;
    }
    std::string out;
    const std::string command =
        probe + " " + flag + "18446744073709551615 --battery=1 a2.tuyaus.com";
    EXPECT_EQ(run(command, &out), 0) << command << ": " << out;
  }
}

TEST(AuditCli, OversizedJobsIsAnAttributedError) {
  std::string out;
  int status = run(std::string(IOTLS_TOOLS_DIR) +
                       "/iotls_audit --jobs=4294967297 /nonexistent/events.csv "
                       "/nonexistent/devices.csv",
                   &out);
  EXPECT_EQ(status, 2) << out;
  EXPECT_NE(out.find("--jobs="), std::string::npos) << out;
}

}  // namespace
}  // namespace iotls::tools
