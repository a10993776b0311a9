// Tests for the live export plane: the embedded HTTP server, the Prometheus
// exposition golden file, health endpoints, the span flight recorder, the
// resource accounting gauges, the bounded work queue — and the headline
// concurrency check: scraping /metrics repeatedly while a --jobs 8
// fault-injected survey is running, then reconciling the scrape against the
// end-of-run --stats=json totals.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/interner.hpp"
#include "devicesim/scenario.hpp"
#include "exec/queue.hpp"
#include "net/fault.hpp"
#include "net/prober.hpp"
#include "obs/export_plane.hpp"
#include "obs/health.hpp"
#include "obs/http_server.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "report/obs_report.hpp"

#ifndef IOTLS_TEST_DATA_DIR
#define IOTLS_TEST_DATA_DIR "tests/data"
#endif

namespace iotls::obs {
namespace {

std::string slurp_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// ------------------------------------------------------------- golden file

TEST(PrometheusGolden, ExpositionMatchesGoldenFile) {
  Registry reg;
  reg.counter("net.probe.total").inc(7);
  // A name that needs mangling (satellite: vantage-style dashes).
  reg.counter("probe.vantage.New-York").inc(1);
  reg.counter("x509.cache.hit").inc(3);
  reg.gauge("exec.pool.queue.depth").set(2);
  reg.gauge("process.rss_bytes").set(1048576);
  Histogram& h = reg.histogram("net.probe.handshake_ns", {1000, 1000000});
  h.observe(500);
  h.observe(2000000);

  std::string text = prometheus_text(reg);
  std::string error;
  EXPECT_TRUE(validate_exposition(text, &error)) << error;

  std::string golden =
      slurp_file(std::string(IOTLS_TEST_DATA_DIR) + "/metrics_golden.txt");
  EXPECT_EQ(text, golden);
}

// ------------------------------------------------------------------ health

TEST(Health, RegistryRunsChecksSortedAndAggregates) {
  HealthRegistry reg;
  EXPECT_TRUE(reg.run(HealthKind::kLiveness).ok);  // empty registry = healthy

  reg.register_check("zeta", HealthKind::kLiveness,
                     [] { return HealthStatus::healthy("z ok"); });
  reg.register_check("alpha", HealthKind::kLiveness,
                     [] { return HealthStatus::unhealthy("broken"); });
  auto report = reg.run(HealthKind::kLiveness);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.checks.size(), 2u);
  EXPECT_EQ(report.checks[0].name, "alpha");  // name-sorted
  EXPECT_EQ(report.checks[1].name, "zeta");

  Json j = reg.to_json_value(HealthKind::kLiveness);
  EXPECT_FALSE(j.find("ok")->as_bool());
  EXPECT_EQ(j.find("checks")->find("alpha")->find("detail")->as_string(),
            "broken");

  // Replace and the verdict flips; readiness is independent.
  reg.register_check("alpha", HealthKind::kLiveness,
                     [] { return HealthStatus::healthy(); });
  EXPECT_TRUE(reg.run(HealthKind::kLiveness).ok);
  EXPECT_EQ(reg.size(HealthKind::kReadiness), 0u);

  reg.unregister("alpha", HealthKind::kLiveness);
  reg.unregister("zeta", HealthKind::kLiveness);
  EXPECT_EQ(reg.size(HealthKind::kLiveness), 0u);
}

TEST(Health, ScopedCheckUnregistersOnDestruction) {
  std::size_t before = health().size(HealthKind::kReadiness);
  {
    ScopedHealthCheck check("test.scoped", HealthKind::kReadiness,
                            [] { return HealthStatus::healthy(); });
    EXPECT_EQ(health().size(HealthKind::kReadiness), before + 1);
  }
  EXPECT_EQ(health().size(HealthKind::kReadiness), before);
}

// ------------------------------------------------------------- http server

/// Raw one-shot exchange against 127.0.0.1:port for the non-GET paths
/// http_get cannot produce.
std::string raw_http(std::uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  ::send(fd, request.data(), request.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

TEST(HttpServer, ServesRoutesOnEphemeralPort) {
  HttpServer server;
  server.handle("/ping", [](const HttpRequest& req) {
    EXPECT_EQ(req.method, "GET");
    return HttpResponse::text(200, "pong\n");
  });
  server.handle("/echo-query", [](const HttpRequest& req) {
    return HttpResponse::text(200, req.query);
  });
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  ASSERT_NE(server.port(), 0);

  std::string body;
  EXPECT_EQ(http_get(server.port(), "/ping", &body), 200);
  EXPECT_EQ(body, "pong\n");
  EXPECT_EQ(http_get(server.port(), "/echo-query?a=1&b=2", &body), 200);
  EXPECT_EQ(body, "a=1&b=2");
  EXPECT_EQ(http_get(server.port(), "/nosuch", &body), 404);
  EXPECT_GE(server.requests_served(), 3u);

  // Non-GET method and a malformed request line over the raw socket.
  std::string resp = raw_http(server.port(), "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(resp.find("405"), std::string::npos);
  resp = raw_http(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(resp.find("400"), std::string::npos);

  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(http_get(server.port(), "/ping", &body), -1);
}

TEST(ExportPlane, ServesMetricsStatsHealthAndTrace) {
  metrics().counter("test.export_plane.marker").inc(5);
  ExportPlane plane;
  std::string error;
  ASSERT_TRUE(plane.start(0, &error)) << error;

  std::string body;
  ASSERT_EQ(http_get(plane.port(), "/metrics", &body), 200);
  EXPECT_TRUE(validate_exposition(body, &error)) << error;
  EXPECT_NE(body.find("test_export_plane_marker 5\n"), std::string::npos);
  // A scrape samples the process gauges on Linux.
  EXPECT_NE(body.find("process_rss_bytes"), std::string::npos);

  ASSERT_EQ(http_get(plane.port(), "/stats", &body), 200);
  Json stats = parse_json(body);
  ASSERT_NE(stats.find("metrics"), nullptr);
  ASSERT_NE(stats.find("stages"), nullptr);
  EXPECT_EQ(stats.find("metrics")
                ->find("counters")
                ->find("test.export_plane.marker")
                ->as_int(),
            5);

  ASSERT_EQ(http_get(plane.port(), "/healthz", &body), 200);
  Json live = parse_json(body);
  EXPECT_TRUE(live.find("ok")->as_bool());
  // The plane registers its own liveness check.
  ASSERT_NE(live.find("checks")->find("obs.http"), nullptr);

  EXPECT_EQ(http_get(plane.port(), "/readyz", &body), 200);

  ASSERT_EQ(http_get(plane.port(), "/trace", &body), 200);
  Json trace = parse_json(body);
  ASSERT_NE(trace.find("traceEvents"), nullptr);

  // A failing liveness check turns /healthz into a 503 (body still JSON).
  {
    ScopedHealthCheck failing("test.failing", HealthKind::kLiveness,
                              [] { return HealthStatus::unhealthy("down"); });
    ASSERT_EQ(http_get(plane.port(), "/healthz", &body), 503);
    Json sick = parse_json(body);
    EXPECT_FALSE(sick.find("ok")->as_bool());
    EXPECT_EQ(sick.find("checks")->find("test.failing")->find("detail")->as_string(),
              "down");
  }
  EXPECT_EQ(http_get(plane.port(), "/healthz", &body), 200);

  // /quitquitquit releases wait_for_shutdown.
  EXPECT_FALSE(plane.wait_for_shutdown(10));
  EXPECT_EQ(http_get(plane.port(), "/quitquitquit", &body), 200);
  EXPECT_TRUE(plane.wait_for_shutdown(1000));
  plane.stop();
}

// ---------------------------------------------------------- trace recorder

TEST(TraceRecorder, RecordsNestedSpansWithParentsAndThreads) {
  TraceRecorder& rec = recorder();
  rec.enable();
  rec.reset();
  {
    TraceSpan outer("outer");
    ASSERT_TRUE(outer.active());
    outer.detail("sni=cam.example.com");
    {
      TraceSpan inner("inner");
      (void)inner;
    }
  }
  std::thread worker([] { TraceSpan span("worker.span"); });
  worker.join();
  // StageTracer spans feed the recorder too.
  {
    auto span = tracer().span("stage.traced");
    span.add_items(3);
    span.fail("boom");
  }

  auto events = rec.events();
  rec.disable();
  ASSERT_EQ(events.size(), 4u);

  const TraceEvent *outer_ev = nullptr, *inner_ev = nullptr,
                   *worker_ev = nullptr, *stage_ev = nullptr;
  for (const auto& ev : events) {
    if (ev.name == "outer") outer_ev = &ev;
    if (ev.name == "inner") inner_ev = &ev;
    if (ev.name == "worker.span") worker_ev = &ev;
    if (ev.name == "stage.traced") stage_ev = &ev;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  ASSERT_NE(worker_ev, nullptr);
  ASSERT_NE(stage_ev, nullptr);

  EXPECT_EQ(outer_ev->parent, 0u);  // root on its thread
  EXPECT_EQ(inner_ev->parent, outer_ev->id);
  EXPECT_EQ(outer_ev->detail, "sni=cam.example.com");
  EXPECT_NE(worker_ev->tid, outer_ev->tid);
  EXPECT_EQ(worker_ev->parent, 0u);
  EXPECT_EQ(stage_ev->items, 3u);
  EXPECT_EQ(stage_ev->failures, 1u);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner_ev->start_ns, outer_ev->start_ns);
  EXPECT_LE(inner_ev->start_ns + inner_ev->dur_ns,
            outer_ev->start_ns + outer_ev->dur_ns);
}

TEST(TraceRecorder, ChromeTraceJsonIsLoadable) {
  TraceRecorder& rec = recorder();
  rec.enable();
  rec.reset();
  {
    TraceSpan a("alpha");
    TraceSpan b("beta");
    (void)a;
    (void)b;
  }
  Json doc = rec.chrome_trace_json();
  rec.disable();

  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const auto& events = doc.find("traceEvents")->as_array();
  // Metadata record plus the two spans.
  ASSERT_GE(events.size(), 3u);
  bool saw_meta = false, saw_alpha = false;
  for (const auto& ev : events) {
    const Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") {
      saw_meta = true;
      continue;
    }
    EXPECT_EQ(ph->as_string(), "X");
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("dur"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    if (ev.find("name")->as_string() == "alpha") saw_alpha = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_alpha);
}

TEST(TraceRecorder, WritesFileAndBoundsCapacity) {
  TraceRecorder& rec = recorder();
  rec.enable();
  rec.reset();
  rec.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("bounded");
    (void)span;
  }
  EXPECT_EQ(rec.events().size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);

  std::string path = ::testing::TempDir() + "iotls_trace_test.json";
  std::string error;
  ASSERT_TRUE(rec.write_chrome_trace(path, &error)) << error;
  Json re = parse_json(slurp_file(path));
  EXPECT_GE(re.find("traceEvents")->as_array().size(), 4u);
  std::remove(path.c_str());

  EXPECT_FALSE(rec.write_chrome_trace("/nonexistent-dir/x/y.json", &error));
  EXPECT_FALSE(error.empty());

  rec.set_capacity(1u << 20);
  rec.reset();
  rec.disable();
  // Disabled spans are inert and record nothing.
  {
    TraceSpan span("off");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(rec.events().empty());
}

// -------------------------------------------------------- resource gauges

TEST(Resource, ParsesProcStatusFormat) {
  ProcMemory mem = parse_proc_status(
      "Name:\tiotls_probe\n"
      "VmRSS:\t  123456 kB\n"
      "VmHWM:\t  234567 kB\n"
      "Threads:\t9\n");
  EXPECT_EQ(mem.rss_bytes, 123456u * 1024u);
  EXPECT_EQ(mem.rss_peak_bytes, 234567u * 1024u);
  EXPECT_EQ(mem.threads, 9u);
  // Missing fields zero-initialize.
  EXPECT_EQ(parse_proc_status("Name: x\n").rss_bytes, 0u);
}

TEST(Resource, SamplesProcessGaugesOnLinux) {
  Registry reg;
  sample_process_gauges(reg);
  // This test suite runs on Linux, where /proc/self/status is live.
  EXPECT_GT(reg.gauge("process.rss_bytes").value(), 0);
  EXPECT_GE(reg.gauge("process.rss_peak_bytes").value(),
            reg.gauge("process.rss_bytes").value());
  EXPECT_GE(reg.gauge("process.threads").value(), 1);
}

TEST(Resource, ArenaTracksBytesPeakAndAllocations) {
  Registry reg;
  ArenaAccount arena("test_arena", reg);
  arena.allocate(100);
  arena.allocate(50);
  arena.release(120);
  EXPECT_EQ(arena.bytes(), 30u);
  EXPECT_EQ(arena.peak_bytes(), 150u);
  EXPECT_EQ(arena.allocations(), 2u);
  EXPECT_EQ(reg.gauge("mem.arena.test_arena.bytes").value(), 30);
  EXPECT_EQ(reg.gauge("mem.arena.test_arena.peak_bytes").value(), 150);
  EXPECT_EQ(reg.gauge("mem.arena.test_arena.allocations").value(), 2);
  // Over-release clamps at zero instead of wrapping.
  arena.release(1000);
  EXPECT_EQ(arena.bytes(), 0u);
  EXPECT_EQ(arena.peak_bytes(), 150u);
}

TEST(Resource, InternerGrowthShowsUpInArena) {
  std::uint64_t before = interner_arena().allocations();
  core::Interner interner;
  interner.intern("resource-test-unique-string");
  interner.intern("resource-test-unique-string");  // duplicate: no new growth
  EXPECT_EQ(interner_arena().allocations(), before + 1);
}

// ------------------------------------------------------------- work queue

TEST(WorkQueue, AppliesBackpressureByRejecting) {
  exec::WorkQueue queue("test_backpressure", 1, 2);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};

  // Occupy the single worker so submissions stack up in the queue.
  ASSERT_TRUE(queue.try_submit([&] {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++ran;
  }));
  // Wait for the worker to take the blocking task off the queue.
  for (int i = 0; i < 1000 && queue.depth() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.try_submit([&] { ++ran; }));
  ASSERT_TRUE(queue.try_submit([&] { ++ran; }));
  // Queue now holds 2 == capacity; the next submit is shed.
  EXPECT_FALSE(queue.try_submit([&] { ++ran; }));
  EXPECT_EQ(queue.rejected(), 1u);

  release = true;
  queue.stop();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(queue.accepted(), 3u);
  // Stopped queues reject everything.
  EXPECT_FALSE(queue.try_submit([] {}));
}

TEST(WorkQueue, SwallowsThrowingTasks) {
  std::uint64_t before =
      metrics().counter("exec.workqueue.test_throws.task_errors").value();
  {
    exec::WorkQueue queue("test_throws", 1, 4);
    ASSERT_TRUE(queue.try_submit([] { throw std::runtime_error("boom"); }));
    queue.stop();
  }
  EXPECT_EQ(metrics().counter("exec.workqueue.test_throws.task_errors").value(),
            before + 1);
}

// ----------------------------------------- scrape during a parallel survey
//
// The headline concurrency test: run a --jobs 8 fault-injected survey over
// a deliberately slowed internet while hammering /metrics and /healthz from
// scraper threads. Every scrape must be a valid exposition document, and
// once the survey joins, the scraped counters must equal the --stats=json
// totals (same registry, so equality is exact).

/// Decorator that adds real wall-clock latency to every connect, so the
/// survey genuinely overlaps the scrapers.
class SlowInternet final : public net::Internet {
 public:
  SlowInternet(const net::Internet& inner, std::chrono::microseconds delay)
      : inner_(inner), delay_(delay) {}
  net::ConnectResult connect(net::VantagePoint vantage, net::AddressFamily family,
                             BytesView client_records) const override {
    std::this_thread::sleep_for(delay_);
    return inner_.connect(vantage, family, client_records);
  }

 private:
  const net::Internet& inner_;
  std::chrono::microseconds delay_;
};

TEST(ScrapeConcurrency, MetricsStayValidDuringParallelFaultSurvey) {
  auto universe = devicesim::ServerUniverse::standard();
  devicesim::SimWorld world = devicesim::build_world(universe);

  net::VirtualClock clock;
  net::FaultSpec spec = net::FaultSpec::parse("seed=11,timeout=0.1,reset=0.05");
  net::FaultInjector injector(world.internet, spec, &clock);
  SlowInternet slow(injector, std::chrono::microseconds(1000));

  net::TlsProber prober(slow);
  prober.set_clock(&clock);
  prober.set_jobs(8);

  std::vector<std::string> snis;
  for (const devicesim::ServerSpec& s : universe.specs()) snis.push_back(s.fqdn);

  ExportPlane plane;
  std::string error;
  ASSERT_TRUE(plane.start(0, &error)) << error;

  std::atomic<bool> done{false};
  net::SurveyReport report;
  std::thread survey([&] {
    report = prober.survey_report(snis);
    done = true;
  });

  // Two scraper threads: one on /metrics (validating every exposition), one
  // alternating /healthz + /stats (both must stay parseable JSON).
  std::atomic<int> scrapes{0};
  std::atomic<int> scrape_failures{0};
  std::thread scraper_metrics([&] {
    while (!done.load()) {
      std::string body;
      int status = http_get(plane.port(), "/metrics", &body);
      if (status != 200 && status != 503) {
        ++scrape_failures;
        continue;
      }
      if (status == 200) {
        std::string verr;
        if (!validate_exposition(body, &verr)) {
          ++scrape_failures;
          ADD_FAILURE() << "invalid exposition mid-survey: " << verr;
        }
      }
      ++scrapes;
    }
  });
  std::thread scraper_health([&] {
    bool flip = false;
    while (!done.load()) {
      std::string body;
      int status = http_get(plane.port(), flip ? "/healthz" : "/stats", &body);
      if (status == 200 || status == 503) {
        EXPECT_NO_THROW(parse_json(body));
      }
      flip = !flip;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  survey.join();
  scraper_metrics.join();
  scraper_health.join();

  EXPECT_GT(scrapes.load(), 0) << "survey finished before a single scrape";
  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(report.results.size(), snis.size());

  // Post-run parity: one final scrape must agree exactly with the registry
  // (and hence with what --stats=json would print from it).
  std::string body;
  ASSERT_EQ(http_get(plane.port(), "/metrics", &body), 200);
  std::uint64_t total = metrics().counter("net.probe.total").value();
  std::string needle = "net_probe_total " + std::to_string(total) + "\n";
  EXPECT_NE(body.find(needle), std::string::npos)
      << "scrape disagrees with registry: wanted '" << needle << "'";

  Json stats = parse_json(report::stats_json(obs::metrics(), obs::tracer()));
  EXPECT_EQ(static_cast<std::uint64_t>(stats.find("metrics")
                                           ->find("counters")
                                           ->find("net.probe.total")
                                           ->as_int()),
            total);
  plane.stop();
}

// ------------------------------------------------------- EINTR resilience

void noop_signal_handler(int) {}

/// Installs a SIGUSR1 handler *without* SA_RESTART for the test's scope, so
/// blocking send/recv calls interrupted by the signal really return EINTR
/// instead of being transparently restarted by the kernel.
struct ScopedSigusr1 {
  struct sigaction old {};
  ScopedSigusr1() {
    struct sigaction sa {};
    sa.sa_handler = noop_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGUSR1, &sa, &old);
  }
  ~ScopedSigusr1() { sigaction(SIGUSR1, &old, nullptr); }
};

TEST(HttpIo, SendAllRetriesAcrossEintr) {
  ScopedSigusr1 guard;
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int small = 4096;
  setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  // A payload far larger than the send buffer, so the writer spends most of
  // the test blocked in send() — where the signals land.
  const std::size_t total = 4 * 1024 * 1024;
  std::string payload(total, 'x');
  std::atomic<bool> writer_done{false};
  bool sent = false;
  std::thread writer([&] {
    sent = detail::send_all(sv[0], payload);
    writer_done.store(true, std::memory_order_release);
  });

  std::string received;
  char buf[8192];
  while (received.size() < total) {
    if (!writer_done.load(std::memory_order_acquire)) {
      pthread_kill(writer.native_handle(), SIGUSR1);
    }
    ssize_t n = ::recv(sv[1], buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    received.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  EXPECT_TRUE(sent);
  EXPECT_EQ(received.size(), total);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(HttpIo, ReadRequestRetriesAcrossEintr) {
  ScopedSigusr1 guard;
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::string request;
  std::thread reader([&] { request = detail::read_http_request(sv[1], 8 * 1024); });

  // Drip the request across several writes, signalling the reader between
  // them while it blocks in recv() waiting for the header terminator.
  const std::string wire = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  for (std::size_t off = 0; off < wire.size(); off += 8) {
    for (int i = 0; i < 4; ++i) {
      pthread_kill(reader.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::size_t len = std::min<std::size_t>(8, wire.size() - off);
    ASSERT_EQ(::send(sv[0], wire.data() + off, len, 0),
              static_cast<ssize_t>(len));
  }
  reader.join();
  EXPECT_EQ(request, wire) << "a signal mid-read dropped request bytes";
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(HttpServer, SlowWritingClientGetsCompleteMetricsBody) {
  metrics().counter("test.slow_client.marker").inc(41);
  ExportPlane plane;
  ASSERT_TRUE(plane.start(0));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(plane.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Trickle the request a few bytes at a time — a congested or misbehaving
  // scraper — staying inside the server's per-connection receive timeout.
  const std::string wire =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  for (std::size_t off = 0; off < wire.size(); off += 4) {
    std::size_t len = std::min<std::size_t>(4, wire.size() - off);
    ASSERT_EQ(::send(fd, wire.data() + off, len, 0), static_cast<ssize_t>(len));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  ASSERT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << raw.substr(0, 64);
  std::size_t sep = raw.find("\r\n\r\n");
  ASSERT_NE(sep, std::string::npos);
  std::string headers = raw.substr(0, sep);
  std::string body = raw.substr(sep + 4);
  // The advertised length must match the delivered body exactly: a short
  // write (or an EINTR treated as fatal) would truncate the exposition.
  std::size_t cl = headers.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoul(headers.substr(cl + 16)), body.size());
  EXPECT_NE(body.find("test_slow_client_marker 41"), std::string::npos);
  plane.stop();
}

}  // namespace
}  // namespace iotls::obs
