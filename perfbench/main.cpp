// iotls_perfbench: end-to-end and per-layer benchmark of the iotls
// streaming pipeline, driven in-process through public library calls only.
//
//   iotls_perfbench --workload paper_daemon|fleet_stream|battery_faults
//                   --seed N --seconds S --trace 0|1 --work-dir DIR [--smoke]
//
// perfbench/README.md describes each workload and metric. A process
// generates its inputs from the seed (untimed), runs one warm-up pass through
// the workload's reference path, then runs timed closed-loop passes: each
// epoch is handed over only after the previous fold and its reports
// complete. Every timed pass must reproduce the reference's report bytes and
// keep as many events; otherwise the run exits 1.
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves untraced
// passes with traced ones (spans recorded in memory around each public call,
// written to DIR/trace-<workload>-<seed>.json at exit), replays the traced
// epochs through ClientDataset::{append_events,finalize} and
// CertDataset::collect to split the fold, and prints the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/dataset.hpp"
#include "corpus/corpus.hpp"
#include "devicesim/export.hpp"
#include "devicesim/fleet.hpp"
#include "devicesim/scenario.hpp"
#include "fleetio/snapshot.hpp"
#include "net/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"
#include "x509/validation.hpp"

namespace {

using namespace iotls;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/perfbench";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "iotls_perfbench: " << why << "\n"
            << "usage: iotls_perfbench --workload paper_daemon|fleet_stream|"
               "battery_faults --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--smoke]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--work-dir") o.work_dir = value();
      else if (arg == "--smoke") o.smoke = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------- spans

/// In-memory span recorder. Spans nest through an explicit stack; each
/// carries the pass id and epoch id it belongs to.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;  // report name for stream.render / obs.dump
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int pass = -1;
    int epoch = -1;
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void begin(std::string name, int pass, int epoch, std::string detail = {}) {
    Span s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.pass = pass;
    s.epoch = epoch;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    obs::Json::Array out;
    for (const Span& s : spans_) {
      out.emplace_back(obs::Json::Object{
          {"name", s.name}, {"detail", s.detail},
          {"start_ns", s.start_ns}, {"end_ns", s.end_ns},
          {"parent", s.parent}, {"pass", s.pass}, {"epoch", s.epoch}});
    }
    std::ofstream(path) << obs::Json(std::move(out)).dump() << "\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call; records a span when a tracer is attached.
template <typename F>
auto timed(Tracer* tracer, const char* name, int pass, int epoch,
           double* ms_out, F&& fn, std::string detail = {}) {
  if (tracer != nullptr) tracer->begin(name, pass, epoch, std::move(detail));
  struct Close {
    Tracer* tracer;
    double* ms_out;
    Clock::time_point t0;
    ~Close() {
      if (ms_out != nullptr) *ms_out += ms_between(t0, Clock::now());
      if (tracer != nullptr) tracer->end();
    }
  } close{tracer, ms_out, Clock::now()};
  return fn();
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Samples a nearest-rank percentile needs so that >= 10 lie beyond it.
std::size_t samples_for_tail(double p) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p) - 1e-9));
}

double share(double num, double den) { return den > 0 ? num / den : 1.0; }

/// Peak resident set size of this process, from /proc/self/status.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Return freed heap to the OS and restart the kernel's peak-RSS counter
/// (Linux >= 4.0), so the next reading covers one timed pass, not the input
/// generation, the reference pass or earlier passes. Returns false when the
/// kernel refuses; readings then cover the whole process.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// ---------------------------------------------------------------- counters

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "core.dataset.events_parsed", "net.probe.attempts",
      "net.probe.retry",            "net.probe.skipped.breaker",
      "net.fingerprint.probes",     "x509.cache.hit",
      "x509.cache.miss",            "exec.pool.shards",
  };
  return names;
}

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const std::string& name : counter_names()) {
    out[name] = static_cast<double>(obs::metrics().counter(name).value());
  }
  return out;
}

// ---------------------------------------------------------------- workloads

enum class Kind { kPaperDaemon, kFleetStream, kBatteryFaults };

struct Workload {
  Kind kind;
  std::string name;
  std::vector<std::string> reports;  // rendered after every epoch
  stream::IngestConfig config;
  stream::IngestConfig reference_config;
  std::size_t epochs = 1;        // paper_daemon / battery_faults slicing
  std::size_t chunk_events = 0;  // fleet_stream chunking
};

Workload make_workload(const Options& o) {
  Workload w;
  w.name = o.workload;
  if (o.workload == "paper_daemon") {
    w.kind = Kind::kPaperDaemon;
    w.reports = {"table02", "table03", "table04", "table05",
                 "certs",   "chains",  "issuers", "ct"};
    w.config.certs = true;
    w.config.jobs = 1;
    w.reference_config = w.config;
    w.epochs = o.smoke ? 4 : 40;
  } else if (o.workload == "fleet_stream") {
    w.kind = Kind::kFleetStream;
    w.reports = {"table02", "table03", "table04", "table05"};
    w.config.jobs = 2;
    w.config.retain_events = false;
    w.reference_config = w.config;
    w.chunk_events = o.smoke ? 1024 : 16384;
  } else if (o.workload == "battery_faults") {
    w.kind = Kind::kBatteryFaults;
    w.reports = {"stacks", "dualstack"};
    w.config.certs = true;
    w.config.jobs = 2;
    w.config.fault = net::FaultSpec::parse(
        "seed=" + std::to_string(o.seed) + ",timeout=0.2,reset=0.05");
    w.reference_config = w.config;
    w.reference_config.jobs = 1;
    // Events are permuted (make_inputs). The first two epochs battery most
    // SNIs; at 32 epochs they are 6% of the samples, so refresh_ms_p90 lies
    // in the smooth top of the others rather than on a cluster's edge.
    w.epochs = o.smoke ? 2 : 32;
  } else {
    usage("unknown workload " + o.workload);
  }
  return w;
}

/// Inputs as handed to the program: the exported CSV pair for the paper
/// workloads, a snapshot file for fleet_stream.
struct Inputs {
  std::string events_csv;
  std::string devices_csv;
  std::string snapshot_path;
  std::size_t events = 0;
  std::size_t distinct_wires = 0;
};

std::size_t count_distinct_wires(const devicesim::FleetDataset& fleet) {
  std::unordered_set<std::string> seen;
  for (const devicesim::ClientHelloEvent& ev : fleet.events) {
    seen.emplace(ev.wire.begin(), ev.wire.end());
  }
  return seen.size();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Fisher-Yates over splitmix64: the same order for a seed on every platform.
void permute_events(std::vector<devicesim::ClientHelloEvent>& events,
                    std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = events.size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(events[i - 1], events[j]);
  }
}

Inputs make_inputs(const Options& o, const Workload& w) {
  Inputs in;
  if (w.kind == Kind::kFleetStream) {
    // generate_synthetic_fleet has no RNG; the seed permutes event order.
    devicesim::SyntheticFleetSpec spec;
    spec.devices = o.smoke ? 2000 : 100000;
    spec.events_per_device = 2;
    devicesim::FleetDataset fleet = devicesim::generate_synthetic_fleet(spec);
    permute_events(fleet.events, o.seed);
    in.events = fleet.events.size();
    in.distinct_wires = count_distinct_wires(fleet);
    in.snapshot_path = o.work_dir + "/fleet_stream-" + std::to_string(o.seed) +
                       (o.smoke ? "-smoke" : "") + ".iotlsnap";
    fleetio::write_snapshot(fleet, in.snapshot_path);
    return in;
  }

  devicesim::FleetConfig config;
  config.seed = o.seed;
  devicesim::FleetDataset fleet = devicesim::generate_fleet(
      config, corpus::LibraryCorpus::standard(),
      devicesim::ServerUniverse::standard());
  if (o.smoke) fleet.events.resize(fleet.events.size() / 40);
  // generate_fleet emits the SNIs no device has reached yet as a block at
  // the end, so contiguous epochs of its order end in one ~2.5x epoch that
  // alone decides refresh_ms_p90. Permuted, new SNIs thin out smoothly.
  if (w.kind == Kind::kBatteryFaults) permute_events(fleet.events, o.seed);
  devicesim::ExportOptions opts;
  opts.include_wire = true;
  in.events_csv = devicesim::export_events_csv(fleet, opts);
  in.devices_csv = devicesim::export_devices_csv(fleet, opts);
  in.events = fleet.events.size();
  in.distinct_wires = count_distinct_wires(fleet);
  return in;
}

/// Contiguous slices, the last absorbing the remainder (ReplaySource's
/// split). Moves the events out of `events`.
std::vector<std::vector<devicesim::ClientHelloEvent>> slice_epochs(
    std::vector<devicesim::ClientHelloEvent>& events, std::size_t epochs) {
  epochs = std::clamp<std::size_t>(epochs, 1, std::max<std::size_t>(events.size(), 1));
  std::size_t per = events.size() / epochs;
  std::vector<std::vector<devicesim::ClientHelloEvent>> out(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    auto begin = events.begin() + static_cast<std::ptrdiff_t>(e * per);
    auto end = e + 1 == epochs ? events.end()
                               : begin + static_cast<std::ptrdiff_t>(per);
    out[e].assign(std::make_move_iterator(begin), std::make_move_iterator(end));
  }
  events.clear();
  return out;
}

// ---------------------------------------------------------------- passes

/// What one pass measured and produced.
struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  double fold_total_ms = 0;
  std::vector<double> fold_ms;     // per epoch
  std::vector<double> refresh_ms;  // per epoch: [decode +] fold + reports
  double peak_rss_mb = 0;          // VmHWM over this pass alone
  std::size_t events_offered = 0;
  std::size_t events_kept = 0;
  std::size_t snis_extracted = 0;
  std::size_t snis_reachable = 0;
  std::uint64_t battery_sent = 0;
  std::uint64_t battery_answered = 0;
  std::uint64_t battery_attempts = 0;  // connection attempts incl. retries
  std::uint64_t battery_retries = 0;
  std::uint64_t battery_skipped = 0;   // denied by an open breaker
  std::vector<std::string> final_reports;  // dumped bytes after the last epoch
  std::map<std::string, double> counters;  // deltas over the pass
  // Dataset shape, for checking the decomposed replay against the ingest.
  std::vector<std::size_t> shape;
};

std::vector<std::size_t> client_shape(const core::ClientDataset& c) {
  const core::DatasetIndex& ix = c.index();
  return {c.events().size(),   c.dropped_events(), ix.vendors().size(),
          ix.devices().size(), ix.types().size(),  ix.users().size(),
          ix.snis().size(),    ix.fps().size()};
}

void append_cert_shape(const core::CertDataset& d, std::vector<std::size_t>& s) {
  const core::CertIndex& ix = d.index();
  for (std::size_t v : {d.records().size(), d.leaves().size(), d.extracted_snis(),
                        d.reachable_snis(), std::size_t{ix.snis().size()},
                        std::size_t{ix.devices().size()}, std::size_t{ix.vendors().size()},
                        std::size_t{ix.ips().size()}, std::size_t{ix.issuers().size()},
                        std::size_t{ix.fps().size()}}) {
    s.push_back(v);
  }
}

class Bench {
 public:
  Bench(Workload w, Inputs in) : w_(std::move(w)), in_(std::move(in)) {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// The reference path: a cold single-epoch fold (paper_daemon over the
  /// imported CSV, fleet_stream over SnapshotReader::load(), battery_faults
  /// at jobs=1), reports rendered once.
  PassResult reference(int pass_id) {
    Tracer* t = tracer_;
    PassResult r;
    if (t != nullptr) t->begin("reference", pass_id, -1);
    devicesim::FleetDataset fleet;
    double fold_ms = 0;
    if (w_.kind == Kind::kFleetStream) {
      fleetio::SnapshotReader reader = timed(t, "fleetio.open", pass_id, -1, nullptr,
          [&] { return fleetio::SnapshotReader::open(in_.snapshot_path); });
      fleet = timed(t, "fleetio.load", pass_id, -1, nullptr,
                    [&] { return reader.load(w_.config.jobs); });
    } else {
      fleet = timed(t, "devicesim.import", pass_id, -1, nullptr, [&] {
        return devicesim::import_events_csv(in_.events_csv, in_.devices_csv);
      });
    }
    stream::StreamIngest ingest = construct(fleet.devices, w_.reference_config, pass_id);
    timed(t, "stream.fold_epoch", pass_id, 0, &fold_ms,
          [&] { return ingest.fold_epoch(fleet.events); });
    r.fold_ms.push_back(fold_ms);
    r.fold_total_ms = fold_ms;
    if (w_.kind == Kind::kBatteryFaults) {
      timed(t, "net.battery", pass_id, 0, nullptr, [&] { return &ingest.stacks(); });
    }
    r.final_reports = render_all(ingest, pass_id, 0);
    if (t != nullptr) t->end();
    record_outcome(ingest, r);
    return r;
  }

  /// One timed pass of the workload.
  PassResult pass(int pass_id) {
    PassResult r;
    std::map<std::string, double> before = read_counters();
    auto t0 = Clock::now();
    if (tracer_ != nullptr) tracer_->begin("pass", pass_id, -1);
    EpochFeed feed = open_feed(pass_id);
    stream::StreamIngest ingest = construct(std::move(feed.devices), w_.config, pass_id);
    r.setup_s = ms_between(t0, Clock::now()) / 1e3;
    for_each_epoch(feed, pass_id, [&](const std::vector<devicesim::ClientHelloEvent>& events,
                                      int epoch, Clock::time_point arrived) {
      fold(ingest, events, pass_id, epoch, r);
      if (w_.kind == Kind::kBatteryFaults) {
        // The battery is run explicitly, so rendering never times it.
        timed(tracer_, "net.battery", pass_id, epoch, nullptr,
              [&] { return &ingest.stacks(); });
      }
      r.final_reports = render_all(ingest, pass_id, epoch);
      r.refresh_ms.push_back(ms_between(arrived, Clock::now()));
    });
    if (tracer_ != nullptr) tracer_->end();
    r.wall_s = ms_between(t0, Clock::now()) / 1e3;
    std::map<std::string, double> after = read_counters();
    for (const auto& [name, value] : after) r.counters[name] = value - before.at(name);
    record_outcome(ingest, r);
    return r;
  }

  /// Replays the epochs of one pass through the layers fold_epoch calls,
  /// in its order: append_events, finalize, and (certs) collect with a
  /// ProbeMemo and ValidationCache. Returns the resulting dataset shape.
  std::vector<std::size_t> replay(int pass_id) {
    Tracer* t = tracer_;
    if (t != nullptr) t->begin("replay", pass_id, -1);
    const stream::IngestConfig& cfg = w_.config;
    EpochFeed feed = open_feed(pass_id);
    std::unique_ptr<devicesim::SimWorld> world;
    std::unique_ptr<net::FaultInjector> injector;
    if (cfg.certs) {
      world = std::make_unique<devicesim::SimWorld>(
          devicesim::build_world(devicesim::ServerUniverse::standard()));
      if (cfg.fault.any()) {
        injector = std::make_unique<net::FaultInjector>(world->internet, cfg.fault);
      }
    }
    core::ClientDataset client;
    client.set_retain_events(cfg.retain_events);
    core::ProbeMemo memo;
    x509::ValidationCache vcache;
    std::optional<core::CertDataset> certs;

    for_each_epoch(feed, pass_id, [&](const std::vector<devicesim::ClientHelloEvent>& events,
                                      int epoch, Clock::time_point) {
      timed(t, "core.append", pass_id, epoch, nullptr, [&] {
        client.append_events(events, feed.devices, cfg.fp_opts, cfg.jobs);
        return 0;
      });
      timed(t, "core.finalize", pass_id, epoch, nullptr, [&] {
        client.finalize();
        return 0;
      });
      if (cfg.certs) {
        // The assignment (which frees the previous epoch's dataset) is
        // inside the span, as it is inside fold_epoch.
        timed(t, "core.collect", pass_id, epoch, nullptr, [&] {
          certs = core::CertDataset::collect(client, *world, cfg.min_users, cfg.jobs,
                                             &vcache, injector.get(), &memo);
          return 0;
        });
      }
    });
    if (t != nullptr) t->end();

    std::vector<std::size_t> shape = client_shape(client);
    if (certs.has_value()) append_cert_shape(*certs, shape);
    return shape;
  }

 private:
  /// A pass's input as handed to the program: the device table plus its
  /// epochs, either sliced from the CSV import or decoded chunk by chunk
  /// from the snapshot.
  struct EpochFeed {
    std::vector<devicesim::Device> devices;
    std::optional<fleetio::SnapshotReader> reader;
    std::vector<std::vector<devicesim::ClientHelloEvent>> slices;
  };

  EpochFeed open_feed(int pass_id) {
    EpochFeed feed;
    if (w_.kind == Kind::kFleetStream) {
      feed.reader = timed(tracer_, "fleetio.open", pass_id, -1, nullptr,
          [&] { return fleetio::SnapshotReader::open(in_.snapshot_path); });
      feed.devices = timed(tracer_, "fleetio.devices", pass_id, -1, nullptr,
                           [&] { return feed.reader->devices(); });
      return feed;
    }
    devicesim::FleetDataset fleet =
        timed(tracer_, "devicesim.import", pass_id, -1, nullptr, [&] {
          return devicesim::import_events_csv(in_.events_csv, in_.devices_csv);
        });
    feed.devices = std::move(fleet.devices);
    feed.slices = slice_epochs(fleet.events, w_.epochs);
    return feed;
  }

  /// Calls fn(events, epoch, arrival time) for every epoch in order.
  template <typename F>
  void for_each_epoch(EpochFeed& feed, int pass_id, F&& fn) {
    if (!feed.reader.has_value()) {
      for (std::size_t e = 0; e < feed.slices.size(); ++e) {
        fn(feed.slices[e], static_cast<int>(e), Clock::now());
      }
      return;
    }
    std::uint64_t total = feed.reader->event_count();
    int epoch = 0;
    for (std::uint64_t begin = 0; begin < total; begin += w_.chunk_events, ++epoch) {
      std::uint64_t end = std::min<std::uint64_t>(total, begin + w_.chunk_events);
      auto arrived = Clock::now();
      std::vector<devicesim::ClientHelloEvent> events =
          timed(tracer_, "fleetio.events", pass_id, epoch, nullptr,
                [&] { return feed.reader->events(begin, end, w_.config.jobs); });
      fn(events, epoch, arrived);
    }
  }

  stream::StreamIngest construct(std::vector<devicesim::Device> devices,
                                 const stream::IngestConfig& config, int pass_id) {
    return timed(tracer_, "stream.construct", pass_id, -1, nullptr, [&] {
      return stream::StreamIngest(std::move(devices), config);
    });
  }

  void fold(stream::StreamIngest& ingest,
            const std::vector<devicesim::ClientHelloEvent>& events, int pass_id,
            int epoch, PassResult& r) {
    double ms = 0;
    timed(tracer_, "stream.fold_epoch", pass_id, epoch, &ms,
          [&] { return ingest.fold_epoch(events); });
    r.fold_ms.push_back(ms);
    r.fold_total_ms += ms;
  }

  std::vector<std::string> render_all(stream::StreamIngest& ingest, int pass_id,
                                      int epoch) {
    std::vector<std::string> out;
    out.reserve(w_.reports.size());
    for (const std::string& name : w_.reports) {
      std::optional<obs::Json> doc = timed(tracer_, "stream.render", pass_id, epoch,
          nullptr, [&] { return stream::render_report(name, ingest); }, name);
      if (!doc.has_value()) throw std::logic_error("unknown report " + name);
      out.push_back(timed(tracer_, "obs.dump", pass_id, epoch, nullptr,
                          [&] { return doc->dump(); }, name));
    }
    return out;
  }

  void record_outcome(stream::StreamIngest& ingest, PassResult& r) {
    const core::ClientDataset& client = ingest.client();
    r.events_offered = ingest.events_ingested();
    r.events_kept = r.events_offered - client.dropped_events();
    r.shape = client_shape(client);
    if (const core::CertDataset* certs = ingest.certs(); certs != nullptr) {
      r.snis_extracted = certs->extracted_snis();
      r.snis_reachable = certs->reachable_snis();
      append_cert_shape(*certs, r.shape);
    }
    if (w_.kind == Kind::kBatteryFaults) {
      const net::StackSurveySummary& s = ingest.stacks().summary;
      r.battery_sent = s.probes;
      r.battery_answered = s.answered_probes;
      r.battery_attempts = s.attempts;
      r.battery_retries = s.retries;
      r.battery_skipped = s.skipped_probes;
    }
  }

  Workload w_;
  Inputs in_;
  Tracer* tracer_ = nullptr;
};

// ---------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  obs::Json::Object values;
  for (const Metric& m : metrics) {
    values.emplace_back(m.name, obs::Json(obs::Json::Object{{"value", m.value},
                                                            {"unit", m.unit}}));
  }
  obs::Json doc(obs::Json::Object{
      {"correct", correct},
      {"attempted", static_cast<std::int64_t>(attempted)},
      {"failed", static_cast<std::int64_t>(failed)},
      {"metrics", obs::Json(std::move(values))},
  });
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
}

/// Checks a timed pass against the reference; returns the reports that match.
std::size_t check_pass(const PassResult& ref, const PassResult& p, bool& ok) {
  std::size_t matched = 0;
  for (std::size_t i = 0; i < ref.final_reports.size(); ++i) {
    if (i < p.final_reports.size() && p.final_reports[i] == ref.final_reports[i]) {
      ++matched;
    }
  }
  ok = matched == ref.final_reports.size() &&
       p.events_offered == ref.events_offered && p.events_kept == ref.events_kept &&
       p.snis_reachable == ref.snis_reachable &&
       p.snis_extracted == ref.snis_extracted &&
       p.battery_sent == ref.battery_sent &&
       p.battery_answered == ref.battery_answered;
  return matched;
}

/// Per root span ("pass", "replay", "reference"): layer name -> total ms.
struct RootTotals {
  const Tracer::Span* root;
  std::map<std::string, double> layer_ms;  // direct and nested children
  double children_ms = 0;                  // direct children only
  std::vector<const Tracer::Span*> children;
};

std::vector<RootTotals> totals_by_root(const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<int> root_of(spans.size(), -1);
  std::map<int, std::size_t> slot;
  std::vector<RootTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.parent < 0) {
      root_of[i] = static_cast<int>(i);
      slot[static_cast<int>(i)] = out.size();
      out.push_back(RootTotals{&s, {}, 0, {}});
      continue;
    }
    root_of[i] = root_of[static_cast<std::size_t>(s.parent)];
    RootTotals& r = out[slot.at(root_of[i])];
    r.layer_ms[s.name] += s.ms();
    if (s.parent == root_of[i]) {
      r.children_ms += s.ms();
      r.children.push_back(&s);
    }
  }
  return out;
}

std::vector<double> per_root(const std::vector<RootTotals>& roots,
                             const std::string& root_name, const std::string& layer) {
  std::vector<double> out;
  for (const RootTotals& r : roots) {
    if (r.root->name != root_name) continue;
    auto it = r.layer_ms.find(layer);
    out.push_back(it == r.layer_ms.end() ? 0.0 : it->second);
  }
  return out;
}

/// The pair of adjacent top-level spans with the most uncovered pass time
/// between them, summed over traced passes.
std::string largest_gap(const std::vector<RootTotals>& roots) {
  std::map<std::string, std::int64_t> gap_ns;
  for (const RootTotals& r : roots) {
    if (r.root->name != "pass") continue;
    std::int64_t cursor = r.root->start_ns;
    std::string prev = "pass start";
    for (const Tracer::Span* child : r.children) {
      gap_ns[prev + " and " + child->name] += child->start_ns - cursor;
      cursor = child->end_ns;
      prev = child->name;
    }
    gap_ns[prev + " and pass end"] += r.root->end_ns - cursor;
  }
  auto it = std::max_element(gap_ns.begin(), gap_ns.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  return it == gap_ns.end() ? "(no spans)" : it->first;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse_args(argc, argv);
  Workload w = make_workload(opts);
  std::filesystem::create_directories(opts.work_dir);

  Inputs inputs = make_inputs(opts, w);
  std::size_t events_offered = inputs.events;
  std::size_t distinct_wires = inputs.distinct_wires;
  const std::string snapshot_path = inputs.snapshot_path;
  Tracer tracer(Clock::now());
  Bench bench(w, std::move(inputs));

  // Warm-up: the reference path, untimed; its bytes are what every timed
  // pass must reproduce.
  const PassResult ref = bench.reference(-1);
  bool rss_reset = true;

  // A percentile is reported only with >= 10 samples beyond it; keep
  // measuring past --seconds until the tail is supported (bounded).
  const std::size_t tail_samples = opts.smoke ? 1 : samples_for_tail(0.9);
  const double cap_seconds = std::max(opts.seconds, 120.0);
  // Traced run: the decomposed replay and the reference fold run beside
  // the first kLayerSamples traced passes only (per-pass medians).
  constexpr std::size_t kLayerSamples = 5;
  std::vector<PassResult> passes;          // untraced
  std::vector<PassResult> traced;          // trace 1 only
  std::vector<double> fold_attributed;     // trace 1: replay layers / fold
  std::size_t reports_checked = 0;
  std::size_t reports_ok = 0;
  std::size_t failed = 0;
  std::size_t attempted = 0;
  bool shapes_ok = true;

  auto run_checked = [&](int id) {
    rss_reset = reset_peak_rss() && rss_reset;
    PassResult p = bench.pass(id);
    p.peak_rss_mb = peak_rss_mb();
    bool ok = false;
    reports_ok += check_pass(ref, p, ok);
    reports_checked += ref.final_reports.size();
    ++attempted;
    if (!ok) ++failed;
    std::fprintf(stderr, "# pass %d setup_s=%.4f wall_s=%.4f fold_ms=%.1f rss_mb=%.1f%s\n",
                 id, p.setup_s, p.wall_s, p.fold_total_ms, p.peak_rss_mb,
                 ok ? "" : " MISMATCH");
    return p;
  };
  auto samples = [&] {
    std::size_t n = 0;
    for (const PassResult& p : passes) n += p.fold_ms.size();
    for (const PassResult& p : traced) n += p.fold_ms.size();
    return n;
  };

  const auto start = Clock::now();
  int id = 0;
  while (true) {
    double elapsed = ms_between(start, Clock::now()) / 1e3;
    bool have_tail = samples() >= tail_samples;
    if (!passes.empty() && (opts.smoke || (elapsed >= opts.seconds && have_tail) ||
                            elapsed >= cap_seconds)) {
      break;
    }
    passes.push_back(run_checked(id++));
    if (!opts.trace) continue;

    bench.set_tracer(&tracer);
    int pass_id = id++;
    if (traced.size() >= kLayerSamples) {
      traced.push_back(run_checked(pass_id));
      bench.set_tracer(nullptr);
      continue;
    }
    // The decomposed replay runs beside its traced pass, before it on every
    // other iteration so that drift between the two cancels in the median.
    auto replay = [&] {
      std::size_t spans_before = tracer.spans().size();
      std::vector<std::size_t> shape = bench.replay(pass_id);
      double layers_ms = 0;
      for (std::size_t i = spans_before; i < tracer.spans().size(); ++i) {
        const Tracer::Span& s = tracer.spans()[i];
        if (s.name == "core.append" || s.name == "core.finalize" ||
            s.name == "core.collect") {
          layers_ms += s.ms();
        }
      }
      return std::make_pair(shape, layers_ms);
    };
    bool replay_first = traced.size() % 2 == 1;
    std::pair<std::vector<std::size_t>, double> decomposed;
    if (replay_first) decomposed = replay();
    traced.push_back(run_checked(pass_id));
    if (!replay_first) decomposed = replay();
    if (decomposed.first != traced.back().shape) shapes_ok = false;
    fold_attributed.push_back(share(decomposed.second, traced.back().fold_total_ms));
    bench.reference(pass_id);
    bench.set_tracer(nullptr);
  }
  if (samples() < tail_samples) {
    std::fprintf(stderr, "perfbench: warning: only %zu epoch samples (< %zu) "
                 "behind p90\n", samples(), tail_samples);
  }
  if (!snapshot_path.empty()) std::filesystem::remove(snapshot_path);
  if (!rss_reset) {
    std::fprintf(stderr, "perfbench: warning: peak RSS could not be reset; "
                 "peak_rss_mb covers input generation, warm-up and earlier passes\n");
  }

  bool correct = failed == 0 && shapes_ok;
  if (!shapes_ok) {
    std::fprintf(stderr, "perfbench: decomposed append/finalize/collect "
                 "datasets differ from the ingest's\n");
  }
  if (failed != 0) {
    std::fprintf(stderr, "perfbench: %zu of %zu passes differ from the "
                 "reference path\n", failed, attempted);
  }

  std::vector<Metric> metrics;
  if (!opts.trace) {
    std::vector<double> setup, wall, eps, refresh, rss;
    std::size_t offered = 0, kept = 0, extracted = 0, reachable = 0;
    std::uint64_t sent = 0, answered = 0;
    for (const PassResult& p : passes) {
      setup.push_back(p.setup_s);
      wall.push_back(p.wall_s);
      rss.push_back(p.peak_rss_mb);
      eps.push_back(static_cast<double>(p.events_offered) / (p.fold_total_ms / 1e3));
      refresh.insert(refresh.end(), p.refresh_ms.begin(), p.refresh_ms.end());
      offered += p.events_offered;
      kept += p.events_kept;
      extracted += p.snis_extracted;
      reachable += p.snis_reachable;
      sent += p.battery_sent;
      answered += p.battery_answered;
    }
    // Shares over a layer the workload does not exercise (no certs, no
    // battery) are vacuously 1.0: nothing offered, nothing lost.
    metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(wall), "s"},
        {"events_per_s", median(eps), "1/s"},
        {"refresh_ms_p50", percentile(refresh, 0.5), "ms"},
        {"refresh_ms_p90", percentile(refresh, 0.9), "ms"},
        {"peak_rss_mb", median(rss), "MB"},
        {"events_kept_share", share(kept, offered), "ratio"},
        {"sni_reachable_share", share(reachable, extracted), "ratio"},
        {"battery_answered_share", share(answered, sent), "ratio"},
        {"reports_ok_share", share(reports_ok, reports_checked), "ratio"},
    };
    std::printf("# %s seed=%llu events=%zu passes=%zu refresh_samples=%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(opts.seed),
                events_offered, passes.size(), refresh.size());
  } else {
    // Per-layer numbers come from this invocation only: layer times from the
    // spans of the traced passes, counters from their deltas.
    std::vector<RootTotals> roots = totals_by_root(tracer);
    std::vector<double> fold, render, coverage;
    std::map<std::string, std::vector<double>> render_by_report;
    for (const RootTotals& r : roots) {
      if (r.root->name != "pass") continue;
      coverage.push_back(share(r.children_ms, r.root->ms()));
    }
    // fold_epoch is timed identically with and without spans, so its
    // percentiles pool every pass of this invocation.
    for (const std::vector<PassResult>* set : {&passes, &traced}) {
      for (const PassResult& p : *set) fold.insert(fold.end(), p.fold_ms.begin(), p.fold_ms.end());
    }
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.parent < 0) continue;
      const Tracer::Span* root = &s;
      while (root->parent >= 0) root = &tracer.spans()[static_cast<std::size_t>(root->parent)];
      if (root->name != "pass") continue;
      if (s.name == "stream.render") {
        render.push_back(s.ms());
        render_by_report[s.detail].push_back(s.ms());
      }
    }
    auto layer = [&](const char* root, const char* name) {
      return median(per_root(roots, root, name));
    };
    auto counter = [&](const char* name) {
      std::vector<double> v;
      for (const PassResult& p : traced) v.push_back(p.counters.at(name));
      return median(v);
    };
    // The stack battery's own retry and breaker counts, from the public
    // StreamIngest::stacks().summary (its prober does not feed net.probe.*).
    auto battery = [&](std::uint64_t PassResult::*field) {
      std::vector<double> v;
      for (const PassResult& p : traced) v.push_back(static_cast<double>(p.*field));
      return median(v);
    };
    std::vector<double> traced_wall, untraced_wall;
    for (const PassResult& p : traced) traced_wall.push_back(p.wall_s);
    for (const PassResult& p : passes) untraced_wall.push_back(p.wall_s);
    double replay_fold = layer("pass", "stream.fold_epoch");
    double batch_fold = layer("reference", "stream.fold_epoch");
    double parsed = counter("core.dataset.events_parsed");
    double hits = counter("x509.cache.hit");
    double misses = counter("x509.cache.miss");

    metrics = {
        {"fleetio.open_ms", layer("pass", "fleetio.open"), "ms"},
        {"fleetio.events_ms", layer("pass", "fleetio.events"), "ms"},
        {"devicesim.import_ms", layer("pass", "devicesim.import"), "ms"},
        {"stream.construct_ms", layer("pass", "stream.construct"), "ms"},
        {"core.append_ms", layer("replay", "core.append"), "ms"},
        {"core.finalize_ms", layer("replay", "core.finalize"), "ms"},
        {"core.collect_ms", layer("replay", "core.collect"), "ms"},
        {"tls.events_offered", static_cast<double>(events_offered), "count"},
        {"tls.events_parsed", parsed, "count"},
        {"tls.parses_per_event", share(parsed, static_cast<double>(events_offered)), "ratio"},
        {"tls.distinct_wires", static_cast<double>(distinct_wires), "count"},
        {"tls.distinct_wire_share",
         share(static_cast<double>(distinct_wires), static_cast<double>(events_offered)),
         "ratio"},
        {"stream.fold_ms_p50", percentile(fold, 0.5), "ms"},
        {"stream.fold_ms_p90", percentile(fold, 0.9), "ms"},
        {"stream.fold_samples", static_cast<double>(fold.size()), "count"},
        {"stream.replay_fold_ms", replay_fold, "ms"},
        {"stream.batch_fold_ms", batch_fold, "ms"},
        {"stream.replay_vs_batch", share(replay_fold, batch_fold), "ratio"},
        {"stream.render_ms_p50", percentile(render, 0.5), "ms"},
    };
    for (const std::string& name : stream::report_names()) {
      metrics.push_back({"stream.render_ms." + name, median(render_by_report[name]), "ms"});
    }
    std::vector<Metric> rest = {
        {"obs.dump_ms", layer("pass", "obs.dump"), "ms"},
        {"net.battery_ms", layer("pass", "net.battery"), "ms"},
        {"net.probe.attempts", counter("net.probe.attempts"), "count"},
        {"net.probe.retry", counter("net.probe.retry"), "count"},
        {"net.probe.skipped.breaker", counter("net.probe.skipped.breaker"), "count"},
        {"net.fingerprint.probes", counter("net.fingerprint.probes"), "count"},
        {"net.battery.attempts", battery(&PassResult::battery_attempts), "count"},
        {"net.battery.retries", battery(&PassResult::battery_retries), "count"},
        {"net.battery.skipped.breaker", battery(&PassResult::battery_skipped), "count"},
        {"x509.cache.hit", hits, "count"},
        {"x509.cache.miss", misses, "count"},
        {"x509.cache_hit_share", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"exec.pool.shards", counter("exec.pool.shards"), "count"},
        {"trace.coverage_share", median(coverage), "ratio"},
        {"trace.fold_attributed_share", median(fold_attributed), "ratio"},
        {"trace.overhead_share", median(traced_wall) / median(untraced_wall) - 1.0, "ratio"},
        {"trace.passes", static_cast<double>(traced.size()), "count"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());

    // Name every attribution gap above 10% instead of hiding it.
    double cov = median(coverage);
    if (cov < 0.9) {
      std::printf("trace gap: %.1f%% of pass wall lies outside the layer spans; "
                  "largest between %s\n", 100 * (1 - cov), largest_gap(roots).c_str());
    }
    double attributed = median(fold_attributed);
    if (std::abs(1 - attributed) > 0.1) {
      std::printf("trace gap: core.append+core.finalize+core.collect account for "
                  "%.1f%% of stream.fold_epoch\n", 100 * attributed);
    }
    std::string trace_path = opts.work_dir + "/trace-" + w.name + "-" +
                             std::to_string(opts.seed) + ".json";
    tracer.write(trace_path);
    std::printf("# %s seed=%llu traced_passes=%zu spans=%zu trace=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(opts.seed),
                traced.size(), tracer.spans().size(), trace_path.c_str());
  }

  print_result(correct, attempted, failed + (shapes_ok ? 0 : 1), metrics);
  return correct ? 0 : 1;
}
