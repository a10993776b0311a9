#include "stream/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>

#include "corpus/corpus.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/dates.hpp"

namespace iotls::stream {

StreamIngest::StreamIngest(std::vector<devicesim::Device> devices,
                           IngestConfig config)
    : config_(config), devices_(std::move(devices)) {
  client_.set_retain_events(config_.retain_events);
  if (config_.certs) {
    world_ = std::make_unique<devicesim::SimWorld>(
        devicesim::build_world(devicesim::ServerUniverse::standard()));
    if (config_.fault.any()) {
      injector_ = std::make_unique<net::FaultInjector>(world_->internet,
                                                       config_.fault);
    }
  }
}

StreamIngest::~StreamIngest() = default;

std::uint64_t StreamIngest::fold_epoch(
    const std::vector<devicesim::ClientHelloEvent>& events) {
  static obs::Histogram& fold_ns =
      obs::metrics().histogram("stream.epoch_fold_ns");
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
  };
  auto span = obs::tracer().span("stream.epoch_fold");
  {
    obs::ScopedTimer timer(fold_ns);
    FoldStats stats;

    auto t = Clock::now();
    client_.append_events(events, devices_, config_.fp_opts, config_.jobs);
    stats.append_ms = ms_since(t);
    t = Clock::now();
    client_.finalize();
    stats.finalize_ms = ms_since(t);
    for (const devicesim::ClientHelloEvent& ev : events) {
      watermark_day_ = std::max(watermark_day_, ev.day);
    }

    if (config_.certs) {
      t = Clock::now();
      core::CertDataset::FoldStats folded = memo_.dataset.fold(
          client_, *world_, config_.min_users, config_.jobs, &vcache_,
          injector_ != nullptr ? injector_.get() : nullptr);
      stats.certs_ms = ms_since(t);
      stats.snis_probed = folded.snis_probed;
      stats.records_refreshed = folded.records_refreshed;
    }
    last_fold_ = stats;
  }

  ++epoch_;
  events_ingested_ += events.size();
  obs::metrics().gauge("stream.epoch").set(static_cast<std::int64_t>(epoch_));
  obs::metrics().gauge("stream.events_ingested")
      .set(static_cast<std::int64_t>(events_ingested_));
  obs::metrics().gauge("stream.watermark_day").set(watermark_day_);
  obs::logger().info("epoch folded",
                     {{"epoch", std::to_string(epoch_)},
                      {"events", std::to_string(events.size())},
                      {"snis", std::to_string(client_.index().snis().size())}});
  return epoch_;
}

namespace {

const core::CertDataset& require_certs(const core::CertDataset* certs,
                                       const char* what) {
  if (certs == nullptr) {
    throw std::logic_error(std::string(what) +
                           "(): certs mode with >=1 folded epoch required");
  }
  return *certs;
}

}  // namespace

core::ChainReport StreamIngest::chains() {
  return core::validate_dataset(require_certs(certs(), "chains"), *world_,
                                kProbeDay, config_.jobs, &vcache_,
                                chain_memo_);
}

core::CtReport StreamIngest::ct() {
  return core::ct_report(require_certs(certs(), "ct"), *world_, config_.jobs,
                         &ct_memo_);
}

core::ServerTieReport StreamIngest::server_ties() {
  // The corpus is immutable reference data; one instance serves every call.
  static const corpus::LibraryCorpus corpus = corpus::LibraryCorpus::standard();
  return core::server_tied_fingerprints(client_, corpus, &tie_memo_);
}

const net::StackSurvey& StreamIngest::stacks() {
  const std::vector<core::SniRecord>& records =
      require_certs(certs(), "stacks").records();
  if (stacks_.results.size() == records.size()) return stacks_;

  // Battery only the SNIs this ingest has never fingerprinted. Records and
  // results are both in SNI order and records only grow, so one merge walk
  // finds them. Per-SNI results are pure (the battery visits one SNI's
  // probes in a fixed family-major order and the injector's decision
  // streams are keyed per (SNI, vantage, attempt)), so epoch-by-epoch fresh
  // batches compose to the same bytes a cold batch survey produces.
  std::vector<std::string> fresh;
  for (std::size_t have = 0; const core::SniRecord& record : records) {
    if (have < stacks_.results.size() && stacks_.results[have].sni == record.sni) {
      ++have;
    } else {
      fresh.push_back(record.sni);
    }
  }

  const net::Internet* internet = &world_->internet;
  if (config_.fault.any()) {
    // Battery-private injector: the cert prober's attempt counters must
    // keep their historical sequence.
    if (stack_injector_ == nullptr) {
      stack_injector_ = std::make_unique<net::FaultInjector>(world_->internet,
                                                             config_.fault);
    }
    internet = stack_injector_.get();
  }
  net::StackFingerprinter fingerprinter(*internet);
  fingerprinter.set_families({net::AddressFamily::kIPv4, net::AddressFamily::kIPv6});
  fingerprinter.set_jobs(config_.jobs);
  if (config_.fault.any()) {
    net::RetryPolicy retry;
    retry.max_attempts = 3;  // ride out injected weather, deterministically
    fingerprinter.set_retry_policy(retry);
  }
  net::StackSurvey batch = fingerprinter.survey(fresh);

  std::vector<net::ServerStackResult> merged;
  merged.reserve(records.size());
  std::merge(std::make_move_iterator(stacks_.results.begin()),
             std::make_move_iterator(stacks_.results.end()),
             std::make_move_iterator(batch.results.begin()),
             std::make_move_iterator(batch.results.end()), std::back_inserter(merged),
             [](const net::ServerStackResult& a, const net::ServerStackResult& b) {
               return a.sni < b.sni;
             });
  stacks_.results = std::move(merged);
  stacks_.summary.merge(batch.summary);
  return stacks_;
}

}  // namespace iotls::stream
