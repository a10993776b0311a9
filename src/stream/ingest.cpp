#include "stream/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
      if (folded.snis_probed > 0) stacks_.reset();  // new records to battery
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

const net::StackSurvey& StreamIngest::stacks() {
  if (stacks_.has_value()) return *stacks_;
  const core::CertDataset* certs = this->certs();
  if (certs == nullptr) {
    throw std::logic_error("stacks(): certs mode with >=1 folded epoch required");
  }

  // Battery only the SNIs this ingest has never fingerprinted. Per-SNI
  // results are pure (the battery visits one SNI's probes in a fixed
  // family-major order and the injector's decision streams are keyed per
  // (SNI, vantage, attempt)), so epoch-by-epoch fresh batches compose to
  // the same bytes a cold batch survey produces.
  std::vector<std::string> all;
  std::vector<std::string> fresh;
  all.reserve(certs->records().size());
  for (const core::SniRecord& record : certs->records()) {
    all.push_back(record.sni);
    if (stack_memo_.count(record.sni) == 0) fresh.push_back(record.sni);
  }

  if (!fresh.empty()) {
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
    fingerprinter.set_families(
        {net::AddressFamily::kIPv4, net::AddressFamily::kIPv6});
    fingerprinter.set_jobs(config_.jobs);
    if (config_.fault.any()) {
      net::RetryPolicy retry;
      retry.max_attempts = 3;  // ride out injected weather, deterministically
      fingerprinter.set_retry_policy(retry);
    }
    net::StackSurvey batch = fingerprinter.survey(fresh);
    for (net::ServerStackResult& result : batch.results) {
      std::string sni = result.sni;
      stack_memo_[std::move(sni)] = std::move(result);
    }
    stack_summary_.merge(batch.summary);
  }

  net::StackSurvey assembled;
  assembled.summary = stack_summary_;
  assembled.results.reserve(all.size());
  for (const std::string& sni : all) {
    assembled.results.push_back(stack_memo_.at(sni));
  }
  stacks_ = std::move(assembled);
  return *stacks_;
}

}  // namespace iotls::stream
