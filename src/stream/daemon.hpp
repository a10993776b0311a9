// SurveyDaemon: the resident incremental survey process behind iotlsd.
//
// Glues an EventSource, a StreamIngest and the obs::ExportPlane together:
// the run loop pulls epochs from the source and folds them; the plane's
// HTTP server answers live queries between (and during) folds. Routes, on
// top of the plane's standard set (/metrics /stats /healthz /readyz /trace
// /quitquitquit):
//
//   GET /epoch           {"epoch":N,"events":M,"watermark_day":D,...,
//                         "last_fold":{"append_ms":..,"finalize_ms":..,
//                         "certs_ms":..,"snis_probed":..,
//                         "records_refreshed":..}}
//   GET /report/<name>   the stream report document (see stream/reports),
//                        one per name in report_names()
//
// Handlers run on the HTTP pool; folds run on the caller of run()/step().
// Both sides serialize on one mutex, so a scrape mid-fold sees the last
// fully folded epoch, never a half-built index.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/export_plane.hpp"
#include "stream/ingest.hpp"
#include "stream/reports.hpp"
#include "stream/source.hpp"

namespace iotls::stream {

class SurveyDaemon {
 public:
  /// `ingest` configuration as for StreamIngest; the daemon owns the ingest.
  SurveyDaemon(std::vector<devicesim::Device> devices, IngestConfig config);

  SurveyDaemon(const SurveyDaemon&) = delete;
  SurveyDaemon& operator=(const SurveyDaemon&) = delete;

  /// Mount /epoch and /report/* and start serving on 127.0.0.1:`port`
  /// (0 = ephemeral). False + `error` when the socket cannot be bound.
  bool start(std::uint16_t port, std::string* error = nullptr);

  std::uint16_t port() const { return plane_.port(); }

  /// Pull one epoch from `source` and fold it. False when the source is
  /// drained (nothing folded).
  bool step(EventSource& source);

  /// Drain `source` completely (ReplaySource) — folds until drained.
  /// Returns the number of epochs folded.
  std::size_t drain(EventSource& source);

  /// Block until /quitquitquit (or request_stop()); `timeout_ms` > 0 bounds
  /// the wait. True when released by an explicit stop.
  bool wait_for_shutdown(std::uint64_t timeout_ms = 0) {
    return plane_.wait_for_shutdown(timeout_ms);
  }
  void request_stop() { plane_.request_stop(); }

  /// Stop serving (idempotent).
  void stop() { plane_.stop(); }

  /// The ingest, for direct inspection in tests and tools. Callers must
  /// not mutate concurrently with a running server's handlers.
  StreamIngest& ingest() { return ingest_; }
  std::mutex& mutex() { return mu_; }

 private:
  StreamIngest ingest_;
  obs::ExportPlane plane_;
  std::mutex mu_;  // serializes folds against HTTP handlers
};

}  // namespace iotls::stream
