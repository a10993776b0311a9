#include "stream/daemon.hpp"

namespace iotls::stream {

SurveyDaemon::SurveyDaemon(std::vector<devicesim::Device> devices,
                           IngestConfig config)
    : ingest_(std::move(devices), config) {}

bool SurveyDaemon::start(std::uint16_t port, std::string* error) {
  obs::HttpServer& server = plane_.server();

  server.handle("/epoch", [this](const obs::HttpRequest&) {
    std::lock_guard<std::mutex> lock(mu_);
    const StreamIngest::FoldStats& fold = ingest_.last_fold();
    obs::Json doc(obs::Json::Object{
        {"epoch", static_cast<std::int64_t>(ingest_.epoch())},
        {"events", static_cast<std::int64_t>(ingest_.events_ingested())},
        {"watermark_day", ingest_.watermark_day()},
        {"snis", static_cast<std::int64_t>(ingest_.client().index().snis().size())},
        {"fingerprints",
         static_cast<std::int64_t>(ingest_.client().index().fps().size())},
        {"certs", ingest_.config().certs},
        {"last_fold",
         obs::Json::Object{
             {"append_ms", fold.append_ms},
             {"finalize_ms", fold.finalize_ms},
             {"certs_ms", fold.certs_ms},
             {"snis_probed", static_cast<std::int64_t>(fold.snis_probed)},
             {"records_refreshed",
              static_cast<std::int64_t>(fold.records_refreshed)},
         }},
    });
    return obs::HttpResponse::json(200, doc.dump() + "\n");
  });

  for (const std::string& name : report_names()) {
    server.handle("/report/" + name, [this, name](const obs::HttpRequest&) {
      std::lock_guard<std::mutex> lock(mu_);
      if (ingest_.epoch() == 0) {
        return obs::HttpResponse::json(
            503, obs::Json(obs::Json::Object{{"error", "no epoch folded yet"}})
                         .dump() +
                     "\n");
      }
      std::optional<obs::Json> doc = render_report(name, ingest_);
      if (!doc.has_value()) {
        return obs::HttpResponse::text(404, "no such report: " + name + "\n");
      }
      int status = doc->find("error") != nullptr ? 503 : 200;
      return obs::HttpResponse::json(status, doc->dump() + "\n");
    });
  }

  return plane_.start(port, error);
}

bool SurveyDaemon::step(EventSource& source) {
  std::optional<EventBatch> batch = source.next_epoch();
  if (!batch.has_value()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  ingest_.fold_epoch(batch->events);
  return true;
}

std::size_t SurveyDaemon::drain(EventSource& source) {
  std::size_t folded = 0;
  while (step(source)) ++folded;
  return folded;
}

}  // namespace iotls::stream
