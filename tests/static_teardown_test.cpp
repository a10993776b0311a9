// Static teardown against the process-wide obs registries: an ingest with
// static storage, declared before any metric or health check is touched,
// is destroyed after everything constructed later. Its teardown still
// reports to them (the validation cache releases its arena bytes into a
// gauge and unregisters its health check), so the registries must outlive
// it. A plain program, not a gtest: the process exit is what is tested, and
// ctest expects exit status 0 (under the sanitizers, no report).
#include <memory>

#include "corpus/corpus.hpp"
#include "devicesim/fleet.hpp"
#include "stream/ingest.hpp"

int main() {
  using namespace iotls;
  static std::unique_ptr<stream::StreamIngest> holder;
  devicesim::FleetConfig fleet_config;
  fleet_config.users = 8;
  fleet_config.cover_all_snis = false;
  const devicesim::FleetDataset fleet =
      devicesim::generate_fleet(fleet_config, corpus::LibraryCorpus::standard(),
                                devicesim::ServerUniverse::standard());
  stream::IngestConfig config;
  config.certs = true;
  holder = std::make_unique<stream::StreamIngest>(fleet.devices, config);
  holder->fold_epoch(fleet.events);
  return 0;
}
