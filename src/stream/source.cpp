#include "stream/source.hpp"

#include <algorithm>
#include <cstdio>

#include "devicesim/export.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace iotls::stream {

ReplaySource::ReplaySource(std::vector<devicesim::ClientHelloEvent> events,
                           std::size_t epochs)
    : events_(std::move(events)),
      epochs_(std::clamp<std::size_t>(epochs, 1,
                                      std::max<std::size_t>(events_.size(), 1))) {}

std::optional<EventBatch> ReplaySource::next_epoch() {
  if (events_.empty() || emitted_ >= epochs_) return std::nullopt;
  // Even slices; the final epoch absorbs the rounding remainder.
  std::size_t per_epoch = events_.size() / epochs_;
  std::size_t end = emitted_ + 1 == epochs_ ? events_.size()
                                            : next_ + per_epoch;
  EventBatch batch;
  batch.events.assign(std::make_move_iterator(events_.begin() + next_),
                      std::make_move_iterator(events_.begin() + end));
  next_ = end;
  ++emitted_;
  return batch;
}

TailSource::TailSource(std::string path) : path_(std::move(path)) {}

std::optional<EventBatch> TailSource::next_epoch() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  if (std::fseek(f, static_cast<long>(offset_), SEEK_SET) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  std::string fresh;
  char buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) fresh.append(buf, n);
  std::fclose(f);
  if (fresh.empty()) return std::nullopt;
  offset_ += fresh.size();

  fresh.insert(0, pending_);
  pending_.clear();
  // A writer may be mid-append: everything after the last newline is an
  // incomplete row and waits for the next poll.
  std::size_t last_nl = fresh.rfind('\n');
  if (last_nl == std::string::npos) {
    pending_ = std::move(fresh);
    return std::nullopt;
  }
  pending_ = fresh.substr(last_nl + 1);
  fresh.resize(last_nl);

  EventBatch batch;
  std::size_t start = 0;
  while (start <= fresh.size()) {
    std::size_t nl = fresh.find('\n', start);
    std::string line = fresh.substr(
        start, nl == std::string::npos ? std::string::npos : nl - start);
    start = nl == std::string::npos ? fresh.size() + 1 : nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    try {
      if (!header_seen_) {
        has_wire_ = devicesim::events_header_has_wire(line);
        header_seen_ = true;
        continue;
      }
      batch.events.push_back(devicesim::parse_event_row(line, has_wire_));
    } catch (const ParseError&) {
      ++malformed_;
      obs::metrics().counter("stream.tail.malformed_rows").inc();
    }
  }
  if (batch.events.empty()) return std::nullopt;
  return batch;
}

SnapshotSource::SnapshotSource(fleetio::SnapshotReader reader,
                               std::uint64_t chunk_events, int jobs)
    : reader_(std::move(reader)),
      chunk_(std::max<std::uint64_t>(chunk_events, 1)),
      jobs_(jobs) {}

SnapshotSource SnapshotSource::with_epochs(fleetio::SnapshotReader reader,
                                           std::size_t epochs, int jobs) {
  std::uint64_t n = reader.event_count();
  std::uint64_t e = std::clamp<std::uint64_t>(epochs, 1, std::max<std::uint64_t>(n, 1));
  SnapshotSource source(std::move(reader), n / e, jobs);
  source.epochs_ = e;
  return source;
}

std::optional<EventBatch> SnapshotSource::next_epoch() {
  std::uint64_t n = reader_.event_count();
  if (next_ >= n) return std::nullopt;
  // With an epoch count the final epoch absorbs the remainder, as in
  // ReplaySource.
  ++emitted_;
  std::uint64_t end = emitted_ == epochs_ ? n : std::min(n, next_ + chunk_);
  EventBatch batch;
  batch.events = reader_.events(next_, end, jobs_);
  next_ = end;
  return batch;
}

}  // namespace iotls::stream
