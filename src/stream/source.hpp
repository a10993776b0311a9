// Epoch-batched event sources for the incremental survey daemon.
//
// An EventSource hands the ingest loop one epoch of ClientHello events at a
// time. Epoch boundaries are a delivery artifact, not a semantic one: the
// ingest fold is append-only and order-preserving, so any epoching of one
// event stream produces the same dataset as a single batch over the
// concatenation. Two sources ship:
//
//   * ReplaySource — slices an in-memory event vector into a fixed number
//     of epochs (the batch tools' degenerate mode is one epoch);
//   * TailSource — follows a growing events CSV on disk, emitting the
//     complete rows appended since the previous poll. A partial last line
//     (a writer mid-append) is left for the next poll, so a row is never
//     split across epochs;
//   * SnapshotSource — replays a columnar .iotlsnap container in
//     fixed-size chunks, materializing each chunk only when asked for, so
//     a fleet-scale snapshot streams through the fold with O(chunk)
//     resident event rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "devicesim/types.hpp"
#include "fleetio/snapshot.hpp"

namespace iotls::stream {

/// One epoch's worth of raw events.
struct EventBatch {
  std::vector<devicesim::ClientHelloEvent> events;
};

class EventSource {
 public:
  virtual ~EventSource() = default;

  /// The next epoch, or nullopt when the source is (currently) drained.
  /// A drained ReplaySource stays drained; a drained TailSource may yield
  /// again once the file grows.
  virtual std::optional<EventBatch> next_epoch() = 0;
};

/// Replays an in-memory event stream across `epochs` contiguous slices
/// (the final slice absorbs the remainder). `epochs` is clamped to
/// [1, events.size()] so every epoch is non-empty when events exist.
class ReplaySource final : public EventSource {
 public:
  ReplaySource(std::vector<devicesim::ClientHelloEvent> events,
               std::size_t epochs);

  std::optional<EventBatch> next_epoch() override;

  std::size_t epochs() const { return epochs_; }

 private:
  std::vector<devicesim::ClientHelloEvent> events_;
  std::size_t epochs_ = 1;
  std::size_t next_ = 0;       // next event index to emit
  std::size_t emitted_ = 0;    // epochs emitted so far
};

/// Follows an events CSV being appended to. Each next_epoch() reads the
/// bytes appended since the previous call and parses the complete lines in
/// them; the header (first line) establishes the column layout. Rows that
/// fail to parse are counted and skipped, not fatal — a tailed file may
/// interleave foreign junk.
class TailSource final : public EventSource {
 public:
  explicit TailSource(std::string path);

  std::optional<EventBatch> next_epoch() override;

  std::uint64_t malformed_rows() const { return malformed_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;   // bytes consumed into complete lines
  std::string pending_;        // trailing partial line from the last poll
  bool header_seen_ = false;
  bool has_wire_ = false;
  std::uint64_t malformed_ = 0;
};

/// Replays a snapshot container in `chunk_events`-sized epochs (the final
/// one short), or with_epochs() into exactly the slices ReplaySource cuts.
/// Events are materialized per epoch from the mapped columns — the full
/// event vector never exists in memory. `jobs` parallelizes each epoch's
/// materialization; the emitted stream is identical at every jobs level.
class SnapshotSource final : public EventSource {
 public:
  static constexpr std::uint64_t kDefaultChunkEvents = 262144;

  explicit SnapshotSource(fleetio::SnapshotReader reader,
                          std::uint64_t chunk_events = kDefaultChunkEvents,
                          int jobs = 1);

  /// Epoch-count flavour: `epochs` (clamped to [1, events]) slices of
  /// events/epochs each, the final one absorbing the remainder: the epochs
  /// ReplaySource(events, epochs) emits.
  static SnapshotSource with_epochs(fleetio::SnapshotReader reader,
                                    std::size_t epochs, int jobs = 1);

  std::optional<EventBatch> next_epoch() override;

  const fleetio::SnapshotReader& reader() const { return reader_; }

 private:
  fleetio::SnapshotReader reader_;
  std::uint64_t chunk_;
  int jobs_;
  std::uint64_t epochs_ = 0;   // with_epochs' count; 0 = fixed chunks
  std::uint64_t emitted_ = 0;  // epochs emitted so far
  std::uint64_t next_ = 0;
};

}  // namespace iotls::stream
