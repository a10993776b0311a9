// StreamIngest: the epoch-based incremental fold behind iotlsd.
//
// Owns the growing ClientDataset (and, with certs enabled, the resident
// CertDataset), folding one epoch of raw events at a time:
//
//   fold_epoch(events):
//     1. client.append_events(events)  — device lookup and wire hashing
//        in event shards, each distinct wire of the epoch parsed once (in
//        parallel), sequential interning into id rows, then one append
//        task per posting table, after everything already ingested;
//     2. client.finalize()             — merges each dirty posting-list
//        row's sorted tail and the newly interned ids into the
//        permutations, one task per table and permutation; vendor bitsets
//        take the new fingerprints;
//     3. (certs) CertDataset::fold     — in place on the resident dataset:
//        only SNIs that became eligible this epoch hit the (possibly
//        fault-injected) network, and only records whose client posting
//        lists grew have their membership refreshed; the CertIndex appends
//        and merges the rows that gained postings.
//
// The contract the daemon's tests pin down: after folding epochs e1..eN,
// every dataset and report is byte-identical to a cold batch run over the
// concatenation e1 ‖ … ‖ eN — at any --jobs level, with or without fault
// injection (the FaultInjector seeds per (SNI, vantage, attempt), so a
// delta probe draws the same faults the batch probe would).
//
// Rendering is the other half of a refresh. The facts a §5 report derives
// per record — the chain validation, the CT class and log lookup — are pure
// functions of the record's chain, the world and the paper's probe day,
// and the Table 5 corpus match is a pure function of the fingerprint. The
// ingest memoizes them across renders (chains(), ct(), server_ties(), keyed
// by stable ids), filling only what a new epoch added; each render then
// aggregates on interned ids. fold_epoch never computes them, so the fold's
// cost is unchanged. Batch callers reach the same core functions with an
// empty memo.
//
// Thread-compat: fold_epoch and the accessors must not race; the daemon
// serializes them behind its own mutex. Within a fold, `jobs` workers are
// used for the lookup/parse/append/merge/probe phases exactly as in batch
// mode.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cert_dataset.hpp"
#include "core/chains.hpp"
#include "core/ct_validity.hpp"
#include "core/dataset.hpp"
#include "core/sharing.hpp"
#include "devicesim/scenario.hpp"
#include "net/fault.hpp"
#include "net/stack_fingerprint.hpp"
#include "x509/validation.hpp"

namespace iotls::stream {

struct IngestConfig {
  tls::FingerprintOptions fp_opts;
  int jobs = 1;
  /// Build the §5 server-side dataset after every epoch fold.
  bool certs = false;
  /// Minimum distinct users before an SNI is probed (CertDataset::collect).
  std::size_t min_users = 1;
  /// Fault schedule applied to the probe path when spec.any().
  net::FaultSpec fault;
  /// Retain parsed events in client().events(). The streaming report path
  /// turns this off: every stream report is index/CertDataset-backed, so
  /// dropping the per-event rows keeps the fold's resident memory
  /// O(distinct fingerprints) instead of O(total events) — the fleet-scale
  /// mode. Reports stay byte-identical either way.
  bool retain_events = true;
};

class StreamIngest {
 public:
  /// `devices` is the fleet's device table (events referencing unknown
  /// devices are dropped and counted, exactly as in batch mode).
  explicit StreamIngest(std::vector<devicesim::Device> devices,
                        IngestConfig config = {});
  ~StreamIngest();

  StreamIngest(const StreamIngest&) = delete;
  StreamIngest& operator=(const StreamIngest&) = delete;

  /// Fold one epoch of raw events; returns the epoch number (1-based).
  /// An empty epoch still advances the epoch counter (a heartbeat).
  std::uint64_t fold_epoch(const std::vector<devicesim::ClientHelloEvent>& events);

  const core::ClientDataset& client() const { return client_; }
  /// The resident §5 dataset: non-null once certs are enabled and at least
  /// one epoch has folded.
  const core::CertDataset* certs() const {
    return config_.certs && epoch_ > 0 ? &memo_.dataset : nullptr;
  }

  /// What the most recent fold_epoch() cost, stage by stage.
  struct FoldStats {
    double append_ms = 0;    // client.append_events
    double finalize_ms = 0;  // client.finalize
    double certs_ms = 0;     // CertDataset::fold (0 without certs)
    std::size_t snis_probed = 0;
    std::size_t records_refreshed = 0;
  };
  const FoldStats& last_fold() const { return last_fold_; }

  /// Active stack-fingerprint survey (dual-stack battery) over the cert
  /// dataset's SNIs, in records() order. Lazily run on first call after a
  /// fold and memoized per SNI across epochs — only SNIs never fingerprinted
  /// before hit the network, through a battery-private FaultInjector (its
  /// attempt counters must not interleave with the cert prober's), so the
  /// streamed survey is byte-identical to a cold batch run. Requires certs
  /// mode and at least one folded epoch; throws std::logic_error otherwise.
  const net::StackSurvey& stacks();

  /// §5.3 chain validation of the resident dataset at the paper's probe
  /// day (kProbeDay). Each record is validated once per ingest, on
  /// the first call after the fold that added it. Requires certs mode and
  /// at least one folded epoch; throws std::logic_error otherwise.
  core::ChainReport chains();
  /// §5.4 CT report; each record is classified and looked up in CT once
  /// per ingest. Same requirements as chains().
  core::CtReport ct();
  /// Table 5 over the client dataset (standard corpus); each fingerprint is
  /// matched against the corpus and tagged once per ingest.
  core::ServerTieReport server_ties();

  /// The simulated world certs are probed against (built iff config.certs).
  const devicesim::SimWorld& world() const { return *world_; }
  const IngestConfig& config() const { return config_; }

  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t events_ingested() const { return events_ingested_; }
  /// Highest capture day folded so far (the ingest watermark; -1 before
  /// the first event).
  std::int64_t watermark_day() const { return watermark_day_; }

 private:
  IngestConfig config_;
  std::vector<devicesim::Device> devices_;
  core::ClientDataset client_;
  std::unique_ptr<devicesim::SimWorld> world_;
  std::unique_ptr<net::FaultInjector> injector_;
  core::ProbeMemo memo_;  // the resident CertDataset
  FoldStats last_fold_;
  // Battery results in records() order; each fresh batch merges in.
  net::StackSurvey stacks_;
  std::unique_ptr<net::FaultInjector> stack_injector_;
  // Per-record and per-fingerprint report facts, filled on the render path.
  std::shared_ptr<core::ChainMemo> chain_memo_ = std::make_shared<core::ChainMemo>();
  core::CtMemo ct_memo_;
  core::TieMemo tie_memo_;
  x509::ValidationCache vcache_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_ingested_ = 0;
  std::int64_t watermark_day_ = -1;
};

}  // namespace iotls::stream
