#pragma once

#include <cstdint>
#include <optional>

#include "core/erased_exec.hpp"

namespace mxn::core {

/// One parametrized instance of the two-phase reliable exchange
/// (docs/FAULTS.md): the same wire protocol backs reliable M×N connection
/// transfers, the patch-migration step of an elastic rescale
/// (docs/RESCALING.md) and the relayout exchanges of a redundancy recovery
/// (docs/REDUNDANCY.md). `src`/`dst` are this rank's roles — either may be
/// null; with both set the rank sends and receives in the same attempt
/// (self-coupling / overlap migration).
struct ReliableExchange {
  const sched::RegionSchedule* schedule = nullptr;
  const FieldRegistration* src = nullptr;  // null: no send role here
  const FieldRegistration* dst = nullptr;  // null: no receive role here
  const sched::Coupling* coupling = nullptr;
  int data_tag = 0;
  int ack_tag = 0;
  int commit_tag = 0;
  /// Per-receive deadline (ms): < 0 inherits the spawn default, 0 waits
  /// forever (retries then never trigger), > 0 recommended.
  int timeout_ms = -1;
  /// Attempt serial ("invocation epoch"), owned by the caller so it persists
  /// across attempts: bumped at the start of every attempt, carried in every
  /// message, ratcheted forward when a peer is seen to have retried past us.
  std::uint64_t* serial = nullptr;
};

/// Run the two-phase exchange, retrying a timed-out attempt up to
/// `max_retries` times (at most 1 + max(0, max_retries) attempts):
///
///   src: send [serial|data] to each peer --> wait per-peer ack --> commit
///   dst: stage [serial|data] from each peer --> ack each --> wait commits
///        --> inject the staged payloads
///
/// Every message carries the sender's attempt serial; receivers consume and
/// DISCARD anything older than their own attempt (self-draining), and
/// ratchet forward when a peer has already retried past them. The
/// destination injects only after every source's commit, so a failed
/// attempt — TimeoutError at any of the waits — leaves the destination
/// field untouched and the whole attempt can simply be re-run.
///
/// When `retry_instant` is set, the trace instant of that name (category
/// "mxn", argument `trace_arg`) marks the start of each retried attempt.
/// Returns the moved counts of the attempt that completed (this rank's sent
/// + received payload bytes), or std::nullopt when every attempt timed out;
/// `retries` receives the number of retried attempts in both cases.
std::optional<MovedCounts> run_reliable(const ReliableExchange& x,
                                        int max_retries, int& retries,
                                        const char* retry_instant = nullptr,
                                        std::uint64_t trace_arg = 0);

/// The same-rank leg of a relayout: extract every region of `d.local` from
/// `from` and inject it into `to` through one reused staging buffer.
/// Returns the bytes copied (`d.local_elements` × `from.elem_size`).
std::uint64_t copy_local_regions(const sched::DeltaSchedule& d,
                                 const FieldRegistration& from,
                                 const FieldRegistration& to);

}  // namespace mxn::core
