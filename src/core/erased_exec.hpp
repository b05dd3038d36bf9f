#pragma once

#include <cstdint>

#include "core/field.hpp"
#include "sched/coupling.hpp"
#include "sched/schedule.hpp"

namespace mxn::core {

/// Traffic moved by one erased transfer (local view).
struct MovedCounts {
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
};

/// Byte-level twin of sched::execute: performs this process's share of a
/// region schedule through the type-erased pack/unpack closures of field
/// registrations. `src` may be null when this process has no sends, `dst`
/// null when it has no receives. Receives honor `c.recv_timeout_ms` and
/// inject each payload as it arrives.
MovedCounts execute_erased(const sched::RegionSchedule& s,
                           const FieldRegistration* src,
                           const FieldRegistration* dst,
                           const sched::Coupling& c, int tag);

/// Extract every region of `pr` from `f`, back to back, into `out`
/// (pr.elements × f.elem_size bytes) — the wire layout of one peer's
/// payload.
void pack_regions(const FieldRegistration& f, const sched::PeerRegions& pr,
                  std::byte* out);

/// Inverse of pack_regions: inject one peer's payload into `f`.
void inject_regions(const FieldRegistration& f, const sched::PeerRegions& pr,
                    const std::byte* in);

}  // namespace mxn::core
