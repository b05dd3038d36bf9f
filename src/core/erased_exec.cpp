#include "core/erased_exec.hpp"

#include "rt/buffer.hpp"
#include "sched/executor.hpp"
#include "trace/trace.hpp"

namespace mxn::core {

using rt::UsageError;

void pack_regions(const FieldRegistration& f, const sched::PeerRegions& pr,
                  std::byte* out) {
  for (const auto& region : pr.regions) {
    f.extract(region, out);
    out += static_cast<std::size_t>(region.volume()) * f.elem_size;
  }
}

void inject_regions(const FieldRegistration& f, const sched::PeerRegions& pr,
                    const std::byte* in) {
  for (const auto& region : pr.regions) {
    f.inject(region, in);
    in += static_cast<std::size_t>(region.volume()) * f.elem_size;
  }
}

MovedCounts execute_erased(const sched::RegionSchedule& s,
                           const FieldRegistration* src,
                           const FieldRegistration* dst,
                           const sched::Coupling& c, int tag) {
  trace::Span span("sched.execute", "sched",
                   static_cast<std::uint64_t>(s.send_elements() +
                                              s.recv_elements()));
  MovedCounts moved;
  rt::Communicator channel = c.channel;
  if (!s.sends.empty()) {
    if (!src) throw UsageError("schedule has sends but no source field");
    if (!src->extract)
      throw UsageError("field '" + src->name +
                       "' is not readable (access mode)");
  }
  if (!s.recvs.empty()) {
    if (!dst) throw UsageError("schedule has recvs but no destination field");
    if (!dst->inject)
      throw UsageError("field '" + dst->name +
                       "' is not writable (access mode)");
  }
  for (const auto& pr : s.sends) {
    const std::size_t bytes =
        static_cast<std::size_t>(pr.elements) * src->elem_size;
    rt::Buffer buf = rt::Buffer::allocate(bytes);
    pack_regions(*src, pr, buf.mutable_data());
    rt::note_bytes_copied(bytes);
    moved.elements += static_cast<std::uint64_t>(pr.elements);
    moved.bytes += bytes;
    channel.isend(c.dst_ranks.at(pr.peer), tag, std::move(buf));
  }
  sched::detail::drain_arrival_order(
      channel, c.src_ranks, s.recvs, tag, c.recv_timeout_ms,
      [&](std::size_t i, rt::Message msg) {
        const auto& pr = s.recvs[i];
        if (msg.payload.size() !=
            static_cast<std::size_t>(pr.elements) * dst->elem_size)
          throw UsageError("erased transfer payload size mismatch");
        inject_regions(*dst, pr, msg.payload.data());
        moved.elements += static_cast<std::uint64_t>(pr.elements);
        moved.bytes += msg.payload.size();
      });
  return moved;
}

}  // namespace mxn::core
