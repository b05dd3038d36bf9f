#include "core/mxn_component.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "core/connection_impl.hpp"
#include "core/reliable_exchange.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::core {

using detail::kProposalTag;
using rt::UsageError;

void ConnectionSpec::pack(rt::PackBuffer& b) const {
  b.pack(src_field);
  b.pack(dst_field);
  b.pack(src_side);
  b.pack(one_shot);
  b.pack(period);
  b.pack(handshake);
  b.pack(reliable);
  b.pack(timeout_ms);
  b.pack(max_retries);
}

ConnectionSpec ConnectionSpec::unpack(rt::UnpackBuffer& u) {
  ConnectionSpec s;
  s.src_field = u.unpack_string();
  s.dst_field = u.unpack_string();
  s.src_side = u.unpack<int>();
  s.one_shot = u.unpack<bool>();
  s.period = u.unpack<int>();
  s.handshake = u.unpack<bool>();
  s.reliable = u.unpack<bool>();
  s.timeout_ms = u.unpack<int>();
  s.max_retries = u.unpack<int>();
  return s;
}

MxNComponent::MxNComponent(rt::Communicator channel, rt::Communicator cohort,
                           int side, std::vector<int> side0_ranks,
                           std::vector<int> side1_ranks)
    : channel_(std::move(channel)),
      cohort_(std::move(cohort)),
      side_(side) {
  if (side != 0 && side != 1) throw UsageError("side must be 0 or 1");
  side_ranks_[0] = std::move(side0_ranks);
  side_ranks_[1] = std::move(side1_ranks);
  if (static_cast<int>(side_ranks_[side_].size()) != cohort_.size())
    throw UsageError("cohort size does not match this side's rank list");
}

MxNComponent::~MxNComponent() = default;

void MxNComponent::set_services(Services& services) {
  services.add_provides_port(
      "mxn", "mxn.MxNService",
      std::shared_ptr<MxNService>(this, [](MxNService*) {}));
}

void MxNComponent::register_field(const FieldRegistration& field) {
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; fields are registered "
                     "by side members only");
  if (field.name.empty()) throw UsageError("field name must not be empty");
  if (!field.descriptor) throw UsageError("field needs a descriptor");
  if (field.elem_size == 0) throw UsageError("field elem_size must be > 0");
  if (field.descriptor->nranks() != cohort_.size())
    throw UsageError("field '" + field.name + "' is decomposed over " +
                     std::to_string(field.descriptor->nranks()) +
                     " ranks but the cohort has " +
                     std::to_string(cohort_.size()));
  if (fields_.count(field.name))
    throw UsageError("field '" + field.name + "' already registered");
  fields_[field.name] = field;
}

void MxNComponent::unregister_field(const std::string& name) {
  if (!fields_.erase(name))
    throw UsageError("field '" + name + "' is not registered");
}

const FieldRegistration& MxNComponent::field(const std::string& name) const {
  auto it = fields_.find(name);
  if (it == fields_.end())
    throw UsageError("field '" + name + "' is not registered");
  return it->second;
}

ConnectionId MxNComponent::establish(const ConnectionSpec& spec) {
  return elastic_ ? establish_elastic(spec) : establish_impl(spec);
}

ConnectionId MxNComponent::propose(const ConnectionSpec& spec) {
  if (elastic_)
    throw UsageError("elastic components establish connections "
                     "channel-collectively; propose/accept is a paired-mode "
                     "mechanism");
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    spec.pack(b);
    channel_.send(side_ranks_[1 - side_][0], kProposalTag,
                  std::move(b).take());
  }
  return establish_impl(spec);
}

ConnectionId MxNComponent::accept_proposal() {
  if (elastic_)
    throw UsageError("elastic components establish connections "
                     "channel-collectively; propose/accept is a paired-mode "
                     "mechanism");
  rt::Buffer bytes;
  if (cohort_.rank() == 0) {
    auto msg = channel_.recv(side_ranks_[1 - side_][0], kProposalTag);
    bytes = std::move(msg.payload);
  }
  bytes = cohort_.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  return establish_impl(ConnectionSpec::unpack(u));
}

ConnectionId MxNComponent::establish_impl(const ConnectionSpec& spec) {
  trace::Span span("mxn.establish", "mxn");
  if (spec.src_side != 0 && spec.src_side != 1)
    throw UsageError("spec.src_side must be 0 or 1");
  if (spec.period < 1) throw UsageError("spec.period must be >= 1");

  auto c = std::make_unique<Connection>();
  c->spec = spec;
  c->seq = seq_++;
  c->i_am_src = side_ == spec.src_side;
  c->i_am_dst = !c->i_am_src;

  const std::string& local_name =
      c->i_am_src ? spec.src_field : spec.dst_field;
  const FieldRegistration& local = field(local_name);
  if (c->i_am_src && !readable(local.mode))
    throw UsageError("field '" + local_name +
                     "' is write-only; cannot export it");
  if (c->i_am_dst && !writable(local.mode))
    throw UsageError("field '" + local_name +
                     "' is read-only; cannot import into it");

  // Exchange descriptors: cohort leaders swap over the channel, then
  // broadcast the peer's descriptor within the cohort.
  rt::Buffer peer_bytes;
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    local.descriptor->pack(b);
    channel_.send(side_ranks_[1 - side_][0], c->desc_tag(),
                  std::move(b).take());
    auto msg = channel_.recv(side_ranks_[1 - side_][0], c->desc_tag());
    peer_bytes = std::move(msg.payload);
  }
  peer_bytes = cohort_.bcast(std::move(peer_bytes), 0);
  rt::UnpackBuffer u(peer_bytes);
  auto peer_desc = std::make_shared<const dad::Descriptor>(
      dad::Descriptor::unpack(u));

  const dad::DescriptorPtr src_desc =
      c->i_am_src ? local.descriptor : peer_desc;
  const dad::DescriptorPtr dst_desc =
      c->i_am_dst ? local.descriptor : peer_desc;

  c->coupling.channel = channel_;
  c->coupling.src_ranks = side_ranks_[spec.src_side];
  c->coupling.dst_ranks = side_ranks_[1 - spec.src_side];
  c->coupling.recv_timeout_ms = spec.timeout_ms;

  const int my_src = c->i_am_src ? cohort_.rank() : -1;
  const int my_dst = c->i_am_dst ? cohort_.rank() : -1;
  c->schedule = cache_.get(src_desc, dst_desc, my_src, my_dst);

  const ConnectionId id = next_id_++;
  connections_[id] = std::move(c);
  return id;
}

void MxNComponent::run_transfer(Connection& c) {
  trace::Span span("mxn.transfer", "mxn",
                   static_cast<std::uint64_t>(c.seq));
  static trace::Counter& transfers = trace::counter("mxn.transfers");
  static trace::Counter& bytes = trace::counter("mxn.bytes");
  const FieldRegistration* src =
      c.i_am_src ? &field(c.spec.src_field) : nullptr;
  const FieldRegistration* dst =
      c.i_am_dst ? &field(c.spec.dst_field) : nullptr;
  const auto count = [&](const MovedCounts& moved) {
    c.stats.elements += moved.elements;
    c.stats.bytes += moved.bytes;
    transfers.add(1);
    bytes.add(moved.bytes);
  };
  // The spec's flags select the wire protocol; both sides hold the same
  // spec, so they agree on it. `reliable` takes precedence over
  // `handshake`.
  if (c.spec.reliable) {
    static trace::Counter& retries_ctr = trace::counter("mxn.retries");
    static trace::Counter& failures = trace::counter("mxn.transfer_failures");
    ReliableExchange x;
    x.schedule = c.schedule.get();
    x.src = src;
    x.dst = dst;
    x.coupling = &c.coupling;
    x.data_tag = c.data_tag();
    x.ack_tag = c.ack_tag();
    x.commit_tag = c.commit_tag();
    x.timeout_ms = c.spec.timeout_ms;
    x.serial = &c.epoch;
    int retries = 0;
    const auto moved = run_reliable(x, c.spec.max_retries, retries,
                                    "mxn.retry",
                                    static_cast<std::uint64_t>(c.seq));
    if (retries > 0) {
      c.stats.retries += static_cast<std::uint64_t>(retries);
      retries_ctr.add(static_cast<std::uint64_t>(retries));
    }
    if (!moved) {
      ++c.stats.failures;
      failures.add(1);
      trace::instant("mxn.transfer_failure", "mxn",
                     static_cast<std::uint64_t>(c.seq));
      throw TransferError(
          "reliable transfer on connection seq " + std::to_string(c.seq) +
          " failed after " + std::to_string(retries + 1) +
          " attempts; destination field left untouched");
    }
    count(*moved);
  } else {
    // Loose delivery: sends complete eagerly into mailboxes.
    count(execute_erased(*c.schedule, src, dst, c.coupling, c.data_tag()));
    if (c.spec.handshake) {
      // Tight synchronization (paper §4.1): every destination acks each
      // source peer, so the source blocks until its data was received.
      trace::Span hs("mxn.handshake", "mxn");
      rt::Communicator channel = c.coupling.channel;
      if (dst) {
        for (const auto& pr : c.schedule->recvs)
          channel.send(c.coupling.src_ranks.at(pr.peer), c.ack_tag(),
                       std::vector<std::byte>{});
      }
      if (src) {
        for (const auto& pr : c.schedule->sends)
          channel.recv(c.coupling.dst_ranks.at(pr.peer), c.ack_tag());
      }
    }
  }
  ++c.stats.transfers;
  if (c.spec.one_shot) c.retired = true;
}

int MxNComponent::data_ready(const std::string& field_name) {
  trace::Span span("mxn.data_ready", "mxn");
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; data_ready is for side "
                     "members only");
  // Require the field to exist, even if no connection currently moves it.
  (void)field(field_name);
  int moved = 0;
  for (auto& [id, cptr] : connections_) {
    Connection& c = *cptr;
    if (c.retired) continue;
    if (c.i_am_src && c.spec.src_field == field_name) {
      ++c.src_calls;
      if (c.src_calls % c.spec.period != 0) continue;
      run_transfer(c);
      ++moved;
    } else if (c.i_am_dst && c.spec.dst_field == field_name) {
      run_transfer(c);
      ++moved;
    }
  }
  return moved;
}

bool MxNComponent::data_ready_connection(ConnectionId id) {
  trace::Span span("mxn.data_ready_connection", "mxn");
  if (elastic_ && side_ < 0)
    throw UsageError("spectator ranks hold no data; data_ready is for side "
                     "members only");
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  Connection& c = *it->second;
  if (c.retired) return false;
  if (c.i_am_src) {
    ++c.src_calls;
    if (c.src_calls % c.spec.period != 0) return false;
  }
  run_transfer(c);
  return true;
}

void MxNComponent::disconnect(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  it->second->retired = true;
}

TransferStats MxNComponent::stats(ConnectionId id) const {
  auto it = connections_.find(id);
  if (it == connections_.end())
    throw UsageError("no such connection: " + std::to_string(id));
  return it->second->stats;
}

bool MxNComponent::active(ConnectionId id) const {
  auto it = connections_.find(id);
  return it != connections_.end() && !it->second->retired;
}

std::vector<std::byte> MxNComponent::checkpoint_fields() const {
  rt::PackBuffer b;
  std::uint64_t count = 0;
  for (const auto& [name, f] : fields_)
    if (f.extract) ++count;
  b.pack(count);
  const int me = cohort_.is_null() ? -1 : cohort_.rank();  // spectator: 0 fields
  for (const auto& [name, f] : fields_) {
    if (!f.extract) continue;  // write-only fields cannot be checkpointed
    b.pack(name);
    const auto& patches = f.descriptor->patches_of(me);
    std::vector<std::byte> local(
        static_cast<std::size_t>(f.descriptor->local_volume(me)) *
        f.elem_size);
    std::size_t off = 0;
    for (const auto& patch : patches) {
      f.extract(patch, local.data() + off);
      off += static_cast<std::size_t>(patch.volume()) * f.elem_size;
    }
    b.pack(local);
  }
  return std::move(b).take();
}

void MxNComponent::restore_fields(std::span<const std::byte> blob) {
  rt::UnpackBuffer u(blob);
  const auto count = u.unpack<std::uint64_t>();
  const int me = cohort_.is_null() ? -1 : cohort_.rank();  // spectator: 0 fields
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name = u.unpack_string();
    auto data = u.unpack_vector<std::byte>();
    const FieldRegistration& f = field(name);
    if (!f.inject)
      throw UsageError("field '" + name + "' is not writable; cannot "
                       "restore it");
    const std::size_t expect =
        static_cast<std::size_t>(f.descriptor->local_volume(me)) *
        f.elem_size;
    if (data.size() != expect)
      throw UsageError("checkpoint of field '" + name +
                       "' does not match the registered decomposition");
    std::size_t off = 0;
    for (const auto& patch : f.descriptor->patches_of(me)) {
      f.inject(patch, data.data() + off);
      off += static_cast<std::size_t>(patch.volume()) * f.elem_size;
    }
  }
}

std::shared_ptr<MxNComponent> make_paired_mxn(rt::Communicator world, int m,
                                              int n) {
  if (m + n != world.size())
    throw UsageError("make_paired_mxn: m + n must equal world size");
  const int side = world.rank() < m ? 0 : 1;
  auto cohort = world.split(side, world.rank());
  std::vector<int> side0(m), side1(n);
  for (int i = 0; i < m; ++i) side0[i] = i;
  for (int i = 0; i < n; ++i) side1[i] = m + i;
  return std::make_shared<MxNComponent>(world, cohort, side, side0, side1);
}

}  // namespace mxn::core
