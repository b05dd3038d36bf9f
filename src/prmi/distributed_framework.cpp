#include "prmi/distributed_framework.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/erased_exec.hpp"
#include "trace/trace.hpp"

namespace mxn::prmi {

using rt::UsageError;
using sidl::Mode;

namespace {

bool takes_input(Mode m) { return m != Mode::Out; }
bool yields_output(Mode m) { return m != Mode::In; }

/// Indices of the parallel parameters of a method, in signature order.
std::vector<int> parallel_params(const sidl::Method& m) {
  std::vector<int> out;
  for (std::size_t i = 0; i < m.params.size(); ++i)
    if (m.params[i].type.parallel) out.push_back(static_cast<int>(i));
  if (static_cast<int>(out.size()) > kMaxParallelParams)
    throw UsageError("too many parallel parameters in method '" + m.name +
                     "'");
  return out;
}

// Kinds carried on a connection's return-tag stream: ordinary returns,
// mid-call pull requests for deferred parallel parameters (§2.4, second
// strategy), and coalesced batch returns.
enum class ReplyKind : std::uint8_t { Return = 0, Pull = 1, Batch = 2 };

// Per-parallel-parameter layout flags in the layout reply.
enum class LayoutKind : std::uint8_t { Registered = 0, Deferred = 1 };

sched::Coupling make_coupling(rt::Communicator world,
                              const std::vector<int>& src,
                              const std::vector<int>& dst) {
  sched::Coupling c;
  c.channel = std::move(world);
  c.src_ranks = src;
  c.dst_ranks = dst;
  return c;
}

}  // namespace

// ===========================================================================
// DistributedFramework
// ===========================================================================

DistributedFramework::DistributedFramework(rt::Communicator world)
    : world_(std::move(world)) {}

DistributedFramework::ComponentInfo& DistributedFramework::comp(
    const std::string& name) {
  auto it = comps_.find(name);
  if (it == comps_.end())
    throw UsageError("no component named '" + name + "'");
  return it->second;
}

const DistributedFramework::ComponentInfo& DistributedFramework::comp(
    const std::string& name) const {
  auto it = comps_.find(name);
  if (it == comps_.end())
    throw UsageError("no component named '" + name + "'");
  return it->second;
}

void DistributedFramework::instantiate(const std::string& name,
                                       std::vector<int> world_ranks) {
  if (comps_.count(name))
    throw UsageError("component '" + name + "' already instantiated");
  if (world_ranks.empty())
    throw UsageError("component needs at least one process");
  for (int r : world_ranks)
    if (r < 0 || r >= world_.size())
      throw UsageError("component rank out of world range");

  const bool member = std::find(world_ranks.begin(), world_ranks.end(),
                                world_.rank()) != world_ranks.end();
  // Key the split so cohort rank order follows the world_ranks list order.
  int key = 0;
  if (member) {
    key = static_cast<int>(std::find(world_ranks.begin(), world_ranks.end(),
                                     world_.rank()) -
                           world_ranks.begin());
  }
  auto cohort = world_.split(member ? 0 : rt::kUndefinedColor, key);

  ComponentInfo info;
  info.index = next_comp_index_++;
  info.ranks = std::move(world_ranks);
  info.cohort = std::move(cohort);
  comps_[name] = std::move(info);
}

bool DistributedFramework::member_of(const std::string& name) const {
  const auto& c = comp(name);
  return std::find(c.ranks.begin(), c.ranks.end(), world_.rank()) !=
         c.ranks.end();
}

rt::Communicator DistributedFramework::cohort(const std::string& name) const {
  return comp(name).cohort;
}

void DistributedFramework::add_provides(const std::string& comp_name,
                                        const std::string& port,
                                        std::shared_ptr<Servant> servant) {
  if (!servant) throw UsageError("servant must not be null");
  auto& c = comp(comp_name);
  if (!member_of(comp_name))
    throw UsageError("add_provides: this process is not a member of '" +
                     comp_name + "'");
  if (c.provides.count(port))
    throw UsageError("component '" + comp_name +
                     "' already provides port '" + port + "'");
  c.provides[port] = std::move(servant);
}

void DistributedFramework::register_uses(const std::string& comp_name,
                                         const std::string& port,
                                         sidl::Interface iface) {
  auto& c = comp(comp_name);
  if (!member_of(comp_name))
    throw UsageError("register_uses: this process is not a member of '" +
                     comp_name + "'");
  if (c.uses.count(port))
    throw UsageError("component '" + comp_name + "' already uses port '" +
                     port + "'");
  c.uses[port] = std::move(iface);
}

void DistributedFramework::connect(const std::string& user_comp,
                                   const std::string& uses_port,
                                   const std::string& prov_comp,
                                   const std::string& prov_port) {
  auto& uc = comp(user_comp);
  auto& pc = comp(prov_comp);

  // The provider's first rank broadcasts the qualified interface name so the
  // user side can verify the connection is type-correct.
  rt::PackBuffer b;
  if (world_.rank() == pc.ranks[0]) {
    auto it = pc.provides.find(prov_port);
    if (it == pc.provides.end())
      throw UsageError("component '" + prov_comp +
                       "' does not provide port '" + prov_port + "'");
    b.pack(it->second->interface_desc().qualified);
  }
  auto bytes = world_.bcast(std::move(b).take(), pc.ranks[0]);
  rt::UnpackBuffer u(bytes);
  const std::string qname = u.unpack_string();

  if (member_of(prov_comp) && !pc.provides.count(prov_port))
    throw UsageError("component '" + prov_comp +
                     "' does not provide port '" + prov_port + "'");

  if (member_of(user_comp)) {
    auto it = uc.uses.find(uses_port);
    if (it == uc.uses.end())
      throw UsageError("component '" + user_comp + "' has no uses port '" +
                       uses_port + "'");
    if (it->second.qualified != qname)
      throw UsageError("interface mismatch: uses port expects '" +
                       it->second.qualified + "', provider implements '" +
                       qname + "'");
  }

  ConnectionInfo ci;
  ci.id = next_conn_id_++;
  ci.user_comp = user_comp;
  ci.uses_port = uses_port;
  ci.prov_comp = prov_comp;
  ci.prov_port = prov_port;
  ci.caller_ranks = uc.ranks;
  ci.callee_ranks = pc.ranks;
  ci.listen = listen_tag(pc.index);
  const int id = ci.id;
  conns_[id] = std::move(ci);
  if (member_of(user_comp)) uses_conn_[user_comp + "." + uses_port] = id;
}

std::shared_ptr<RemotePort> DistributedFramework::get_port(
    const std::string& comp_name, const std::string& uses_port) {
  auto it = uses_conn_.find(comp_name + "." + uses_port);
  if (it == uses_conn_.end())
    throw UsageError("uses port '" + comp_name + "." + uses_port +
                     "' is not connected");
  auto& c = comp(comp_name);
  const sidl::Interface& iface = c.uses.at(uses_port);
  auto key = comp_name + "." + uses_port;
  auto pit = proxies_.find(key);
  if (pit != proxies_.end()) return pit->second;
  auto proxy = std::shared_ptr<RemotePort>(
      new RemotePort(this, it->second, iface, c.cohort));
  proxies_[key] = proxy;
  return proxy;
}

int DistributedFramework::serve(const std::string& comp_name, int max_calls) {
  auto& provider = comp(comp_name);
  if (!member_of(comp_name))
    throw UsageError("serve: this process is not a member of '" + comp_name +
                     "'");
  int served = 0;
  bool shutdown = false;
  while (!shutdown && (max_calls < 0 || served < max_calls)) {
    rt::Message msg =
        world_.recv(rt::kAnySource, listen_tag(provider.index));
    served += dispatch(provider, std::move(msg), &shutdown);
  }
  return served;
}

int DistributedFramework::drain(const std::string& comp_name) {
  auto& provider = comp(comp_name);
  if (!member_of(comp_name))
    throw UsageError("drain: this process is not a member of '" + comp_name +
                     "'");
  const int tag = listen_tag(provider.index);
  int served = 0;
  bool shutdown = false;
  while (!shutdown && world_.probe(rt::kAnySource, tag)) {
    rt::Message msg = world_.recv(rt::kAnySource, tag);
    served += dispatch(provider, std::move(msg), &shutdown);
  }
  return served;
}

int DistributedFramework::serve_ordered(const std::string& comp_name,
                                        int max_calls) {
  auto& provider = comp(comp_name);
  if (!member_of(comp_name))
    throw UsageError("serve_ordered: this process is not a member of '" +
                     comp_name + "'");
  rt::Communicator cohort = provider.cohort;
  const int tag = listen_tag(provider.index);
  int served = 0;

  // Control block broadcast by the arbiter per decision.
  enum class Ctl : std::uint8_t { Stop, Go };

  while (max_calls < 0 || served < max_calls) {
    rt::Buffer ctl_bytes;
    rt::Message my_header;  // rank 0's own header for the announced call

    if (cohort.rank() == 0) {
      // Arbiter: pull the next listen-tag message; its arrival order IS the
      // global order.
      bool announced = false;
      while (!announced) {
        rt::Message msg = world_.recv(rt::kAnySource, tag);
        rt::UnpackBuffer u(msg.payload);
        const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
        const int conn_id = u.unpack<int>();
        auto& conn = conns_.at(conn_id);
        Servant& servant = *provider.provides.at(conn.prov_port);
        switch (kind) {
          case MsgKind::LayoutRequest:
            handle_layout_request(conn, servant, u, msg.src);
            break;  // control traffic; keep looking
          case MsgKind::Shutdown: {
            rt::PackBuffer b;
            b.pack(static_cast<std::uint8_t>(Ctl::Stop));
            ctl_bytes = std::move(b).take();
            announced = true;
            break;
          }
          case MsgKind::InvokeIndependent:
          case MsgKind::InvokeBatch:
            throw UsageError(
                "independent invocations cannot be globally ordered; use "
                "serve() for ports with independent methods");
          case MsgKind::Invoke: {
            // Peek seq/epoch/method/participants for the announcement.
            (void)u.unpack<int>();  // seq
            (void)u.unpack<int>();  // epoch
            (void)u.unpack<int>();  // method
            const auto participants = u.unpack_vector<int>();
            rt::PackBuffer b;
            b.pack(static_cast<std::uint8_t>(Ctl::Go));
            b.pack(conn_id);
            b.pack(participants);
            ctl_bytes = std::move(b).take();
            my_header = std::move(msg);
            announced = true;
            break;
          }
        }
      }
    }

    ctl_bytes = cohort.bcast(std::move(ctl_bytes), 0);
    rt::UnpackBuffer cu(ctl_bytes);
    if (static_cast<Ctl>(cu.unpack<std::uint8_t>()) == Ctl::Stop) break;
    const int conn_id = cu.unpack<int>();
    const auto participants = cu.unpack_vector<int>();

    rt::Message header;
    if (cohort.rank() == 0) {
      header = std::move(my_header);
    } else {
      // Pull OUR header for the announced call: from our designated caller,
      // oldest Invoke on the announced connection (FIFO among matches keeps
      // same-(conn, caller) streams in program order).
      const int designated =
          participants.at(cohort.rank() % participants.size());
      header = world_.recv_matching(
          designated, tag, [&](const rt::Message& m) {
            rt::UnpackBuffer u(m.payload);
            const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
            return kind == MsgKind::Invoke && u.unpack<int>() == conn_id;
          });
    }

    rt::UnpackBuffer u(header.payload);
    (void)u.unpack<std::uint8_t>();  // kind
    (void)u.unpack<int>();           // conn
    auto& conn = conns_.at(conn_id);
    Servant& servant = *provider.provides.at(conn.prov_port);
    if (handle_invoke(conn, servant, u, /*independent=*/false, header.src))
      ++served;
  }
  return served;
}

int DistributedFramework::dispatch(ComponentInfo& provider, rt::Message msg,
                                   bool* shutdown) {
  rt::UnpackBuffer u(msg.payload);
  const auto kind = static_cast<MsgKind>(u.unpack<std::uint8_t>());
  const int conn_id = u.unpack<int>();
  auto cit = conns_.find(conn_id);
  if (cit == conns_.end())
    throw UsageError("message for unknown connection " +
                     std::to_string(conn_id));
  ConnectionInfo& conn = cit->second;
  Servant& servant = *provider.provides.at(conn.prov_port);

  switch (kind) {
    case MsgKind::Invoke:
      return handle_invoke(conn, servant, u, /*independent=*/false, msg.src)
                 ? 1
                 : 0;
    case MsgKind::InvokeIndependent:
      return handle_invoke(conn, servant, u, /*independent=*/true, msg.src)
                 ? 1
                 : 0;
    case MsgKind::InvokeBatch:
      return handle_invoke_batch(conn, servant, u, msg.src);
    case MsgKind::LayoutRequest:
      handle_layout_request(conn, servant, u, msg.src);
      return 0;
    case MsgKind::Shutdown:
      *shutdown = true;
      return 0;
  }
  throw UsageError("corrupt PRMI header");
}

void DistributedFramework::handle_layout_request(ConnectionInfo& conn,
                                                 Servant& servant,
                                                 rt::UnpackBuffer& u,
                                                 int src_world) {
  const int midx = u.unpack<int>();
  const auto& m = servant.interface_desc().methods.at(midx);
  rt::PackBuffer reply;
  std::string missing;
  std::vector<const core::FieldRegistration*> targets;  // null => deferred
  for (int p : parallel_params(m)) {
    const auto* t = servant.parallel_target(m.name, m.params[p].name);
    if (!t && yields_output(m.params[p].mode)) {
      // Deferral only works for inputs: outputs must flow back before the
      // call completes, so their layout must be known up front.
      missing = m.params[p].name;
      break;
    }
    targets.push_back(t);
  }
  if (!missing.empty()) {
    reply.pack(static_cast<std::uint8_t>(CallStatus::Error));
    reply.pack(std::string("no parallel target registered for out/inout "
                           "parameter '" +
                           missing + "' of method '" + m.name + "'"));
  } else {
    reply.pack(static_cast<std::uint8_t>(CallStatus::Ok));
    for (const auto* t : targets) {
      if (t) {
        reply.pack(static_cast<std::uint8_t>(LayoutKind::Registered));
        t->descriptor->pack(reply);
      } else {
        reply.pack(static_cast<std::uint8_t>(LayoutKind::Deferred));
      }
    }
  }
  world_.send(src_world, layout_reply_tag(conn.id), std::move(reply).take());
}

bool DistributedFramework::handle_invoke(ConnectionInfo& conn,
                                         Servant& servant,
                                         rt::UnpackBuffer& u,
                                         bool independent, int src_world) {
  trace::Span span("prmi.handle", "prmi",
                   static_cast<std::uint64_t>(conn.id));
  const int seq = u.unpack<int>();
  const int epoch = u.unpack<int>();  // caller attempt number, 0 = first
  const int midx = u.unpack<int>();
  const auto participants = u.unpack_vector<int>();
  const auto& iface = servant.interface_desc();
  const auto& m = iface.methods.at(midx);

  // Duplicate detection (docs/FAULTS.md). Sequence numbers are strictly
  // increasing per stream; gaps are legal because a caller's counter
  // advances on every call even when the routing (M != N, independent
  // targets) sends it no header for some of them. A header at or below the
  // watermark is a retransmission of a call this rank already executed:
  // never re-run the handler — resend the cached reply so the retrying
  // caller can complete (idempotent, at-most-once execution). Collective
  // calls are tracked per connection because the retransmitted header may
  // arrive from a different caller rank than the original.
  int& last =
      independent ? conn.last_seq[src_world] : conn.last_collective_seq;
  if (seq <= last) {
    static trace::Counter& dups = trace::counter("prmi.dup_requests");
    dups.add(1);
    trace::instant("prmi.dup_request", "prmi",
                   static_cast<std::uint64_t>(seq));
    auto it = conn.reply_cache.find(src_world);
    if (it != conn.reply_cache.end() && it->second.first == seq)
      world_.send(src_world, return_tag(conn.id), it->second.second);
    return false;
  }
  last = seq;
  if (epoch > 0)
    trace::instant("prmi.late_first_delivery", "prmi",
                   static_cast<std::uint64_t>(epoch));

  auto& provider = comp(conn.prov_comp);
  const int j = provider.cohort.rank();
  const int caller_count = static_cast<int>(participants.size());

  // Unpack simple input arguments.
  std::vector<Value> args(m.params.size());
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const auto& p = m.params[i];
    if (!p.type.parallel && takes_input(p.mode))
      args[i] = unpack_value(u, p.type);
  }
  // Caller-side descriptors of the parallel parameters.
  const auto pidx = parallel_params(m);
  std::vector<dad::DescriptorPtr> caller_descs;
  caller_descs.reserve(pidx.size());
  for (std::size_t k = 0; k < pidx.size(); ++k)
    caller_descs.push_back(std::make_shared<const dad::Descriptor>(
        dad::Descriptor::unpack(u)));

  auto coupling_in = make_coupling(world_, participants, conn.callee_ranks);

  // Redistribute parallel inputs into the pre-registered targets; inputs
  // without a target are DEFERRED — the handler pulls them when it has
  // decided the layout (§2.4, second strategy).
  std::vector<const core::FieldRegistration*> targets(pidx.size(), nullptr);
  std::vector<bool> deferred(pidx.size(), false);
  for (std::size_t k = 0; k < pidx.size(); ++k) {
    const auto& p = m.params[pidx[k]];
    targets[k] = servant.parallel_target(m.name, p.name);
    if (!targets[k]) {
      if (yields_output(p.mode))
        throw UsageError("no parallel target for out/inout '" + p.name +
                         "' of '" + m.name + "'");
      deferred[k] = true;
      continue;  // args slot stays empty until pulled
    }
    if (takes_input(p.mode)) {
      const auto s = cache_.get(caller_descs[k], targets[k]->descriptor,
                                -1, j);
      core::execute_erased(*s, nullptr, targets[k], coupling_in,
                           data_in_tag(conn.id, static_cast<int>(k)));
    }
    args[pidx[k]] = ParallelRef{targets[k]};
  }

  // Run the handler on this cohort rank.
  CalleeContext ctx;
  ctx.cohort = provider.cohort;
  ctx.caller_count = caller_count;
  ctx.collective = !independent;
  ctx.seq = seq;
  ctx.pull = [&](int param_index, const core::FieldRegistration& target) {
    if (m.oneway)
      throw UsageError("oneway handlers cannot pull deferred parameters");
    int k = -1;
    for (std::size_t i2 = 0; i2 < pidx.size(); ++i2)
      if (pidx[i2] == param_index) k = static_cast<int>(i2);
    if (k < 0 || !deferred[k])
      throw UsageError("pull: parameter " + std::to_string(param_index) +
                       " of '" + m.name + "' is not a deferred parallel "
                       "input");
    if (!target.descriptor || !target.inject)
      throw UsageError("pull target needs a descriptor and write access");
    // The cohort leader asks every participant to send; all ranks receive
    // their share.
    if (j == 0) {
      rt::PackBuffer b;
      b.pack(static_cast<std::uint8_t>(ReplyKind::Pull));
      b.pack(k);
      target.descriptor->pack(b);
      // One refcounted block fanned to every participant.
      const rt::Buffer bytes = std::move(b).take_buffer();
      for (int pw : participants)
        world_.send(pw, return_tag(conn.id), bytes);
    }
    const auto s =
        cache_.get(caller_descs[k], target.descriptor, -1, j);
    core::execute_erased(*s, nullptr, &target, coupling_in,
                         data_in_tag(conn.id, k));
  };

  Value ret;
  CallStatus status = CallStatus::Ok;
  std::string error;
  try {
    ret = servant.handler(m.name)(ctx, args);
  } catch (const std::exception& e) {
    status = CallStatus::Error;
    error = e.what();
  }

  if (m.oneway) return true;

  // Return values: independent calls answer their single caller; collective
  // calls answer the caller ranks mapped to this callee (replicating the
  // return when M > N — every caller receives a value, §4.2).
  rt::PackBuffer reply;
  reply.pack(static_cast<std::uint8_t>(ReplyKind::Return));
  reply.pack(static_cast<std::uint8_t>(status));
  reply.pack(seq);
  if (status == CallStatus::Ok) {
    if (m.ret.kind != sidl::TypeKind::Void) pack_value(reply, ret, m.ret);
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      const auto& p = m.params[i];
      if (!p.type.parallel && yields_output(p.mode))
        pack_value(reply, args[i], p.type);
    }
  } else {
    reply.pack(error);
  }
  // The cache entry and every destination share one reply block.
  const rt::Buffer reply_bytes = std::move(reply).take_buffer();

  if (independent) {
    conn.reply_cache[src_world] = {seq, reply_bytes};
    world_.send(src_world, return_tag(conn.id), reply_bytes);
  } else {
    const int n = static_cast<int>(conn.callee_ranks.size());
    for (int i = j; i < caller_count; i += n) {
      conn.reply_cache[participants[i]] = {seq, reply_bytes};
      world_.send(participants[i], return_tag(conn.id), reply_bytes);
    }
  }

  // Parallel outputs flow back, roles reversed.
  if (status == CallStatus::Ok && !independent) {
    auto coupling_out =
        make_coupling(world_, conn.callee_ranks, participants);
    for (std::size_t k = 0; k < pidx.size(); ++k) {
      const auto& p = m.params[pidx[k]];
      if (!yields_output(p.mode)) continue;
      const auto s = cache_.get(targets[k]->descriptor, caller_descs[k], j,
                                -1);
      core::execute_erased(*s, targets[k], nullptr, coupling_out,
                           data_out_tag(conn.id, static_cast<int>(k)));
    }
  }
  return true;
}

int DistributedFramework::handle_invoke_batch(ConnectionInfo& conn,
                                              Servant& servant,
                                              rt::UnpackBuffer& u,
                                              int src_world) {
  trace::Span span("prmi.handle_batch", "prmi",
                   static_cast<std::uint64_t>(conn.id));
  const int epoch = u.unpack<int>();
  const int first_seq = u.unpack<int>();
  const int count = u.unpack<int>();
  const auto participants = u.unpack_vector<int>();

  // Batch-wide dedup: the batch travelled as ONE wire message, so delivery
  // is all-or-nothing — if its first sub-sequence is at or below the
  // per-source watermark, this rank already executed the whole batch (the
  // watermark only advances past first_seq when the batch completes).
  // Answer wholesale from the reply cache.
  int& last = conn.last_seq[src_world];
  if (first_seq <= last) {
    static trace::Counter& dups = trace::counter("prmi.dup_requests");
    dups.add(1);
    trace::instant("prmi.dup_request", "prmi",
                   static_cast<std::uint64_t>(first_seq));
    auto it = conn.reply_cache.find(src_world);
    if (it != conn.reply_cache.end() && it->second.first == first_seq)
      world_.send(src_world, return_tag(conn.id), it->second.second);
    return 0;
  }
  if (epoch > 0)
    trace::instant("prmi.late_first_delivery", "prmi",
                   static_cast<std::uint64_t>(epoch));

  auto& provider = comp(conn.prov_comp);
  CalleeContext ctx;
  ctx.cohort = provider.cohort;
  ctx.caller_count = static_cast<int>(participants.size());
  ctx.collective = false;

  rt::PackBuffer reply;
  reply.pack(static_cast<std::uint8_t>(ReplyKind::Batch));
  reply.pack(first_seq);
  reply.pack(count);
  int executed = 0;
  for (int i = 0; i < count; ++i) {
    const int seq = u.unpack<int>();
    const int midx = u.unpack<int>();
    const auto arg_bytes = u.unpack_vector<std::byte>();
    const auto& m = servant.interface_desc().methods.at(midx);
    if (!parallel_params(m).empty())
      throw UsageError("batched call to '" + m.name +
                       "' carries parallel parameters");
    rt::UnpackBuffer au(arg_bytes);
    std::vector<Value> args(m.params.size());
    for (std::size_t p = 0; p < m.params.size(); ++p)
      if (takes_input(m.params[p].mode))
        args[p] = unpack_value(au, m.params[p].type);
    ctx.seq = seq;
    Value ret;
    CallStatus status = CallStatus::Ok;
    std::string error;
    try {
      ret = servant.handler(m.name)(ctx, args);
    } catch (const std::exception& e) {
      status = CallStatus::Error;
      error = e.what();
    }
    reply.pack(static_cast<std::uint8_t>(status));
    reply.pack(seq);
    if (status == CallStatus::Ok) {
      if (m.ret.kind != sidl::TypeKind::Void) pack_value(reply, ret, m.ret);
      for (std::size_t p = 0; p < m.params.size(); ++p)
        if (yields_output(m.params[p].mode))
          pack_value(reply, args[p], m.params[p].type);
    } else {
      reply.pack(error);
    }
    last = seq;
    ++executed;
  }

  static trace::Counter& batches = trace::counter("prmi.batches");
  static trace::Counter& batched = trace::counter("prmi.batched_calls");
  batches.add(1);
  batched.add(static_cast<std::uint64_t>(executed));

  // One reply block: the cache entry and the send share it, and a
  // retransmitted batch resends it without re-execution.
  const rt::Buffer reply_bytes = std::move(reply).take_buffer();
  conn.reply_cache[src_world] = {first_seq, reply_bytes};
  world_.send(src_world, return_tag(conn.id), reply_bytes);
  return executed;
}

// ===========================================================================
// RemotePort
// ===========================================================================

RemotePort::RemotePort(DistributedFramework* fw, int conn,
                       sidl::Interface iface, rt::Communicator cohort)
    : fw_(fw), conn_(conn), iface_(std::move(iface)),
      cohort_(std::move(cohort)) {
  participants_world_ = fw_->conns_.at(conn_).caller_ranks;
}

std::shared_ptr<RemotePort> RemotePort::subset(
    const std::vector<int>& cohort_ranks) {
  const int me = cohort_.rank();
  int key = 0;
  bool member = false;
  std::vector<int> world;
  world.reserve(cohort_ranks.size());
  for (std::size_t i = 0; i < cohort_ranks.size(); ++i) {
    const int r = cohort_ranks[i];
    if (r < 0 || r >= cohort_.size())
      throw UsageError("subset rank out of cohort range");
    world.push_back(participants_world_.at(r));
    if (r == me) {
      member = true;
      key = static_cast<int>(i);
    }
  }
  auto sub = cohort_.split(member ? 0 : rt::kUndefinedColor, key);
  if (!member) return nullptr;
  auto proxy = std::shared_ptr<RemotePort>(
      new RemotePort(fw_, conn_, iface_, std::move(sub)));
  proxy->participants_world_ = std::move(world);
  proxy->seq_ = seq_;  // share per-connection monotonic sequence numbers
  proxy->check_simple_ = check_simple_;
  proxy->retry_ = retry_;
  return proxy;
}

const std::vector<std::optional<dad::DescriptorPtr>>& RemotePort::layouts(
    int method_idx, const sidl::Method& m) {
  auto it = layout_cache_.find(method_idx);
  if (it != layout_cache_.end()) return it->second;

  auto& conn = fw_->conns_.at(conn_);
  rt::Buffer bytes;
  if (cohort_.rank() == 0) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(MsgKind::LayoutRequest));
    b.pack(conn_);
    b.pack(method_idx);
    fw_->world_.send(conn.callee_ranks[0], conn.listen, std::move(b).take());
    bytes = fw_->world_.recv(conn.callee_ranks[0], layout_reply_tag(conn_))
                .payload;
  }
  bytes = cohort_.bcast(std::move(bytes), 0);
  rt::UnpackBuffer u(bytes);
  const auto status = static_cast<CallStatus>(u.unpack<std::uint8_t>());
  if (status == CallStatus::Error) throw RemoteError(u.unpack_string());
  std::vector<std::optional<dad::DescriptorPtr>> descs;
  for (std::size_t k = 0; k < parallel_params(m).size(); ++k) {
    if (static_cast<LayoutKind>(u.unpack<std::uint8_t>()) ==
        LayoutKind::Deferred) {
      descs.push_back(std::nullopt);
    } else {
      descs.push_back(std::make_shared<const dad::Descriptor>(
          dad::Descriptor::unpack(u)));
    }
  }
  return layout_cache_[method_idx] = std::move(descs);
}

RemotePort::Result RemotePort::invoke(MsgKind kind,
                                      const std::string& method_name,
                                      std::vector<Value> args,
                                      bool oneway_call, int target) {
  auto& conn = fw_->conns_.at(conn_);
  if (!pending_.empty())
    throw UsageError("proxy has " + std::to_string(pending_.size()) +
                     " queued batched call(s); flush_batch() before making "
                     "non-batched calls (sequence numbers must hit the wire "
                     "in order)");
  const int midx = iface_.method_index(method_name);
  const auto& m = iface_.methods[midx];
  const int caller_count = static_cast<int>(participants_world_.size());
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  const int my = cohort_.rank();  // participant index
  const bool independent = kind == MsgKind::InvokeIndependent;

  if (args.size() != m.params.size())
    throw UsageError("method '" + method_name + "' takes " +
                     std::to_string(m.params.size()) + " arguments, got " +
                     std::to_string(args.size()));
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const auto& p = m.params[i];
    if (!p.type.parallel && p.mode == Mode::Out) continue;  // slot
    if (!conforms(args[i], p.type))
      throw TypeMismatch("argument '" + p.name + "' of '" + method_name +
                         "' does not match " + p.type.to_string());
  }

  // Optional enforcement of the simple-argument convention (§2.4).
  if (check_simple_ && !independent) {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      const auto& p = m.params[i];
      if (!p.type.parallel && takes_input(p.mode))
        h = h * 31 + value_hash(args[i], p.type);
    }
    // One 2-element min-allreduce instead of a min round plus a max round:
    // min(~h) == ~max(h), so {h, ~h} under min yields both extremes.
    const std::uint64_t pair[2] = {h, ~h};
    const auto mins = cohort_.allreduce(
        std::span<const std::uint64_t>(pair),
        [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
    const std::uint64_t lo = mins[0];
    const std::uint64_t hi = ~mins[1];
    if (lo != hi)
      throw UsageError("simple arguments of '" + method_name +
                       "' differ across caller ranks");
  }

  const auto pidx = parallel_params(m);
  const std::vector<std::optional<dad::DescriptorPtr>>* callee_layouts =
      nullptr;
  bool any_deferred = false;
  if (!pidx.empty()) {
    callee_layouts = &layouts(midx, m);
    for (const auto& d : *callee_layouts) any_deferred = any_deferred || !d;
    if (any_deferred && oneway_call)
      throw UsageError(
          "oneway methods cannot take deferred parallel parameters (nobody "
          "stays to serve the pull)");
  }

  const int seq = ++*seq_;

  static trace::Histogram& invoke_ns = trace::histogram("prmi.invoke_ns");
  static trace::Counter& invocations = trace::counter("prmi.invocations");
  invocations.add(1);
  trace::Span invoke_span("prmi.invoke", "prmi",
                          static_cast<std::uint64_t>(seq), &invoke_ns);

  // Header. It carries the participants' world ranks: with subset
  // participation the callee cannot derive them from static connection
  // metadata ("any parallel remote invocation must somehow include
  // sufficient information to identify the participating tasks", §2.4).
  // Rebuilt per attempt: the epoch field distinguishes retransmissions.
  auto make_header = [&](int epoch) {
    trace::Span marshal("prmi.marshal", "prmi");
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(kind));
    b.pack(conn_);
    b.pack(seq);
    b.pack(epoch);
    b.pack(midx);
    b.pack(participants_world_);
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      const auto& p = m.params[i];
      if (!p.type.parallel && takes_input(p.mode))
        pack_value(b, args[i], p.type);
    }
    for (int p : pidx)
      std::get<ParallelRef>(args[p]).binding->descriptor->pack(b);
    return std::move(b).take_buffer();
  };

  if (independent) {
    if (target < 0) target = my % callee_count;
    if (target >= callee_count)
      throw UsageError("independent call target rank out of range");
  }
  // The callee whose reply this rank waits for. For collective calls it is
  // `my % callee_count` — included on retries even when the original
  // routing sent it no header from this rank (M > N), so the resend always
  // reaches the rank holding our cached reply.
  const int replier = independent ? target : my % callee_count;
  auto send_headers = [&](int epoch) {
    // All callees share one refcounted header block.
    const rt::Buffer header = make_header(epoch);
    trace::Span deliver("prmi.deliver", "prmi", header.size());
    if (independent) {
      fw_->world_.send(conn.callee_ranks[target], conn.listen, header);
      return;
    }
    bool sent_to_replier = false;
    for (int j = my; j < callee_count; j += caller_count) {
      fw_->world_.send(conn.callee_ranks[j], conn.listen, header);
      sent_to_replier = sent_to_replier || j == replier;
    }
    if (epoch > 0 && !sent_to_replier)
      fw_->world_.send(conn.callee_ranks[replier], conn.listen, header);
  };

  {
    send_headers(/*epoch=*/0);
    trace::Span deliver("prmi.deliver_parallel", "prmi");

    // Parallel inputs.
    if (!pidx.empty()) {
      auto coupling =
          make_coupling(fw_->world_, participants_world_, conn.callee_ranks);
      for (std::size_t k = 0; k < pidx.size(); ++k) {
        const auto& p = m.params[pidx[k]];
        if (!takes_input(p.mode)) continue;
        if (!(*callee_layouts)[k]) continue;  // deferred: pulled mid-call
        const auto* binding = std::get<ParallelRef>(args[pidx[k]]).binding;
        const auto s = fw_->cache_.get(binding->descriptor,
                                       *(*callee_layouts)[k], my, -1);
        core::execute_erased(*s, binding, nullptr, coupling,
                             data_in_tag(conn_, static_cast<int>(k)));
      }
    }
  }

  if (oneway_call) return {};

  // Retry eligibility (docs/FAULTS.md): parallel/deferred parameters carry
  // data streams that cannot be replayed, so those methods get the deadline
  // (typed TimeoutError) but no resend.
  const bool can_retry =
      retry_ && retry_->max_retries > 0 && pidx.empty() && !any_deferred;
  const int wait_ms = retry_ ? retry_->timeout_ms : -1;
  int attempt = 0;

  // Park on the reply stream: serve any mid-call pull requests for
  // deferred parameters, discard stale replies (a retried predecessor's
  // duplicate), retry on deadline expiry, then take the return.
  rt::Message msg;
  {
    trace::Span wait_ret("prmi.wait_return", "prmi");
    while (true) {
      try {
        msg = fw_->world_.recv(rt::kAnySource, return_tag(conn_), wait_ms);
      } catch (const rt::TimeoutError&) {
        if (!can_retry || attempt >= retry_->max_retries) throw;
        ++attempt;
        static trace::Counter& retries = trace::counter("prmi.retries");
        retries.add(1);
        trace::instant("prmi.retry", "prmi",
                       static_cast<std::uint64_t>(seq));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retry_->backoff_ms * attempt));
        send_headers(attempt);
        continue;
      }
      rt::UnpackBuffer peek(msg.payload);
      const auto rkind = static_cast<ReplyKind>(peek.unpack<std::uint8_t>());
      if (rkind == ReplyKind::Batch) {
        // A duplicated batch reply from an earlier flush (retry fallout);
        // the flush that owned it already completed, so it is always stale
        // by the time a plain call is in flight.
        static trace::Counter& stale = trace::counter("prmi.stale_replies");
        stale.add(1);
        trace::instant("prmi.stale_reply", "prmi");
        continue;
      }
      if (rkind == ReplyKind::Return) {
        (void)peek.unpack<std::uint8_t>();  // status
        const int rseq = peek.unpack<int>();
        if (rseq < seq) {  // stale duplicate of an earlier call's reply
          static trace::Counter& stale = trace::counter("prmi.stale_replies");
          stale.add(1);
          trace::instant("prmi.stale_reply", "prmi",
                         static_cast<std::uint64_t>(rseq));
          continue;
        }
        break;
      }
      // Pull request: {param index within the parallel list, dst descriptor}.
      const int k = peek.unpack<int>();
      auto dst_desc = std::make_shared<const dad::Descriptor>(
          dad::Descriptor::unpack(peek));
      const auto* binding = std::get<ParallelRef>(args[pidx.at(k)]).binding;
      auto coupling =
          make_coupling(fw_->world_, participants_world_, conn.callee_ranks);
      const auto s =
          fw_->cache_.get(binding->descriptor, dst_desc, my, -1);
      core::execute_erased(*s, binding, nullptr, coupling,
                           data_in_tag(conn_, k));
    }
  }
  rt::UnpackBuffer u(msg.payload);
  (void)u.unpack<std::uint8_t>();  // ReplyKind::Return
  const auto status = static_cast<CallStatus>(u.unpack<std::uint8_t>());
  const int rseq = u.unpack<int>();
  if (rseq != seq)
    throw UsageError("return sequence mismatch on connection " +
                     std::to_string(conn_));
  if (status == CallStatus::Error) throw RemoteError(u.unpack_string());

  Result result;
  if (m.ret.kind != sidl::TypeKind::Void)
    result.ret = unpack_value(u, m.ret);
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const auto& p = m.params[i];
    if (!p.type.parallel && yields_output(p.mode))
      args[i] = unpack_value(u, p.type);
  }

  // Parallel outputs.
  if (!pidx.empty() && !independent) {
    auto coupling =
        make_coupling(fw_->world_, conn.callee_ranks, participants_world_);
    for (std::size_t k = 0; k < pidx.size(); ++k) {
      const auto& p = m.params[pidx[k]];
      if (!yields_output(p.mode)) continue;
      const auto* binding = std::get<ParallelRef>(args[pidx[k]]).binding;
      // Out/inout parallel params are always Registered (layout fetch
      // enforces it), so the optional holds a descriptor here.
      const auto s = fw_->cache_.get(*(*callee_layouts)[k],
                                     binding->descriptor, -1, my);
      core::execute_erased(*s, nullptr, binding, coupling,
                           data_out_tag(conn_, static_cast<int>(k)));
    }
  }

  result.args = std::move(args);
  return result;
}

RemotePort::Result RemotePort::call(const std::string& method,
                                    std::vector<Value> args) {
  const auto& m = iface_.method(method);
  if (m.kind != sidl::InvocationKind::Collective)
    throw UsageError("method '" + method +
                     "' is independent; use call_independent");
  if (m.oneway)
    throw UsageError("method '" + method + "' is oneway; use call_oneway");
  return invoke(MsgKind::Invoke, method, std::move(args), false, -1);
}

void RemotePort::call_oneway(const std::string& method,
                             std::vector<Value> args) {
  const auto& m = iface_.method(method);
  if (!m.oneway)
    throw UsageError("method '" + method + "' is not oneway");
  if (m.kind != sidl::InvocationKind::Collective)
    throw UsageError("oneway independent methods use call_independent");
  invoke(MsgKind::Invoke, method, std::move(args), true, -1);
}

RemotePort::Result RemotePort::call_independent(const std::string& method,
                                                std::vector<Value> args,
                                                int target) {
  const auto& m = iface_.method(method);
  if (m.kind != sidl::InvocationKind::Independent)
    throw UsageError("method '" + method +
                     "' is collective; use call / call_oneway");
  return invoke(MsgKind::InvokeIndependent, method, std::move(args),
                m.oneway, target);
}

int RemotePort::queue_independent(const std::string& method,
                                  std::vector<Value> args, int target) {
  auto& conn = fw_->conns_.at(conn_);
  const int midx = iface_.method_index(method);
  const auto& m = iface_.methods[midx];
  if (m.kind != sidl::InvocationKind::Independent)
    throw UsageError("method '" + method +
                     "' is collective; only independent calls can be "
                     "batched");
  if (m.oneway)
    throw UsageError("oneway methods cannot be batched (a batch completes "
                     "through its reply)");
  if (!parallel_params(m).empty())
    throw UsageError("method '" + method +
                     "' has parallel parameters; its data streams cannot "
                     "be coalesced");
  if (args.size() != m.params.size())
    throw UsageError("method '" + method + "' takes " +
                     std::to_string(m.params.size()) + " arguments, got " +
                     std::to_string(args.size()));
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const auto& p = m.params[i];
    if (p.mode == Mode::Out) continue;  // slot
    if (!conforms(args[i], p.type))
      throw TypeMismatch("argument '" + p.name + "' of '" + method +
                         "' does not match " + p.type.to_string());
  }
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  if (target < 0) target = cohort_.rank() % callee_count;
  if (target >= callee_count)
    throw UsageError("independent call target rank out of range");

  PendingCall pc;
  pc.seq = ++*seq_;  // the ordinary per-connection counter: dedup machinery
                     // sees batched and plain calls as one stream
  pc.midx = midx;
  pc.target = target;
  rt::PackBuffer b;
  for (std::size_t i = 0; i < m.params.size(); ++i)
    if (takes_input(m.params[i].mode)) pack_value(b, args[i], m.params[i].type);
  pc.args = std::move(b).take();
  pending_.push_back(std::move(pc));
  return static_cast<int>(pending_.size()) - 1;
}

std::vector<RemotePort::Result> RemotePort::flush_batch() {
  if (pending_.empty()) return {};
  auto& conn = fw_->conns_.at(conn_);

  static trace::Counter& batches = trace::counter("prmi.batches_sent");
  static trace::Counter& batched = trace::counter("prmi.batched_calls_sent");
  trace::Span span("prmi.flush_batch", "prmi", pending_.size());

  // Group queued calls by target callee, preserving queue order per target.
  std::map<int, std::vector<std::size_t>> by_target;
  for (std::size_t i = 0; i < pending_.size(); ++i)
    by_target[pending_[i].target].push_back(i);

  // One wire message per target. Rebuilt per attempt (the epoch field
  // distinguishes retransmissions, as for plain calls).
  auto make_batch = [&](int target, const std::vector<std::size_t>& idxs,
                        int epoch) {
    rt::PackBuffer b;
    b.pack(static_cast<std::uint8_t>(MsgKind::InvokeBatch));
    b.pack(conn_);
    b.pack(epoch);
    b.pack(pending_[idxs.front()].seq);  // first_seq: the dedup key
    b.pack(static_cast<int>(idxs.size()));
    b.pack(participants_world_);
    for (std::size_t i : idxs) {
      b.pack(pending_[i].seq);
      b.pack(pending_[i].midx);
      b.pack(pending_[i].args);
    }
    (void)target;
    return std::move(b).take_buffer();
  };
  for (const auto& [target, idxs] : by_target) {
    fw_->world_.send(conn.callee_ranks[target], conn.listen,
                     make_batch(target, idxs, /*epoch=*/0));
    batches.add(1);
    batched.add(idxs.size());
  }

  // Collect one batch reply per target. Receives are per-source, so
  // replies from different targets cannot be confused; per-(src, tag) FIFO
  // keeps each target's stream ordered.
  const bool can_retry = retry_ && retry_->max_retries > 0;
  const int wait_ms = retry_ ? retry_->timeout_ms : -1;
  std::vector<Result> results(pending_.size());
  for (const auto& [target, idxs] : by_target) {
    const int src_world = conn.callee_ranks[target];
    const int first_seq = pending_[idxs.front()].seq;
    int attempt = 0;
    rt::Message msg;
    while (true) {
      try {
        msg = fw_->world_.recv(src_world, return_tag(conn_), wait_ms);
      } catch (const rt::TimeoutError&) {
        if (!can_retry || attempt >= retry_->max_retries) {
          pending_.clear();  // the batch is poisoned; don't wedge the proxy
          throw;
        }
        ++attempt;
        static trace::Counter& retries = trace::counter("prmi.retries");
        retries.add(1);
        trace::instant("prmi.retry", "prmi",
                       static_cast<std::uint64_t>(first_seq));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retry_->backoff_ms * attempt));
        fw_->world_.send(src_world, conn.listen,
                         make_batch(target, idxs, attempt));
        continue;
      }
      rt::UnpackBuffer peek(msg.payload);
      const auto rkind = static_cast<ReplyKind>(peek.unpack<std::uint8_t>());
      if (rkind == ReplyKind::Batch && peek.unpack<int>() == first_seq) break;
      // Anything else on this stream predates the batch: a duplicated
      // reply to an earlier (plain or batched) call. Discard.
      static trace::Counter& stale = trace::counter("prmi.stale_replies");
      stale.add(1);
      trace::instant("prmi.stale_reply", "prmi");
    }

    rt::UnpackBuffer u(msg.payload);
    (void)u.unpack<std::uint8_t>();  // ReplyKind::Batch
    (void)u.unpack<int>();           // first_seq
    const int count = u.unpack<int>();
    if (count != static_cast<int>(idxs.size()))
      throw UsageError("batch reply count mismatch on connection " +
                       std::to_string(conn_));
    for (std::size_t i : idxs) {
      const auto& m = iface_.methods[pending_[i].midx];
      const auto status = static_cast<CallStatus>(u.unpack<std::uint8_t>());
      const int rseq = u.unpack<int>();
      if (rseq != pending_[i].seq)
        throw UsageError("batch reply sequence mismatch on connection " +
                         std::to_string(conn_));
      if (status == CallStatus::Error) {
        const std::string error = u.unpack_string();
        pending_.clear();
        throw RemoteError(error);
      }
      Result r;
      if (m.ret.kind != sidl::TypeKind::Void) r.ret = unpack_value(u, m.ret);
      r.args.resize(m.params.size());
      for (std::size_t p = 0; p < m.params.size(); ++p)
        if (yields_output(m.params[p].mode))
          r.args[p] = unpack_value(u, m.params[p].type);
      results[i] = std::move(r);
    }
  }
  pending_.clear();
  return results;
}

void RemotePort::shutdown_provider() {
  auto& conn = fw_->conns_.at(conn_);
  const int caller_count = static_cast<int>(participants_world_.size());
  const int callee_count = static_cast<int>(conn.callee_ranks.size());
  rt::PackBuffer b;
  b.pack(static_cast<std::uint8_t>(MsgKind::Shutdown));
  b.pack(conn_);
  const rt::Buffer bytes = std::move(b).take_buffer();
  for (int j = cohort_.rank(); j < callee_count; j += caller_count)
    fw_->world_.send(conn.callee_ranks[j], conn.listen, bytes);
}

}  // namespace mxn::prmi
