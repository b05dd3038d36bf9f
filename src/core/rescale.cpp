#include <string>
#include <vector>

#include "core/connection_impl.hpp"
#include "core/reliable_exchange.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

// Elastic M×N rescaling (docs/RESCALING.md): live repartitioning of a
// component onto a new channel-rank layout without quiescing the coupling.
// The control plane (field lists, flags, descriptors) travels exclusively on
// channel collectives — whose reserved negative tags the fault injector
// always spares — so a rescale stays deterministic under chaos; the data
// plane (patch migration) runs the same two-phase reliable exchange as
// reliable connection transfers and absorbs drop/dup/reorder/delay through
// retries and attempt serials.

namespace mxn::core {

using rt::UsageError;

namespace {

int index_of(int channel_rank, const std::vector<int>& ranks) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == channel_rank) return static_cast<int>(i);
  return -1;
}

std::vector<std::string> bcast_names(rt::Communicator& ch, int root,
                                     const std::vector<std::string>& mine) {
  rt::PackBuffer b;
  if (ch.rank() == root) {
    b.pack(static_cast<std::uint64_t>(mine.size()));
    for (const auto& n : mine) b.pack(n);
  }
  auto bytes = ch.bcast(std::move(b).take_buffer(), root);
  rt::UnpackBuffer u(bytes);
  const auto n = u.unpack<std::uint64_t>();
  std::vector<std::string> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(u.unpack_string());
  return out;
}

}  // namespace

// --- Layout ----------------------------------------------------------------

int Layout::side_of(int channel_rank) const {
  if (index_of(channel_rank, side0) >= 0) return 0;
  if (index_of(channel_rank, side1) >= 0) return 1;
  return -1;
}

void Layout::validate(int channel_size) const {
  if (side0.empty() || side1.empty())
    throw UsageError("layout: both sides must be non-empty");
  std::vector<int> seen(static_cast<std::size_t>(channel_size), 0);
  for (int s = 0; s < 2; ++s) {
    for (int r : side(s)) {
      if (r < 0 || r >= channel_size)
        throw UsageError("layout: channel rank " + std::to_string(r) +
                         " out of range");
      if (seen[static_cast<std::size_t>(r)]++ != 0)
        throw UsageError("layout: channel rank " + std::to_string(r) +
                         " appears twice");
    }
  }
}

// --- construction ----------------------------------------------------------

MxNComponent::MxNComponent(rt::Communicator channel, rt::Communicator cohort,
                           int side, Layout layout)
    : channel_(std::move(channel)),
      cohort_(std::move(cohort)),
      side_(side) {
  layout.validate(channel_.size());
  if (side < -1 || side > 1) throw UsageError("side must be -1, 0 or 1");
  if (side >= 0 &&
      static_cast<int>(layout.side(side).size()) != cohort_.size())
    throw UsageError("cohort size does not match this side's rank list");
  if (side < 0 && !cohort_.is_null())
    throw UsageError("spectator ranks must pass a null cohort");
  side_ranks_[0] = std::move(layout.side0);
  side_ranks_[1] = std::move(layout.side1);
  elastic_ = true;
}

std::shared_ptr<MxNComponent> make_elastic_mxn(rt::Communicator channel,
                                               Layout initial) {
  initial.validate(channel.size());
  // Two collective subset() calls mint the side cohorts; spectators draw
  // null from both.
  rt::Communicator c0 = channel.subset(initial.side0);
  rt::Communicator c1 = channel.subset(initial.side1);
  const int side = initial.side_of(channel.rank());
  rt::Communicator cohort = side == 0   ? std::move(c0)
                            : side == 1 ? std::move(c1)
                                        : rt::Communicator{};
  return std::make_shared<MxNComponent>(std::move(channel), std::move(cohort),
                                        side, std::move(initial));
}

// --- channel-collective helpers --------------------------------------------

dad::DescriptorPtr MxNComponent::bcast_descriptor(
    int root_channel_rank, const dad::DescriptorPtr& mine) {
  rt::PackBuffer b;
  if (channel_.rank() == root_channel_rank) {
    if (!mine)
      throw UsageError("descriptor broadcast root lacks the descriptor");
    mine->pack(b);
  }
  auto bytes = channel_.bcast(std::move(b).take_buffer(), root_channel_rank);
  rt::UnpackBuffer u(bytes);
  return std::make_shared<const dad::Descriptor>(dad::Descriptor::unpack(u));
}

// --- elastic establishment --------------------------------------------------

ConnectionId MxNComponent::establish_elastic(const ConnectionSpec& spec) {
  trace::Span span("mxn.establish", "mxn");
  if (spec.src_side != 0 && spec.src_side != 1)
    throw UsageError("spec.src_side must be 0 or 1");
  if (spec.period < 1) throw UsageError("spec.period must be >= 1");

  auto c = std::make_unique<Connection>();
  c->spec = spec;
  c->seq = seq_++;
  c->i_am_src = side_ >= 0 && side_ == spec.src_side;
  c->i_am_dst = side_ >= 0 && side_ == 1 - spec.src_side;

  if (c->i_am_src || c->i_am_dst) {
    const std::string& local_name =
        c->i_am_src ? spec.src_field : spec.dst_field;
    const FieldRegistration& local = field(local_name);
    if (c->i_am_src && !readable(local.mode))
      throw UsageError("field '" + local_name +
                       "' is write-only; cannot export it");
    if (c->i_am_dst && !writable(local.mode))
      throw UsageError("field '" + local_name +
                       "' is read-only; cannot import into it");
  }

  // Descriptor exchange over channel collectives (reserved negative tags:
  // fault-exempt), with spectators participating — they will need every
  // connection's record if a later rescale admits them.
  const std::vector<int>& src_ranks = side_ranks_[spec.src_side];
  const std::vector<int>& dst_ranks = side_ranks_[1 - spec.src_side];
  const dad::DescriptorPtr src_desc = bcast_descriptor(
      src_ranks[0], c->i_am_src ? field(spec.src_field).descriptor : nullptr);
  const dad::DescriptorPtr dst_desc = bcast_descriptor(
      dst_ranks[0], c->i_am_dst ? field(spec.dst_field).descriptor : nullptr);

  c->coupling.channel = channel_;
  c->coupling.src_ranks = src_ranks;
  c->coupling.dst_ranks = dst_ranks;
  c->coupling.recv_timeout_ms = spec.timeout_ms;

  if (side_ >= 0) {
    const int my_src = c->i_am_src ? cohort_.rank() : -1;
    const int my_dst = c->i_am_dst ? cohort_.rank() : -1;
    c->schedule = cache_.get_shared(src_desc, dst_desc, my_src, my_dst);
  }

  const ConnectionId id = next_id_++;
  connections_[id] = std::move(c);
  return id;
}

// --- rescale ----------------------------------------------------------------

void MxNComponent::migrate_side(
    int s, const Layout& old_layout, const Layout& new_layout,
    std::map<std::string, FieldRegistration>& incoming,
    std::map<std::string, FieldRegistration>& new_regs, int new_side,
    int timeout_ms, int max_retries) {
  const std::vector<int>& old_ranks = old_layout.side(s);
  const std::vector<int>& new_ranks = new_layout.side(s);
  const int me = channel_.rank();
  const int my_old = side_ == s ? index_of(me, old_ranks) : -1;
  const int my_new = new_side == s ? index_of(me, new_ranks) : -1;

  // 1. The side's field-name list, from its OLD leader (fields_ is an
  // ordered map, so the list is sorted and identical on every old member).
  std::vector<std::string> names;
  if (me == old_ranks[0])
    for (const auto& [n, f] : fields_) names.push_back(n);
  names = bcast_names(channel_, old_ranks[0], names);

  // 2. Which fields were re-registered, from the side's NEW leader.
  std::vector<std::uint8_t> flags(names.size(), 0);
  if (me == new_ranks[0])
    for (std::size_t i = 0; i < names.size(); ++i)
      flags[i] = incoming.count(names[i]) ? 1 : 0;
  flags = channel_.bcast_vector(std::move(flags), new_ranks[0]);

  for (std::size_t fi = 0; fi < names.size(); ++fi) {
    const std::string& name = names[fi];
    const bool has_new = flags[fi] != 0;
    if (my_new >= 0 && (incoming.count(name) != 0) != has_new)
      throw UsageError("rescale: re-registration of field '" + name +
                       "' disagrees across the new cohort");
    if (my_old >= 0 && fields_.find(name) == fields_.end())
      throw UsageError("rescale: field '" + name +
                       "' is not registered on every old member");

    if (!has_new) {
      // Kept field: legal only when the side's rank list is unchanged — the
      // old registration (array, descriptor generation) stays live.
      if (old_ranks != new_ranks)
        throw UsageError("rescale: field '" + name +
                         "' was not re-registered but side " +
                         std::to_string(s) + "'s rank list changed");
      if (my_new >= 0) new_regs.emplace(name, fields_.at(name));
      continue;
    }

    // 3. Element size and descriptor agreement over channel collectives.
    const auto old_elem = channel_.bcast_value<std::uint64_t>(
        me == old_ranks[0] ? fields_.at(name).elem_size : 0, old_ranks[0]);
    const auto new_elem = channel_.bcast_value<std::uint64_t>(
        me == new_ranks[0] ? incoming.at(name).elem_size : 0, new_ranks[0]);
    if (old_elem != new_elem)
      throw UsageError("rescale: field '" + name +
                       "' changes element size across the rescale");
    const dad::DescriptorPtr old_desc = bcast_descriptor(
        old_ranks[0], my_old >= 0 ? fields_.at(name).descriptor : nullptr);
    // The new descriptor travels stamped with the new epoch, so every rank
    // keys caches on the new generation.
    dad::DescriptorPtr new_stamped;
    if (my_new >= 0)
      new_stamped = std::make_shared<const dad::Descriptor>(
          incoming.at(name).descriptor->with_version(repoch_));
    const dad::DescriptorPtr new_desc =
        bcast_descriptor(new_ranks[0], new_stamped);
    if (my_new >= 0 && !(*new_desc == *new_stamped))
      throw UsageError("rescale: field '" + name +
                       "' is registered with different descriptors across "
                       "the new cohort");
    if (!old_desc->same_shape(*new_desc))
      throw UsageError("rescale: field '" + name +
                       "' changes shape across the rescale");

    // 4. Migrate: local fast path + two-phase reliable wire exchange on
    // per-epoch migration tags.
    if (my_old >= 0 || my_new >= 0) {
      const FieldRegistration* oldf =
          my_old >= 0 ? &fields_.at(name) : nullptr;
      const FieldRegistration* newf =
          my_new >= 0 ? &incoming.at(name) : nullptr;
      const sched::DeltaSchedule delta = sched::build_delta_schedule(
          *old_desc, *new_desc, my_old, my_new, old_ranks, new_ranks);
      const bool sends_out = delta.local_elements > 0 ||
                             !delta.wire.sends.empty();
      const bool takes_in = delta.local_elements > 0 ||
                            !delta.wire.recvs.empty();
      if (oldf != nullptr && sends_out && !oldf->extract)
        throw UsageError("rescale: field '" + name +
                         "' is write-only; cannot migrate out of it");
      if (newf != nullptr && takes_in && !newf->inject)
        throw UsageError("rescale: field '" + name +
                         "' is read-only; cannot migrate into it");

      if (delta.local_elements > 0) {
        const std::uint64_t local_bytes =
            copy_local_regions(delta, *oldf, *newf);
        rstats_.local_bytes += local_bytes;
        static trace::Counter& lb = trace::counter("rescale.local_bytes");
        lb.add(local_bytes);
      }

      if (!delta.wire.sends.empty() || !delta.wire.recvs.empty()) {
        sched::Coupling cpl;
        cpl.channel = channel_;
        cpl.src_ranks = old_ranks;
        cpl.dst_ranks = new_ranks;
        cpl.recv_timeout_ms = timeout_ms;
        const int tag_base = detail::migration_tag_base(repoch_, s, fi);
        ReliableExchange x;
        x.schedule = &delta.wire;
        x.src = oldf;
        x.dst = newf;
        x.coupling = &cpl;
        x.data_tag = tag_base;
        x.ack_tag = tag_base + 1;
        x.commit_tag = tag_base + 2;
        x.timeout_ms = timeout_ms;
        std::uint64_t serial = 0;
        x.serial = &serial;
        static trace::Counter& mig_bytes =
            trace::counter("rescale.migrated_bytes");
        static trace::Counter& mig_retries = trace::counter("rescale.retries");
        int retries = 0;
        const auto moved = run_reliable(x, max_retries, retries,
                                        "rescale.retry",
                                        static_cast<std::uint64_t>(fi));
        rstats_.retries += static_cast<std::uint64_t>(retries);
        mig_retries.add(static_cast<std::uint64_t>(retries));
        if (!moved)
          throw TransferError("rescale: migration of field '" + name +
                              "' (side " + std::to_string(s) +
                              ") failed after " +
                              std::to_string(retries + 1) + " attempts");
        rstats_.migrated_bytes += moved->bytes;
        mig_bytes.add(moved->bytes);
      }
    }

    if (my_new >= 0) {
      FieldRegistration reg = std::move(incoming.at(name));
      reg.descriptor = new_desc;  // stamped, channel-agreed copy
      new_regs.emplace(name, std::move(reg));
      incoming.erase(name);
    }
  }
}

void MxNComponent::reestablish_connections() {
  // Re-exchange descriptors and rebuild coupling + schedule for every live
  // connection, in id order (deterministic across the channel). Runs on the
  // NEW layout: side_ranks_/side_/cohort_/fields_ are already spliced.
  for (auto& [id, cptr] : connections_) {
    Connection& c = *cptr;
    if (c.retired) continue;
    const int src_side = c.spec.src_side;
    const std::vector<int>& src_ranks = side_ranks_[src_side];
    const std::vector<int>& dst_ranks = side_ranks_[1 - src_side];
    c.i_am_src = side_ >= 0 && side_ == src_side;
    c.i_am_dst = side_ >= 0 && side_ == 1 - src_side;
    if (c.i_am_src || c.i_am_dst) {
      const std::string& local_name =
          c.i_am_src ? c.spec.src_field : c.spec.dst_field;
      if (fields_.find(local_name) == fields_.end())
        throw UsageError("rescale: live connection " + std::to_string(id) +
                         " references field '" + local_name +
                         "', which the new cohort did not re-register");
      const FieldRegistration& local = fields_.at(local_name);
      if (c.i_am_src && !readable(local.mode))
        throw UsageError("field '" + local_name +
                         "' is write-only; cannot export it");
      if (c.i_am_dst && !writable(local.mode))
        throw UsageError("field '" + local_name +
                         "' is read-only; cannot import into it");
    }
    const dad::DescriptorPtr src_desc = bcast_descriptor(
        src_ranks[0],
        c.i_am_src ? fields_.at(c.spec.src_field).descriptor : nullptr);
    const dad::DescriptorPtr dst_desc = bcast_descriptor(
        dst_ranks[0],
        c.i_am_dst ? fields_.at(c.spec.dst_field).descriptor : nullptr);
    c.coupling.channel = channel_;
    c.coupling.src_ranks = src_ranks;
    c.coupling.dst_ranks = dst_ranks;
    c.coupling.recv_timeout_ms = c.spec.timeout_ms;
    if (side_ >= 0) {
      const int my_src = c.i_am_src ? cohort_.rank() : -1;
      const int my_dst = c.i_am_dst ? cohort_.rank() : -1;
      c.schedule = cache_.get_shared(src_desc, dst_desc, my_src, my_dst);
    } else {
      c.schedule = nullptr;
    }
    // Align the reliable-mode attempt serial across the channel. Ranks
    // admitted into a role start at 0 while survivors carry the serial of
    // every attempt they ever ran; without alignment a fresh source's
    // first attempt reads as stale to a veteran destination and the
    // connection only converges by timeout racing. The fence has already
    // quiesced in-flight attempts, so jumping everyone to the maximum is
    // safe — and makes any pre-rescale straggler strictly stale.
    c.epoch = c.coupling.channel.allreduce(
        c.epoch,
        [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });
  }
}

void MxNComponent::rescale(const Layout& new_layout,
                           std::vector<FieldRegistration> new_fields,
                           int timeout_ms, int max_retries) {
  if (!elastic_)
    throw UsageError(
        "rescale requires an elastic component (make_elastic_mxn)");
  new_layout.validate(channel_.size());
  trace::Span span("mxn.rescale", "mxn", repoch_ + 1);
  const std::int64_t t0 = trace::now_ns();

  // 1. Epoch fence: the rescale is channel-collective, so reaching the
  // fence means every rank finished its pre-fence data_ready calls; sends
  // complete eagerly into mailboxes, so the old epoch's traffic is drained
  // (reliable-mode stragglers duplicated by faults are discarded later by
  // their stale attempt serials).
  const std::int64_t stall = channel_.epoch_fence();
  rstats_.stall_ns += stall;
  static trace::Counter& stall_ns = trace::counter("rescale.stall_ns");
  stall_ns.add(static_cast<std::uint64_t>(stall));

  ++repoch_;
  ++rstats_.epochs;
  static trace::Counter& epochs = trace::counter("rescale.epochs");
  epochs.add(1);
  cache_.set_epoch(repoch_);

  const Layout old_layout{side_ranks_[0], side_ranks_[1]};
  const int new_side = new_layout.side_of(channel_.rank());

  std::map<std::string, FieldRegistration> incoming;
  for (auto& f : new_fields) {
    if (new_side < 0)
      throw UsageError("rescale: ranks that are spectators under the new "
                       "layout must not pass field registrations");
    if (f.name.empty()) throw UsageError("field name must not be empty");
    if (!f.descriptor) throw UsageError("field needs a descriptor");
    if (f.elem_size == 0) throw UsageError("field elem_size must be > 0");
    const auto new_cohort_size =
        static_cast<int>(new_layout.side(new_side).size());
    if (f.descriptor->nranks() != new_cohort_size)
      throw UsageError("rescale: field '" + f.name + "' is decomposed over " +
                       std::to_string(f.descriptor->nranks()) +
                       " ranks but the new side has " +
                       std::to_string(new_cohort_size));
    const std::string name = f.name;
    if (!incoming.emplace(name, std::move(f)).second)
      throw UsageError("rescale: field '" + name + "' passed twice");
  }

  // 2. Migrate both sides' fields onto the new layout (deterministic
  // order: side 0 then side 1, field names sorted within a side).
  std::map<std::string, FieldRegistration> new_regs;
  for (int s = 0; s < 2; ++s)
    migrate_side(s, old_layout, new_layout, incoming, new_regs, new_side,
                 timeout_ms, max_retries);
  if (!incoming.empty())
    throw UsageError("rescale: field '" + incoming.begin()->first +
                     "' is not a currently registered field of this rank's "
                     "new side");

  // 3. Splice the side cohorts: collective admission/retirement.
  rt::Communicator c0 = channel_.subset(new_layout.side0);
  rt::Communicator c1 = channel_.subset(new_layout.side1);
  cohort_ = new_side == 0   ? std::move(c0)
            : new_side == 1 ? std::move(c1)
                            : rt::Communicator{};
  side_ = new_side;
  side_ranks_[0] = new_layout.side0;
  side_ranks_[1] = new_layout.side1;
  fields_ = std::move(new_regs);

  // 4. Swap every live connection onto the new epoch's schedules, then
  // retire the previous schedule-cache generation (their references are
  // all replaced, so nothing dangles).
  reestablish_connections();
  cache_.retire_epochs_before(repoch_);

  rstats_.rescale_ns += trace::now_ns() - t0;
}

std::uint64_t MxNComponent::begin_recovery_epoch() {
  if (!elastic_)
    throw UsageError(
        "recovery requires an elastic component (make_elastic_mxn)");
  ++repoch_;
  ++rstats_.epochs;
  static trace::Counter& epochs = trace::counter("rescale.epochs");
  epochs.add(1);
  cache_.set_epoch(repoch_);
  return repoch_;
}

void MxNComponent::splice_recovered(rt::Communicator new_channel,
                                    Layout new_layout,
                                    std::map<std::string, FieldRegistration>
                                        new_regs) {
  if (!elastic_)
    throw UsageError(
        "recovery requires an elastic component (make_elastic_mxn)");
  if (new_channel.is_null())
    throw UsageError("splice_recovered: null channel");
  new_layout.validate(new_channel.size());
  // No epoch fence here: the old channel contains dead ranks, so a fence
  // could never complete. The caller (RedundancyGroup::recover) has already
  // quiesced the survivors via split_live + its own collectives, and
  // begin_recovery_epoch() bumped the generation the migration stamped onto
  // the recovered descriptors.
  channel_ = std::move(new_channel);
  rt::Communicator c0 = channel_.subset(new_layout.side0);
  rt::Communicator c1 = channel_.subset(new_layout.side1);
  const int new_side = new_layout.side_of(channel_.rank());
  cohort_ = new_side == 0   ? std::move(c0)
            : new_side == 1 ? std::move(c1)
                            : rt::Communicator{};
  side_ = new_side;
  side_ranks_[0] = std::move(new_layout.side0);
  side_ranks_[1] = std::move(new_layout.side1);
  fields_ = std::move(new_regs);
  reestablish_connections();
  cache_.retire_epochs_before(repoch_);
}

}  // namespace mxn::core
