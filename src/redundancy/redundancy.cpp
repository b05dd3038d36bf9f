#include "redundancy/redundancy.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/reliable_exchange.hpp"
#include "dad/dist_array.hpp"
#include "rt/serialize.hpp"
#include "sched/coupling.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

// Erasure-coded state redundancy (docs/REDUNDANCY.md): the shuffile/redset
// flow mapped onto rt messages and DAD ownership maps. encode() stripes each
// member's patch snapshot across its partner group with rotated XOR parity
// (each member's chunks live only in OTHER members' parity blocks, so any
// single death per group is recoverable); recover() reassembles dead ranks'
// blobs at proxy survivors and redistributes everything onto a caller-chosen
// layout with the same delta-schedule + two-phase reliable exchange
// machinery the elastic rescale uses — rebuilding onto a replacement or a
// shrunken cohort is exactly a redistribution onto a new layout.

namespace mxn::redundancy {

using core::FieldRegistration;
using core::Layout;
using rt::Buffer;
using rt::UsageError;

namespace detail {

struct FieldMeta {
  std::string name;
  std::uint64_t elem_size = 0;
  dad::DescriptorPtr descriptor;
  std::uint64_t offset = 0;  // byte offset of the field in the owner's blob
  std::uint64_t bytes = 0;
};

/// What a member knows about one partner: enough to rebuild and re-inject
/// the partner's blob without the partner (serialized group metadata).
struct PeerHeader {
  std::uint64_t blob_size = 0;
  int side = -1;
  int cohort_rank = -1;
  std::vector<FieldMeta> fields;
};

struct EncodeState {
  std::uint64_t epoch = 0;
  Layout layout;           // component layout at encode time
  std::vector<int> group;  // my partner group's channel ranks, ascending
  int my_pos = -1;
  int my_side = -1;
  int my_cohort = -1;
  Buffer blob;  // my snapshot: registered fields concatenated, sorted by name
  std::vector<FieldMeta> my_fields;
  std::vector<std::byte> parity;   // XOR accumulation (zero-extended)
  std::map<int, PeerHeader> peers; // channel rank -> header, my group only
};

}  // namespace detail

namespace {

// Encode traffic: one dedicated tag on the component channel, above every
// connection/migration/PRMI range (src/core/connection_impl.hpp), so an
// encode composes with live couplings. Data, acks and done markers share the
// tag and are told apart by a leading type byte.
constexpr int kRedTag = 710000;
// Rebuild-migration exchanges run on the freshly minted live communicator
// (fresh mailboxes — no residue possible); 4 tags per exchange.
constexpr int kRedMigBase = 660000;

constexpr std::uint8_t kMsgData = 0;
constexpr std::uint8_t kMsgAck = 1;
constexpr std::uint8_t kMsgDone = 2;

int index_of(int v, const std::vector<int>& xs) {
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (xs[i] == v) return static_cast<int>(i);
  return -1;
}

/// Partition the member channel ranks of both sides (ascending) into partner
/// groups of `m`; a trailing singleton folds into its predecessor so every
/// group has >= 2 members (a group of 1 could not hold parity anywhere).
std::vector<std::vector<int>> make_groups(const Layout& layout, int m) {
  std::vector<int> members = layout.side0;
  members.insert(members.end(), layout.side1.begin(), layout.side1.end());
  std::sort(members.begin(), members.end());
  std::vector<std::vector<int>> groups;
  for (std::size_t i = 0; i < members.size();
       i += static_cast<std::size_t>(m))
    groups.emplace_back(
        members.begin() + static_cast<std::ptrdiff_t>(i),
        members.begin() + static_cast<std::ptrdiff_t>(
                              std::min(members.size(),
                                       i + static_cast<std::size_t>(m))));
  if (groups.size() >= 2 && groups.back().size() == 1) {
    groups[groups.size() - 2].push_back(groups.back()[0]);
    groups.pop_back();
  }
  return groups;
}

const std::vector<int>* group_containing(
    const std::vector<std::vector<int>>& groups, int rank) {
  for (const auto& g : groups)
    if (index_of(rank, g) >= 0) return &g;
  return nullptr;
}

/// Chunk geometry of one blob striped over a group of `m`: m-1 equal slices
/// (the last short, trailing ones possibly empty). Chunk c of the member at
/// group position i is held — XORed into the parity — by the member at
/// position (i + 1 + c) % m, redset style: a member's own parity never
/// covers its own data, so the death of any ONE member leaves every one of
/// its chunks recoverable from a survivor's parity.
struct ChunkGeom {
  std::uint64_t size = 0;
  std::uint64_t len = 0;  // full slice length

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> chunk(int c) const {
    const std::uint64_t off =
        std::min(size, static_cast<std::uint64_t>(c) * len);
    return {off, std::min(size - off, len)};
  }
};

ChunkGeom geom(std::uint64_t blob_size, int group_size) {
  ChunkGeom g;
  g.size = blob_size;
  const auto nchunks = static_cast<std::uint64_t>(group_size - 1);
  g.len = nchunks > 0 ? (blob_size + nchunks - 1) / nchunks : 0;
  return g;
}

/// acc[i] ^= src[i], zero-extending acc: chunks of different lengths XOR as
/// if padded with zeros, so no group-wide size agreement round is needed.
void xor_into(std::vector<std::byte>& acc, std::span<const std::byte> src) {
  if (src.size() > acc.size()) acc.resize(src.size(), std::byte{0});
  for (std::size_t i = 0; i < src.size(); ++i) acc[i] ^= src[i];
}

std::vector<std::byte> pack_meta(int side, int cohort_rank,
                                 const std::vector<detail::FieldMeta>& fields) {
  rt::PackBuffer b;
  b.pack(static_cast<std::int32_t>(side));
  b.pack(static_cast<std::int32_t>(cohort_rank));
  b.pack(static_cast<std::uint64_t>(fields.size()));
  for (const auto& f : fields) {
    b.pack(f.name);
    b.pack(f.elem_size);
    f.descriptor->pack(b);
  }
  return std::move(b).take();
}

detail::PeerHeader unpack_meta(std::span<const std::byte> bytes,
                               std::uint64_t blob_size) {
  rt::UnpackBuffer u(bytes);
  detail::PeerHeader h;
  h.blob_size = blob_size;
  h.side = u.unpack<std::int32_t>();
  h.cohort_rank = u.unpack<std::int32_t>();
  const auto n = u.unpack<std::uint64_t>();
  std::uint64_t off = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    detail::FieldMeta fm;
    fm.name = u.unpack_string();
    fm.elem_size = u.unpack<std::uint64_t>();
    fm.descriptor = std::make_shared<const dad::Descriptor>(
        dad::Descriptor::unpack(u));
    fm.offset = off;
    fm.bytes = static_cast<std::uint64_t>(
                   fm.descriptor->local_volume(h.cohort_rank)) *
               fm.elem_size;
    off += fm.bytes;
    h.fields.push_back(std::move(fm));
  }
  return h;
}

/// Read-only FieldRegistration over a serialized blob: extract() mirrors
/// DistArray::extract but sources rows from `blob` at the field's offset,
/// using `desc`'s ownership map for cohort slot `cohort_rank`. This is how
/// both survivor snapshots and rebuilt dead-rank blobs feed the reliable
/// migration exchanges.
FieldRegistration blob_backed_field(const detail::FieldMeta& fm,
                                    const dad::DescriptorPtr& desc,
                                    int cohort_rank, Buffer blob) {
  FieldRegistration f;
  f.name = fm.name;
  f.descriptor = desc;
  f.elem_size = static_cast<std::size_t>(fm.elem_size);
  f.mode = core::AccessMode::Read;
  const std::uint64_t off = fm.offset;
  const std::uint64_t elem = fm.elem_size;
  f.extract = [desc, cohort_rank, blob = std::move(blob), off, elem](
                  const dad::Patch& region, std::byte* out) {
    const std::size_t pi = desc->patch_containing(cohort_rank, region);
    const dad::Patch& owned = desc->patches_of(cohort_rank)[pi];
    const dad::Index base = desc->patch_base(cohort_rank, pi);
    const std::byte* local = blob.data() + off;
    std::size_t written = 0;
    dad::for_each_row(region, [&](const dad::Point& row, dad::Index len) {
      const auto src =
          static_cast<std::size_t>(base + owned.offset_of(row)) * elem;
      std::memcpy(out + written, local + src,
                  static_cast<std::size_t>(len) * elem);
      written += static_cast<std::size_t>(len) * elem;
    });
  };
  return f;
}

std::vector<std::string> bcast_names(rt::Communicator& ch, int root,
                                     const std::vector<std::string>& mine) {
  rt::PackBuffer b;
  if (ch.rank() == root) b.pack(mine);
  auto bytes = ch.bcast(std::move(b).take_buffer(), root);
  rt::UnpackBuffer u(bytes);
  return u.unpack_string_vector();
}

dad::DescriptorPtr bcast_descriptor(rt::Communicator& ch, int root,
                                    const dad::DescriptorPtr& mine) {
  rt::PackBuffer b;
  if (ch.rank() == root) {
    if (!mine)
      throw UsageError("redundancy: descriptor broadcast root lacks the "
                       "descriptor");
    mine->pack(b);
  }
  auto bytes = ch.bcast(std::move(b).take_buffer(), root);
  rt::UnpackBuffer u(bytes);
  return std::make_shared<const dad::Descriptor>(dad::Descriptor::unpack(u));
}

const detail::FieldMeta* find_meta(const std::vector<detail::FieldMeta>& fs,
                                   const std::string& name) {
  for (const auto& f : fs)
    if (f.name == name) return &f;
  return nullptr;
}

/// One dead rank's blob, reassembled at its proxy survivor.
struct Rebuilt {
  Buffer blob;
  detail::PeerHeader hdr;
};

}  // namespace

// --- construction -----------------------------------------------------------

RedundancyGroup::RedundancyGroup(std::shared_ptr<core::MxNComponent> component,
                                 RedundancyOptions opts)
    : component_(std::move(component)), opts_(opts) {
  if (!component_) throw UsageError("RedundancyGroup: null component");
  if (!component_->elastic())
    throw UsageError("RedundancyGroup requires an elastic component "
                     "(make_elastic_mxn)");
  if (opts_.group_size < 2)
    throw UsageError("RedundancyGroup: group_size must be >= 2");
}

RedundancyGroup::~RedundancyGroup() = default;

bool RedundancyGroup::encoded() const {
  if (!state_) return false;
  const Layout now = component_->layout();
  return state_->layout.side0 == now.side0 && state_->layout.side1 == now.side1;
}

// --- encode -----------------------------------------------------------------

EncodeStats RedundancyGroup::encode() {
  auto& comp = *component_;
  if (!comp.is_member()) {
    state_.reset();
    return {};
  }
  trace::Span span("redundancy.encode", "redundancy");
  rt::Communicator channel = comp.channel();
  rt::Universe* uni = channel.universe();
  const Layout layout = comp.layout();
  const auto groups = make_groups(layout, opts_.group_size);
  const std::vector<int>* g = group_containing(groups, channel.rank());
  if (g == nullptr || g->size() < 2)
    throw UsageError("redundancy: encode needs at least 2 member ranks");

  auto st = std::make_unique<detail::EncodeState>();
  st->epoch = ++epoch_;
  st->layout = layout;
  st->group = *g;
  st->my_pos = index_of(channel.rank(), st->group);
  st->my_side = comp.side();
  st->my_cohort = comp.cohort().rank();

  // 1. Snapshot: every registered field's local patches, concatenated in
  // name order (std::map), each patch row-major at its descriptor base —
  // the same local-storage arrangement DistArray uses, so the blob can be
  // re-extracted per region by ownership-map lookups alone.
  std::uint64_t total = 0;
  for (const auto& [name, f] : comp.fields()) {
    if (!f.extract || !core::readable(f.mode))
      throw UsageError("redundancy: field '" + name +
                       "' is write-only; cannot snapshot it");
    detail::FieldMeta fm;
    fm.name = name;
    fm.elem_size = f.elem_size;
    fm.descriptor = f.descriptor;
    fm.offset = total;
    fm.bytes = static_cast<std::uint64_t>(
                   f.descriptor->local_volume(st->my_cohort)) *
               f.elem_size;
    total += fm.bytes;
    st->my_fields.push_back(std::move(fm));
  }
  Buffer blob = Buffer::allocate(total);
  if (total > 0) {
    std::byte* out = blob.mutable_data();
    for (const auto& fm : st->my_fields) {
      const FieldRegistration& f = comp.fields().at(fm.name);
      const auto& patches = fm.descriptor->patches_of(st->my_cohort);
      for (std::size_t i = 0; i < patches.size(); ++i) {
        const dad::Index base = fm.descriptor->patch_base(st->my_cohort, i);
        f.extract(patches[i],
                  out + fm.offset +
                      static_cast<std::size_t>(base) * fm.elem_size);
      }
    }
  }
  st->blob = std::move(blob);

  // 2. Stripe: chunk c of my blob goes to the partner at group position
  // (my_pos + 1 + c) % m; equivalently partner j holds my chunk
  // (j - my_pos - 1) mod m. Delivery is ack/retry/dedup on a dedicated tag
  // (chaos plans drop/dup/reorder user-tag traffic), with a done-marker
  // linger so no partner is left resending into a finished rank.
  const int m = static_cast<int>(st->group.size());
  const ChunkGeom gm = geom(total, m);
  const std::vector<std::byte> meta =
      pack_meta(st->my_side, st->my_cohort, st->my_fields);

  struct Outgoing {
    int dst = -1;
    Buffer payload;
    bool acked = false;
  };
  std::vector<Outgoing> out;
  EncodeStats stats;
  stats.epoch = st->epoch;
  stats.blob_bytes = total;
  for (int j = 0; j < m; ++j) {
    if (j == st->my_pos) continue;
    const int c = (j - st->my_pos - 1 + m) % m;
    const auto [coff, clen] = gm.chunk(c);
    rt::PackBuffer b;
    b.pack(kMsgData);
    b.pack(st->epoch);
    b.pack(total);
    b.pack(static_cast<std::uint64_t>(meta.size()));
    b.pack_raw(std::span<const std::byte>(meta));
    b.pack(clen);
    b.pack_raw(st->blob.span().subspan(coff, clen));
    Outgoing o;
    o.dst = st->group[static_cast<std::size_t>(j)];
    o.payload = std::move(b).take_buffer();
    stats.sent_bytes += o.payload.size();
    out.push_back(std::move(o));
  }

  rt::PackBuffer db;
  db.pack(kMsgDone);
  db.pack(st->epoch);
  const Buffer done_msg = std::move(db).take_buffer();

  const int eff = opts_.timeout_ms < 0 ? uni->default_recv_timeout_ms()
                                       : opts_.timeout_ms;
  const std::int64_t deadline =
      eff > 0 ? trace::now_ns() + static_cast<std::int64_t>(eff) * 1'000'000 *
                                      (1 + std::max(0, opts_.max_retries))
              : 0;

  // The ack/retry/done machinery exists to survive DROPPED messages, and
  // the rt mailbox is lossless unless the active fault plan injects drops
  // (dup/reorder/delay perturb order and timing but never lose delivery).
  // On a lossless transport the whole acknowledgment protocol is dead
  // weight — two extra full-group message generations per epoch — so, like
  // an MPI implementation on a reliable fabric, encode skips it: send
  // chunks, fold in the partners' chunks, exit. The plan is spawn-global,
  // so every member picks the same mode.
  const rt::FaultInjector* fi = uni->faults();
  const bool lossy = fi != nullptr && fi->plan().drop > 0;
  std::set<int> data_from;  // partners whose chunk is already folded in
  std::set<int> done_from;  // partners known to have finished this epoch
  std::size_t unacked = out.size();
  if (!lossy) {
    for (auto& o : out) o.acked = true;
    unacked = 0;
  }
  const std::size_t partners = out.size();
  bool done_sent = false;
  int quiet_ticks = 0;  // consecutive silent waits since we finished
  const auto finished = [&] {
    return unacked == 0 && data_from.size() == partners;
  };
  auto broadcast_pending = [&] {
    for (const auto& o : out)
      if (!o.acked) channel.send(o.dst, kRedTag, o.payload);
    if (finished())
      for (const auto& o : out)
        if (!done_from.count(o.dst)) channel.send(o.dst, kRedTag, done_msg);
  };
  for (const auto& o : out) channel.send(o.dst, kRedTag, o.payload);
  // Exit: all my data acked, all partner chunks folded in, and every partner
  // is known finished (sent Done) — OR, should a partner's Done itself be
  // lost after the partner exited, a quiet linger (no traffic for several
  // ticks while finished) stands in for it. A partner that still needs my
  // acks resends its data every tick, which resets the linger, so the quiet
  // exit cannot starve anyone.
  while (true) {
    if (finished()) {
      if (!lossy) break;
      if (!done_sent) {
        // Transition, not tick: a rank can finish and collect every
        // partner's Done without ever waiting out a recv, so Done must go
        // out the moment the conditions are met or partners hang on it.
        for (const auto& o : out) channel.send(o.dst, kRedTag, done_msg);
        done_sent = true;
      }
      if (done_from.size() == partners || quiet_ticks >= 4) break;
    }
    if (deadline != 0 && trace::now_ns() >= deadline)
      throw rt::TimeoutError("redundancy encode: partner exchange deadline "
                             "of " +
                             std::to_string(eff) + " ms exceeded" +
                             uni->timeout_dead_report());
    // Admit only this epoch's (or older, drained below) traffic: with
    // back-to-back encodes the group is never in epoch lockstep, and a
    // partner one epoch ahead would otherwise have its data consumed and
    // dropped here — costing it a full resend tick. Leaving future-epoch
    // messages queued hands them to this rank's own next encode() intact.
    const auto this_epoch = [&](const rt::Message& m) {
      rt::UnpackBuffer u(m.payload);
      (void)u.unpack<std::uint8_t>();
      return u.unpack<std::uint64_t>() <= st->epoch;
    };
    rt::Message msg;
    try {
      msg = channel.recv_matching(rt::kAnySource, kRedTag, this_epoch, 50);
    } catch (const rt::TimeoutError&) {
      ++quiet_ticks;
      if (lossy) broadcast_pending();  // absorb drops: resend the undelivered
      continue;
    }
    quiet_ticks = 0;
    rt::UnpackBuffer u(msg.payload);
    const auto type = u.unpack<std::uint8_t>();
    const auto ep = u.unpack<std::uint64_t>();
    if (ep != st->epoch) continue;  // stale epoch: drain and drop
    if (type == kMsgAck) {
      for (auto& o : out)
        if (o.dst == msg.src && !o.acked) {
          o.acked = true;
          --unacked;
        }
      continue;
    }
    if (type == kMsgDone) {
      done_from.insert(msg.src);
      continue;
    }
    const auto blob_size = u.unpack<std::uint64_t>();
    const auto meta_len = u.unpack<std::uint64_t>();
    const auto meta_bytes = u.unpack_raw(meta_len);
    const auto clen = u.unpack<std::uint64_t>();
    const auto chunk = u.unpack_raw(clen);
    if (lossy) {
      rt::PackBuffer ab;
      ab.pack(kMsgAck);
      ab.pack(st->epoch);
      channel.send(msg.src, kRedTag, std::move(ab).take_buffer());
    }
    if (data_from.count(msg.src)) continue;  // duplicate: re-acked, not re-XORed
    data_from.insert(msg.src);
    st->peers[msg.src] = unpack_meta(meta_bytes, blob_size);
    xor_into(st->parity, chunk);
  }

  stats.parity_bytes = st->parity.size();
  static trace::Counter& encodes = trace::counter("redundancy.encodes");
  static trace::Counter& enc_bytes =
      trace::counter("redundancy.encoded_bytes");
  static trace::Counter& par_bytes = trace::counter("redundancy.parity_bytes");
  encodes.add(1);
  enc_bytes.add(stats.blob_bytes);
  par_bytes.add(stats.parity_bytes);
  state_ = std::move(st);
  return stats;
}

// --- recover ----------------------------------------------------------------

namespace {

/// Migrate one side's fields from the encode-time snapshots (survivors) and
/// rebuilt blobs (dead ranks, via their proxies) onto the new layout over
/// the live communicator. Mirrors MxNComponent::migrate_side, with one
/// reliable exchange for the surviving slots plus one per dead slot (a
/// channel rank can play only one source role per exchange, so each proxy
/// impersonates one dead cohort slot per exchange). `tag_counter` advances
/// identically on every live rank — participants and spectators alike — so
/// tag assignment needs no extra agreement round.
void migrate_recovered_side(
    core::MxNComponent& comp, int s, const Layout& old_layout,
    const Layout& new_layout_old, const std::vector<int>& live_of_old,
    rt::Communicator& live, int me_old,
    const std::vector<int>& dead_members,
    const std::map<int, Rebuilt>& rebuilt,
    const std::map<int, int>& proxy_of, detail::EncodeState* state,
    std::uint64_t repoch, std::map<std::string, FieldRegistration>& incoming,
    std::map<std::string, FieldRegistration>& new_regs, int new_side,
    int timeout_ms, int max_retries, int& tag_counter, RecoverStats& stats) {
  const std::vector<int>& old_ranks = old_layout.side(s);
  const std::vector<int>& new_ranks = new_layout_old.side(s);
  const int my_old = comp.side() == s ? comp.cohort().rank() : -1;
  const int my_new = new_side == s ? index_of(me_old, new_ranks) : -1;
  // Per-attempt timeout slice: the retry chain as a whole gets roughly
  // `timeout_ms`, not `timeout_ms` per attempt — a rank burning a full
  // budget on each failed attempt would lag the collective splice
  // rendezvous its peers are already waiting in.
  const int attempts = 1 + std::max(0, max_retries);
  const int slice = std::max(200, timeout_ms / attempts);

  std::vector<int> side_dead;
  for (int r : old_ranks)
    if (index_of(r, dead_members) >= 0) side_dead.push_back(r);

  // The side's field-name list: from its first LIVE old member, or — when
  // the whole side died — from the proxy of its first dead rank, which
  // holds the side's metadata in its stored group headers.
  int old_root_old = -1;
  for (int r : old_ranks)
    if (live_of_old[static_cast<std::size_t>(r)] >= 0) {
      old_root_old = r;
      break;
    }
  const int names_root_live =
      old_root_old >= 0 ? live_of_old[static_cast<std::size_t>(old_root_old)]
                        : proxy_of.at(side_dead.front());
  const detail::PeerHeader* root_hdr = nullptr;
  if (old_root_old < 0 && live.rank() == names_root_live)
    root_hdr = &state->peers.at(side_dead.front());

  std::vector<std::string> names;
  if (live.rank() == names_root_live) {
    if (root_hdr != nullptr) {
      for (const auto& f : root_hdr->fields) names.push_back(f.name);
    } else {
      for (const auto& [n, f] : comp.fields()) names.push_back(n);
    }
  }
  names = bcast_names(live, names_root_live, names);

  const int new_root_live =
      live_of_old[static_cast<std::size_t>(new_ranks[0])];
  std::vector<std::uint8_t> flags(names.size(), 0);
  if (live.rank() == new_root_live)
    for (std::size_t i = 0; i < names.size(); ++i)
      flags[i] = incoming.count(names[i]) ? 1 : 0;
  flags = live.bcast_vector(std::move(flags), new_root_live);

  static trace::Counter& mig_bytes =
      trace::counter("redundancy.migrated_bytes");
  static trace::Counter& mig_retries = trace::counter("redundancy.retries");
  static trace::Counter& loc_bytes = trace::counter("redundancy.local_bytes");

  for (std::size_t fi = 0; fi < names.size(); ++fi) {
    const std::string& name = names[fi];
    const bool has_new = flags[fi] != 0;
    if (my_new >= 0 && (incoming.count(name) != 0) != has_new)
      throw UsageError("recover: re-registration of field '" + name +
                       "' disagrees across the new cohort");
    if (!has_new) {
      // Kept field: legal only when the side kept its exact rank list —
      // which implies it lost no rank, since the new list is all-live.
      if (old_ranks != new_ranks)
        throw UsageError("recover: field '" + name +
                         "' was not re-registered but side " +
                         std::to_string(s) + "'s rank list changed");
      if (my_new >= 0) new_regs.emplace(name, comp.fields().at(name));
      continue;
    }

    // Element size and descriptor agreement over live-comm collectives
    // (reserved negative tags: fault-exempt). The old descriptor comes from
    // the names root — a live old member's registration, or a proxy's
    // stored header when the side lost every member.
    const detail::FieldMeta* root_meta =
        root_hdr != nullptr ? find_meta(root_hdr->fields, name) : nullptr;
    const auto old_elem = live.bcast_value<std::uint64_t>(
        live.rank() == names_root_live
            ? (root_meta != nullptr ? root_meta->elem_size
                                    : comp.fields().at(name).elem_size)
            : 0,
        names_root_live);
    const auto new_elem = live.bcast_value<std::uint64_t>(
        live.rank() == new_root_live ? incoming.at(name).elem_size : 0,
        new_root_live);
    if (old_elem != new_elem)
      throw UsageError("recover: field '" + name +
                       "' changes element size across the recovery");
    dad::DescriptorPtr old_mine;
    if (live.rank() == names_root_live)
      old_mine = root_meta != nullptr ? root_meta->descriptor
                                      : comp.fields().at(name).descriptor;
    const dad::DescriptorPtr old_desc =
        bcast_descriptor(live, names_root_live, old_mine);
    dad::DescriptorPtr new_stamped;
    if (my_new >= 0)
      new_stamped = std::make_shared<const dad::Descriptor>(
          incoming.at(name).descriptor->with_version(repoch));
    const dad::DescriptorPtr new_desc =
        bcast_descriptor(live, new_root_live, new_stamped);
    if (my_new >= 0 && !(*new_desc == *new_stamped))
      throw UsageError("recover: field '" + name +
                       "' is registered with different descriptors across "
                       "the new cohort");
    if (!old_desc->same_shape(*new_desc))
      throw UsageError("recover: field '" + name +
                       "' changes shape across the recovery");

    // Channel-rank maps for the delta schedules, in LIVE numbering. Dead
    // slots map to -2: build_delta_schedule would otherwise classify a
    // dead-sourced region as mirrored-local (and silently drop it) whenever
    // the slot aliased a live rank.
    std::vector<int> from1(old_ranks.size());
    for (std::size_t i = 0; i < old_ranks.size(); ++i) {
      const int lr = live_of_old[static_cast<std::size_t>(old_ranks[i])];
      from1[i] = lr >= 0 ? lr : -2;
    }
    std::vector<int> to1(new_ranks.size());
    for (std::size_t i = 0; i < new_ranks.size(); ++i)
      to1[i] = live_of_old[static_cast<std::size_t>(new_ranks[i])];

    const FieldRegistration* newf =
        my_new >= 0 ? &incoming.at(name) : nullptr;
    if (newf != nullptr && !newf->inject)
      throw UsageError("recover: field '" + name +
                       "' is read-only; cannot restore into it");

    // Exchange 1: surviving old slots -> new slots, sourced from the
    // encode-time snapshots (recover restores the snapshot state — see
    // docs/REDUNDANCY.md). Recvs from dead slots are deferred to the
    // per-dead exchanges below.
    FieldRegistration snap_src;
    const int tag1 = kRedMigBase + 4 * tag_counter++;
    if (my_old >= 0 || my_new >= 0) {
      sched::DeltaSchedule delta = sched::build_delta_schedule(
          *old_desc, *new_desc, my_old, my_new, from1, to1);
      sched::RegionSchedule wire;
      wire.sends = std::move(delta.wire.sends);
      for (auto& pr : delta.wire.recvs)
        if (from1[static_cast<std::size_t>(pr.peer)] >= 0)
          wire.recvs.push_back(std::move(pr));
      if (my_old >= 0) {
        const detail::FieldMeta* fm = find_meta(state->my_fields, name);
        if (fm == nullptr)
          throw UsageError("recover: field '" + name +
                           "' has no snapshot in the encode epoch");
        snap_src = blob_backed_field(*fm, old_desc, my_old, state->blob);
      }
      if (delta.local_elements > 0) {
        const std::uint64_t lb =
            core::copy_local_regions(delta, snap_src, *newf);
        stats.local_bytes += lb;
        loc_bytes.add(lb);
      }
      if (!wire.sends.empty() || !wire.recvs.empty()) {
        sched::Coupling cpl;
        cpl.channel = live;
        cpl.src_ranks = from1;
        cpl.dst_ranks = to1;
        cpl.recv_timeout_ms = slice;
        core::ReliableExchange x;
        x.schedule = &wire;
        x.src = my_old >= 0 ? &snap_src : nullptr;
        x.dst = newf;
        x.coupling = &cpl;
        x.data_tag = tag1;
        x.ack_tag = tag1 + 1;
        x.commit_tag = tag1 + 2;
        x.timeout_ms = slice;
        std::uint64_t serial = 0;
        x.serial = &serial;
        int retries = 0;
        const auto moved = core::run_reliable(x, max_retries, retries);
        mig_retries.add(static_cast<std::uint64_t>(retries));
        if (!moved)
          throw core::TransferError(
              "recover: migration of field '" + name + "' (side " +
              std::to_string(s) + ") failed after " +
              std::to_string(attempts) + " attempts");
        stats.migrated_bytes += moved->bytes;
        mig_bytes.add(moved->bytes);
      }
    }

    // One exchange per dead slot: the proxy survivor impersonates the dead
    // rank's cohort slot and sources its regions from the rebuilt blob.
    for (int dk : side_dead) {
      const int d_cohort = index_of(dk, old_ranks);
      const int proxy_live = proxy_of.at(dk);
      const bool me_proxy = live.rank() == proxy_live;
      const int tag2 = kRedMigBase + 4 * tag_counter++;
      if (!me_proxy && my_new < 0) continue;
      const int my_from2 = me_proxy ? d_cohort : -1;
      std::vector<int> from2(old_ranks.size(), -2);
      from2[static_cast<std::size_t>(d_cohort)] = proxy_live;
      sched::DeltaSchedule delta2 = sched::build_delta_schedule(
          *old_desc, *new_desc, my_from2, my_new, from2, to1);
      sched::RegionSchedule wire2;
      wire2.sends = std::move(delta2.wire.sends);
      for (auto& pr : delta2.wire.recvs)
        if (pr.peer == d_cohort) wire2.recvs.push_back(std::move(pr));
      FieldRegistration dead_src;
      if (me_proxy) {
        const Rebuilt& rb = rebuilt.at(dk);
        const detail::FieldMeta* fm = find_meta(rb.hdr.fields, name);
        if (fm == nullptr)
          throw UsageError("recover: dead rank's snapshot lacks field '" +
                           name + "'");
        dead_src = blob_backed_field(*fm, old_desc, d_cohort, rb.blob);
      }
      if (delta2.local_elements > 0) {
        const std::uint64_t lb =
            core::copy_local_regions(delta2, dead_src, *newf);
        stats.local_bytes += lb;
        loc_bytes.add(lb);
      }
      if (wire2.sends.empty() && wire2.recvs.empty()) continue;
      sched::Coupling cpl2;
      cpl2.channel = live;
      cpl2.src_ranks = from2;
      cpl2.dst_ranks = to1;
      cpl2.recv_timeout_ms = slice;
      core::ReliableExchange x2;
      x2.schedule = &wire2;
      x2.src = me_proxy ? &dead_src : nullptr;
      x2.dst = newf;
      x2.coupling = &cpl2;
      x2.data_tag = tag2;
      x2.ack_tag = tag2 + 1;
      x2.commit_tag = tag2 + 2;
      x2.timeout_ms = slice;
      std::uint64_t serial2 = 0;
      x2.serial = &serial2;
      int retries = 0;
      const auto moved = core::run_reliable(x2, max_retries, retries);
      mig_retries.add(static_cast<std::uint64_t>(retries));
      if (!moved)
        throw core::TransferError(
            "recover: rebuilt-state migration of field '" + name +
            "' (dead rank " + std::to_string(dk) + ") failed after " +
            std::to_string(attempts) + " attempts");
      stats.migrated_bytes += moved->bytes;
      mig_bytes.add(moved->bytes);
    }

    if (my_new >= 0) {
      FieldRegistration reg = std::move(incoming.at(name));
      reg.descriptor = new_desc;  // stamped, live-comm-agreed copy
      new_regs.emplace(name, std::move(reg));
      incoming.erase(name);
    }
  }
}

}  // namespace

RecoverStats RedundancyGroup::recover(
    const Layout& new_layout, std::vector<FieldRegistration> new_fields,
    int timeout_ms, int max_retries) {
  auto& comp = *component_;
  const std::int64_t t0 = trace::now_ns();
  trace::Span span("redundancy.rebuild", "redundancy");
  rt::Communicator old_channel = comp.channel();
  rt::Universe* uni = old_channel.universe();
  const int eff_timeout = timeout_ms >= 0 ? timeout_ms : opts_.timeout_ms;
  const int eff_retries = max_retries >= 0 ? max_retries : opts_.max_retries;

  // 1. Survivor rendezvous. The live communicator's membership — not each
  // rank's local reading of the death flags, which can race a second kill —
  // is the authoritative agreement on who is dead.
  if (uni->dead() == 0)
    throw UsageError("recover: the universe reports no dead ranks");
  rt::Communicator live =
      old_channel.split_live(0, old_channel.rank(), eff_timeout);
  std::map<int, int> old_by_uid;
  for (int r = 0; r < old_channel.size(); ++r)
    old_by_uid[old_channel.world_rank(r)] = r;
  std::vector<int> old_of_live(static_cast<std::size_t>(live.size()));
  std::vector<int> live_of_old(static_cast<std::size_t>(old_channel.size()),
                               -1);
  for (int lr = 0; lr < live.size(); ++lr) {
    const int orank = old_by_uid.at(live.world_rank(lr));
    old_of_live[static_cast<std::size_t>(lr)] = orank;
    live_of_old[static_cast<std::size_t>(orank)] = lr;
  }
  const int me_old = old_of_live[static_cast<std::size_t>(live.rank())];

  RecoverStats stats;
  for (int r = 0; r < old_channel.size(); ++r)
    if (live_of_old[static_cast<std::size_t>(r)] < 0)
      stats.dead_channel_ranks.push_back(r);
  if (stats.dead_channel_ranks.empty())
    throw UsageError("recover: every channel rank is still live");

  // 2. Argument agreement: the new layout must be byte-identical on every
  // live rank (it seeds collectives and tag assignment below).
  {
    rt::PackBuffer b;
    if (live.rank() == 0) {
      b.pack(new_layout.side0);
      b.pack(new_layout.side1);
    }
    auto bytes = live.bcast(std::move(b).take_buffer(), 0);
    rt::UnpackBuffer u(bytes);
    if (u.unpack_vector<int>() != new_layout.side0 ||
        u.unpack_vector<int>() != new_layout.side1)
      throw UsageError("recover: new layout disagrees across live ranks");
  }
  new_layout.validate(old_channel.size());
  for (int s = 0; s < 2; ++s)
    for (int r : new_layout.side(s))
      if (live_of_old[static_cast<std::size_t>(r)] < 0)
        throw UsageError("recover: new layout lists dead channel rank " +
                         std::to_string(r));

  // 3. Parity coverage. Every live MEMBER must hold an encode epoch for the
  // current layout, and the epochs must agree (encode is member-collective,
  // so they do unless a member skipped one).
  const Layout old_layout = comp.layout();
  const bool covered = comp.is_member() && state_ != nullptr &&
                       state_->layout.side0 == old_layout.side0 &&
                       state_->layout.side1 == old_layout.side1;
  const std::uint64_t mine = covered ? state_->epoch : 0;
  const auto lo = live.allreduce(
      comp.is_member() ? mine : ~std::uint64_t{0},
      [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
  const auto hi = live.allreduce(
      comp.is_member() ? mine : std::uint64_t{0},
      [](std::uint64_t a, std::uint64_t b) { return a < b ? b : a; });

  std::vector<int> dead_members;
  for (int d : stats.dead_channel_ranks)
    if (old_layout.side_of(d) >= 0) dead_members.push_back(d);
  if (lo == 0 || lo == ~std::uint64_t{0} || lo != hi)
    throw RebuildError(
        "recover: no common encode epoch covers the current layout — "
        "encode() was never run, predates a layout change, or was skipped "
        "by a member");

  // 4. Tolerance: one death per parity group. A second death in the same
  // group takes both the data and the parity covering it.
  const auto groups = make_groups(old_layout, opts_.group_size);
  std::map<int, int> proxy_of;  // dead member -> proxy's LIVE rank
  for (int d : dead_members) {
    const std::vector<int>* g = group_containing(groups, d);
    if (g == nullptr)
      throw UsageError("recover: dead rank " + std::to_string(d) +
                       " is not in any parity group");
    std::vector<int> survivors;
    std::vector<int> lost;
    for (int r : *g)
      (live_of_old[static_cast<std::size_t>(r)] >= 0 ? survivors : lost)
          .push_back(r);
    if (lost.size() > 1) {
      std::string who;
      for (int r : lost) who += (who.empty() ? "" : ", ") + std::to_string(r);
      throw RebuildError(
          "recover: ranks " + who +
          " share one parity group; XOR parity tolerates one death per "
          "group (group_size=" +
          std::to_string(opts_.group_size) + ")");
    }
    proxy_of[d] = live_of_old[static_cast<std::size_t>(survivors.front())];
  }

  // 5. Rebuild each dead member's blob at its proxy: survivors of its group
  // re-shuffle the chunks their parities consumed at encode, XOR them out,
  // and ship the recovered chunks to the proxy for reassembly. Collectives
  // on the live comm (alltoall: fault-exempt reserved tags), one round per
  // dead member, every live rank participating (empty payloads outside the
  // group).
  std::map<int, Rebuilt> rebuilt;
  static trace::Counter& rebuilt_ctr =
      trace::counter("redundancy.rebuilt_bytes");
  for (int d : dead_members) {
    const std::vector<int>& g = *group_containing(groups, d);
    const int m = static_cast<int>(g.size());
    const int pd = index_of(d, g);
    std::vector<int> survivors;
    for (int r : g)
      if (live_of_old[static_cast<std::size_t>(r)] >= 0)
        survivors.push_back(r);
    const int proxy_live = proxy_of.at(d);
    const bool i_survive = index_of(me_old, survivors) >= 0;
    const int my_pos = i_survive ? index_of(me_old, g) : -1;

    // Phase A: survivor pair shuffle (shuffile: move surviving blocks to
    // where the rebuild needs them). Survivor j sends each other survivor h
    // the chunk of j's blob that h's parity consumed.
    std::vector<Buffer> ship(static_cast<std::size_t>(live.size()));
    if (i_survive) {
      const ChunkGeom gmine = geom(state_->blob.size(), m);
      for (int h_old : survivors) {
        if (h_old == me_old) continue;
        const int ph = index_of(h_old, g);
        const int c = (ph - my_pos - 1 + m) % m;
        const auto [coff, clen] = gmine.chunk(c);
        rt::PackBuffer b;
        b.pack(clen);
        b.pack_raw(state_->blob.span().subspan(coff, clen));
        ship[static_cast<std::size_t>(
            live_of_old[static_cast<std::size_t>(h_old)])] =
            std::move(b).take_buffer();
      }
    }
    std::vector<Buffer> got = live.alltoall(std::move(ship));

    // Phase B: XOR the survivors' chunks out of my parity; the residue is
    // the dead rank's chunk my parity covered (redset: rebuild the missing
    // block from the XOR of the stripe).
    Buffer my_piece;
    int my_chunk = -1;
    if (i_survive) {
      std::vector<std::byte> acc = state_->parity;
      for (int j_old : survivors) {
        if (j_old == me_old) continue;
        rt::UnpackBuffer u(
            got[static_cast<std::size_t>(
                live_of_old[static_cast<std::size_t>(j_old)])]);
        const auto clen = u.unpack<std::uint64_t>();
        xor_into(acc, u.unpack_raw(clen));
      }
      my_chunk = (my_pos - pd - 1 + m) % m;
      const detail::PeerHeader& hdr = state_->peers.at(d);
      const auto [doff, dlen] = geom(hdr.blob_size, m).chunk(my_chunk);
      (void)doff;
      // Zero-extension padded the parity to the longest contribution; the
      // dead rank's chunk is a prefix of it.
      acc.resize(static_cast<std::size_t>(dlen));
      my_piece = Buffer(std::move(acc));
    }

    // Phase C: recovered chunks converge on the proxy, which reassembles
    // the dead rank's blob (its own chunk folded in locally).
    std::vector<Buffer> ship2(static_cast<std::size_t>(live.size()));
    if (i_survive && live.rank() != proxy_live) {
      rt::PackBuffer b;
      b.pack(static_cast<std::int32_t>(my_chunk));
      b.pack(static_cast<std::uint64_t>(my_piece.size()));
      b.pack_raw(my_piece.span());
      ship2[static_cast<std::size_t>(proxy_live)] = std::move(b).take_buffer();
    }
    std::vector<Buffer> got2 = live.alltoall(std::move(ship2));
    if (live.rank() == proxy_live) {
      const detail::PeerHeader& hdr = state_->peers.at(d);
      const ChunkGeom gd = geom(hdr.blob_size, m);
      std::vector<std::byte> blob(static_cast<std::size_t>(hdr.blob_size),
                                  std::byte{0});
      auto place = [&](int c, std::span<const std::byte> bytes) {
        const auto [off, clen] = gd.chunk(c);
        if (bytes.size() != clen)
          throw UsageError("recover: rebuilt chunk size mismatch");
        if (clen > 0) std::memcpy(blob.data() + off, bytes.data(), clen);
      };
      place(my_chunk, my_piece.span());
      for (int j_old : survivors) {
        if (j_old == me_old) continue;
        rt::UnpackBuffer u(
            got2[static_cast<std::size_t>(
                live_of_old[static_cast<std::size_t>(j_old)])]);
        const auto c = u.unpack<std::int32_t>();
        const auto len = u.unpack<std::uint64_t>();
        place(c, u.unpack_raw(len));
      }
      Rebuilt rb;
      rb.blob = Buffer(std::move(blob));
      rb.hdr = hdr;
      stats.rebuilt_bytes += hdr.blob_size;
      rebuilt_ctr.add(hdr.blob_size);
      rebuilt.emplace(d, std::move(rb));
    }
  }

  // 6. Redistribute everything onto the new layout: snapshot state from
  // survivors, rebuilt blobs from proxies. Same flow as a rescale migration,
  // but over the live comm and with per-dead-slot exchanges.
  const std::uint64_t repoch = comp.begin_recovery_epoch();
  const int new_side_old = new_layout.side_of(me_old);
  std::map<std::string, FieldRegistration> incoming;
  for (auto& f : new_fields) {
    if (new_side_old < 0)
      throw UsageError("recover: ranks that are spectators under the new "
                       "layout must not pass field registrations");
    if (f.name.empty()) throw UsageError("field name must not be empty");
    if (!f.descriptor) throw UsageError("field needs a descriptor");
    if (f.elem_size == 0) throw UsageError("field elem_size must be > 0");
    const auto new_cohort_size =
        static_cast<int>(new_layout.side(new_side_old).size());
    if (f.descriptor->nranks() != new_cohort_size)
      throw UsageError("recover: field '" + f.name + "' is decomposed over " +
                       std::to_string(f.descriptor->nranks()) +
                       " ranks but the new side has " +
                       std::to_string(new_cohort_size));
    const std::string name = f.name;
    if (!incoming.emplace(name, std::move(f)).second)
      throw UsageError("recover: field '" + name + "' passed twice");
  }

  std::map<std::string, FieldRegistration> new_regs;
  int tag_counter = 0;
  for (int s = 0; s < 2; ++s)
    migrate_recovered_side(comp, s, old_layout, new_layout, live_of_old, live,
                           me_old, dead_members, rebuilt, proxy_of,
                           state_.get(), repoch, incoming, new_regs,
                           new_side_old, eff_timeout, eff_retries,
                           tag_counter, stats);
  if (!incoming.empty())
    throw UsageError("recover: field '" + incoming.begin()->first +
                     "' is not a currently registered field of this rank's "
                     "new side");

  // 7. Splice: translate the layout into the live comm's numbering and swap
  // the component onto it (subset cohorts, connection re-establishment,
  // schedule-cache retirement).
  Layout live_layout;
  for (int r : new_layout.side0)
    live_layout.side0.push_back(live_of_old[static_cast<std::size_t>(r)]);
  for (int r : new_layout.side1)
    live_layout.side1.push_back(live_of_old[static_cast<std::size_t>(r)]);
  comp.splice_recovered(live, std::move(live_layout), std::move(new_regs));

  // The encode epoch covered the pre-recovery layout; it is spent.
  state_.reset();
  static trace::Counter& recoveries = trace::counter("redundancy.recoveries");
  recoveries.add(1);
  stats.recover_ns = trace::now_ns() - t0;
  return stats;
}

}  // namespace mxn::redundancy
