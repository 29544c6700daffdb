// Hierarchical (two-level, PE-leader) collective algorithms.
//
// Co-resident ranks — grouped by each rank's placement_view, which is
// identical across ranks by construction — combine through a per-group
// shared contribution block with no messages at all; one leader per group
// (its lowest comm-local index) runs the inter-PE phase with the other
// leaders. With V ranks on P PEs this turns O(V log V) collective messages
// into O(P log P) plus memcpys, which is the whole point of
// overdecomposition-aware collectives.
//
// Every op is built on one member-phase skeleton: a HierCall fixes the
// caller's place in the grouping, and a HierPhase attaches the group's
// shared block, verifies the call shape and runs the op's deposit on
// arrival, parks ranks until their predicate holds, releases and wakes the
// members, and detaches on every exit path. An op body holds only its own
// deposit, leader algorithm and copy-out.
//
// Thread-safety model: a group's members usually share one PE thread, but
// the placement view may be stale against the live location table (explicit
// migrate_to, failure recovery keep views untouched so groupings still
// agree). Blocks are therefore mutex-guarded, and a peer is woken either
// directly (when resident on the calling thread) or via a kCtlCollWake
// control message processed on its own PE thread — a cross-thread
// scheduler().ready() could race the peer's suspend, the control message
// cannot: the peer's flag-check-then-suspend runs inside one ULT slice on
// its own thread, and the dispatcher only runs between slices.
//
// A rank parked in a block wait always re-checks its predicate under the
// block mutex, so redundant or early wakes are harmless no-ops.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/runtime.hpp"
#include "util/error.hpp"

namespace apv::mpi {

/// The grouping of one communicator under a rank's placement view. Every
/// member derives the identical topology (same membership list, same view),
/// so group ids, leader choices, and fold orders agree without messages.
struct CommTopo {
  /// Groups are contiguous comm-index intervals in group-id order (true
  /// under the default block map): required by order-sensitive algorithms
  /// (non-commutative reduce, scan), which fall back to the flat
  /// implementations otherwise.
  bool ordered = false;
  int ngroups = 0;
  std::vector<int> group_of;      ///< comm-local index -> group id
  std::vector<int> pos_in_group;  ///< comm-local index -> position in group
  std::vector<std::vector<int>> members;  ///< group -> sorted local indices
  std::vector<int> leader;        ///< group -> leader's comm-local index
};

namespace {

/// Leader counts up to this skip the logarithmic inter-PE trees for
/// latency-bound (small-payload) phases: at this scale the sequential hop
/// count, not the message count, is what a small collective's latency is
/// made of. PEs are threads of one process, so instead of exchanging
/// messages these leaders rendezvous in a second-level shared block (the
/// same mechanism the member phase uses), keyed under kLeaderGroup.
constexpr int kFlatLeaderMax = 8;

/// Registry group id for the inter-PE leader rendezvous block of one
/// collective instance. Member blocks use the (non-negative) group id, so
/// a negative sentinel can never collide with them under the same
/// (comm, seq) key.
constexpr int kLeaderGroup = -1;

/// Per-(collective instance, group) shared contribution block.
struct GroupBlock {
  std::mutex m;
  int expected = 0;   ///< group size
  int arrived = 0;
  int departed = 0;
  bool released = false;    ///< result (or release) published by the leader
  bool data_ready = false;  ///< bcast: root deposited into acc
  std::vector<std::byte> acc;  ///< fold accumulator / staging / result
  std::vector<std::vector<std::byte>> slots;  ///< ordered per-member staging
  // Runtime-checker stamp of the first arriver's call shape (0 = unset;
  // kCollHier* codes are nonzero).
  std::int32_t chk_color = 0;
  std::uint64_t chk_bytes = 0;
  const char* chk_name = nullptr;

  /// Stages member `pos`'s contribution in its own slot.
  void stage(int pos, const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    slots.resize(static_cast<std::size_t>(expected));
    slots[static_cast<std::size_t>(pos)].assign(p, p + len);
  }
  /// Appends every staged slot, in member order, to `out`.
  void append_slots(std::vector<std::byte>& out) const {
    for (const auto& s : slots) out.insert(out.end(), s.begin(), s.end());
  }
};

constexpr auto kNothing = [](GroupBlock&) {};

/// Secondary shared-block verification, called under blk.m at every block
/// arrival. The first arriver stamps the block with its call shape; later
/// arrivals compare against it. A second line of defense behind the entry
/// gate: it also covers composite collectives' inner hierarchical phases
/// (the depth-guarded gate checks only the outermost entry), and in abort
/// mode it stops a size-divergent member before any shared-block fold or
/// copy could overrun.
void block_check(check::Checker* ck, int world_rank, int lane,
                 GroupBlock& blk, std::int32_t color, std::uint64_t bytes,
                 const char* name) {
  if (ck == nullptr) [[likely]]
    return;
  if (blk.chk_color == 0) {
    blk.chk_color = color;
    blk.chk_bytes = bytes;
    blk.chk_name = name;
    return;
  }
  const std::string diag =
      ck->block_compare(lane, world_rank, blk.chk_name, blk.chk_color,
                        blk.chk_bytes, color, name, bytes);
  if (diag.empty()) [[likely]]
    return;
  ck->record("collective-block-mismatch", world_rank, diag);
  if (ck->mode() == check::Mode::Abort)
    throw util::ApvError(util::ErrorCode::CheckFailed, diag);
}

/// Arrival-order fold into a shared accumulator (commutative ops only): the
/// first contribution seeds it, every later one combines in through
/// `apply(in, inout)`. Returns whether a combine ran.
template <class Apply>
bool fold_into(std::vector<std::byte>& acc, const void* in, std::size_t bytes,
               Apply&& apply) {
  if (acc.empty()) {
    const auto* p = static_cast<const std::byte*>(in);
    acc.assign(p, p + bytes);
    return false;
  }
  apply(in, acc.data());
  return true;
}

/// Binomial tree over the L groups rooted at group `root`, on virtual ids
/// v = (g - root) mod L so the standard shapes apply wherever the root
/// lives. Node v's subtree is [v, v + up) clipped to L, where up is v's
/// lowest set bit (at the root: the first power of two >= L). Its parent
/// is v - up, reached in round log2(up); its children are v + m for every
/// power of two m < up with v + m < L, reached in round log2(m), child
/// v + m owning [v + m, min(v + 2m, L)).
struct Binomial {
  Binomial(int g, int root_group, int ngroups)
      : L(ngroups),
        root(root_group),
        v(((g - root_group) % ngroups + ngroups) % ngroups) {
    while (up < L && (v & up) == 0) {
      up <<= 1;
      ++up_round;
    }
  }

  int group(int vv) const { return (vv + root) % L; }
  bool is_root() const { return v == 0; }
  int parent() const { return group(v - up); }
  int hi() const { return std::min(v + up, L); }

  /// f(child, round, child_hi) for every child, nearest first: the order a
  /// combining tree folds in.
  template <class F>
  void children_up(F&& f) const {
    for (int m = 1, r = 0; m < up; m <<= 1, ++r)
      if (v + m < L) f(v + m, r, std::min(v + 2 * m, L));
  }
  /// The same children, farthest first: the order a distributing tree
  /// relays in.
  template <class F>
  void children_down(F&& f) const {
    for (int r = up_round - 1; r >= 0; --r) {
      const int m = 1 << r;
      if (v + m < L) f(v + m, r, std::min(v + 2 * m, L));
    }
  }

  int L, root, v;
  int up = 1, up_round = 0;
};

/// A scatter leader's copy-out: member j's slice, slice(j) = {pointer,
/// length} (called once per member, in order), goes to its slot; the
/// caller's own (position `pos`) goes straight to `out`, up to `cap`
/// bytes. Returns the bytes staged for the other members.
template <class Slice>
std::size_t deal_slices(GroupBlock& b, int pos, void* out, std::size_t cap,
                        Slice&& slice) {
  std::size_t staged = 0;
  b.slots.resize(static_cast<std::size_t>(b.expected));
  for (int j = 0; j < b.expected; ++j) {
    const auto [p, len] = slice(j);
    if (j == pos) {
      std::memcpy(out, p, std::min(len, cap));
    } else {
      b.slots[static_cast<std::size_t>(j)].assign(p, p + len);
      staged += len;
    }
  }
  return staged;
}

}  // namespace

/// Registry of live group blocks, keyed (comm, collective seq, group id).
/// Entries are created by the first arriving member and erased by the last
/// departing one; shared_ptr keeps a block alive for stragglers.
///
/// Sharded by group id: all members of a group normally run on one PE
/// thread, so registry traffic stays thread-local and concurrent
/// collectives on different PEs never bounce a shared lock's cache line
/// (one global mutex here was the dominant cost of a small collective).
struct Runtime::CollHierState {
  struct alignas(64) Shard {
    std::mutex m;
    std::map<std::tuple<std::int32_t, std::uint32_t, int>,
             std::shared_ptr<GroupBlock>>
        blocks;
  };
  std::vector<Shard> shards;

  explicit CollHierState(std::size_t nshards)
      : shards(nshards == 0 ? 1 : nshards) {}

  Shard& shard_for(int group) {
    return shards[static_cast<std::size_t>(group) % shards.size()];
  }
};

void Runtime::init_hier_state() {
  hier_ = std::make_shared<CollHierState>(
      static_cast<std::size_t>(cluster_->num_pes()));
}

std::shared_ptr<const CommTopo> Runtime::comm_topo(RankMpi& rm, CommId comm) {
  const auto idx = static_cast<std::size_t>(comm);
  if (rm.topo_cache.size() <= idx) rm.topo_cache.resize(idx + 1);
  auto& entry = rm.topo_cache[idx];
  if (entry.second != nullptr && entry.first == rm.view_epoch)
    return entry.second;

  const CommInfo& ci = comm_info(rm, comm);
  const int n = ci.size();
  auto topo = std::make_shared<CommTopo>();
  topo->group_of.resize(static_cast<std::size_t>(n));
  topo->pos_in_group.resize(static_cast<std::size_t>(n));
  // Group ids are assigned by first appearance in comm-index order, so
  // group 0 holds index 0 and group mins increase with the id.
  std::map<comm::PeId, int> gid;
  for (int i = 0; i < n; ++i) {
    const int w = ci.world_of(i);
    const comm::PeId pe =
        static_cast<std::size_t>(w) < rm.placement_view.size()
            ? rm.placement_view[static_cast<std::size_t>(w)]
            : 0;
    auto [it, fresh] =
        gid.emplace(pe, static_cast<int>(topo->members.size()));
    if (fresh) topo->members.emplace_back();
    const int g = it->second;
    topo->group_of[static_cast<std::size_t>(i)] = g;
    topo->pos_in_group[static_cast<std::size_t>(i)] =
        static_cast<int>(topo->members[static_cast<std::size_t>(g)].size());
    topo->members[static_cast<std::size_t>(g)].push_back(i);
  }
  topo->ngroups = static_cast<int>(topo->members.size());
  topo->leader.reserve(topo->members.size());
  for (const auto& g : topo->members) topo->leader.push_back(g.front());
  topo->ordered = true;
  int next = 0;
  for (const auto& g : topo->members) {
    for (const int i : g) {
      if (i != next++) {
        topo->ordered = false;
        break;
      }
    }
    if (!topo->ordered) break;
  }
  entry = {rm.view_epoch, std::shared_ptr<const CommTopo>(topo)};
  return entry.second;
}

/// One hierarchical collective call as the calling rank sees it: its place
/// in the communicator's grouping and the instance's sequence number.
/// Construction consumes the sequence number, so build it only once the op
/// is committed to the hierarchical path.
struct Runtime::HierCall {
  HierCall(Runtime& runtime, RankMpi& rank, CommId c)
      : rt(runtime),
        rm(rank),
        comm(c),
        ci(runtime.comm_info(rank, c)),
        topo(runtime.comm_topo(rank, c)),
        n(ci.size()),
        me(ci.local_of(rank.world_rank)),
        g(topo->group_of[static_cast<std::size_t>(me)]),
        members(topo->members[static_cast<std::size_t>(g)]),
        gsize(static_cast<int>(members.size())),
        pos(topo->pos_in_group[static_cast<std::size_t>(me)]),
        lead(topo->leader[static_cast<std::size_t>(g)]),
        L(topo->ngroups),
        seq(rank.coll_seq_for(c)++),
        ps(runtime.pe_state_[static_cast<std::size_t>(rank.resident_pe)]) {}

  int group_of(int i) const {
    return topo->group_of[static_cast<std::size_t>(i)];
  }
  const std::vector<int>& members_of(int gg) const {
    return topo->members[static_cast<std::size_t>(gg)];
  }
  int leader_world(int gg) const {
    return ci.world_of(topo->leader[static_cast<std::size_t>(gg)]);
  }
  /// Rooted vector ops let the root act as its own group's leader: every
  /// rank derives the same choice, and the root's data moves straight
  /// between the shared slots and the user buffer, with no staging hop.
  int eff_leader(int gg, int root) const {
    return gg == group_of(root) ? root
                                : topo->leader[static_cast<std::size_t>(gg)];
  }
  int tag(int op, int round) const { return internal_tag(op, round, seq); }

  Runtime& rt;
  RankMpi& rm;
  const CommId comm;
  const CommInfo& ci;
  const std::shared_ptr<const CommTopo> topo;
  const int n;   ///< communicator size
  const int me;  ///< my comm-local index
  const int g;   ///< my group id
  const std::vector<int>& members;  ///< my group's sorted local indices
  const int gsize;
  const int pos;   ///< my slot in the group
  const int lead;  ///< my group's leader
  const int L;     ///< number of groups
  const std::uint32_t seq;
  PeState& ps;  ///< coll_* counters of the PE the call started on
};

/// One rank's side of a shared block of one collective instance: the
/// member phase every hierarchical op is built on. Construction attaches
/// the block (the first arriver creates it); destruction detaches it (the
/// last departer erases it), so every exit path, throws included, leaves
/// the registry clean. `members` are the comm-local indices sharing the
/// block, `leader` the one parked in await_group() until all have arrived.
class Runtime::HierPhase {
 public:
  HierPhase(HierCall& h, int group, const std::vector<int>& members,
            int leader)
      : h_(h),
        group_(group),
        members_(members),
        leader_(leader),
        blk_(attach()) {}
  ~HierPhase() { detach(); }
  HierPhase(const HierPhase&) = delete;
  HierPhase& operator=(const HierPhase&) = delete;

  GroupBlock& blk() { return *blk_; }

  /// Arrival: checks the call shape against the block's stamp, counts the
  /// arrival and runs `deposit(blk)`, all under the block lock. Returns
  /// whether this arrival completed the block.
  template <class F>
  bool deposit(std::int32_t color, std::uint64_t bytes, const char* name,
               F&& fn) {
    std::lock_guard<std::mutex> lk(blk_->m);
    block_check(h_.rt.checker(), h_.rm.world_rank, h_.rm.resident_pe, *blk_,
                color, bytes, name);
    const bool last = ++blk_->arrived == blk_->expected;
    fn(*blk_);
    return last;
  }

  /// deposit(), plus the rule that ends the leader's await_group(): the
  /// arrival that completes the group wakes the leader.
  template <class F>
  void arrive(std::int32_t color, std::uint64_t bytes, const char* name,
              F&& fn) {
    if (deposit(color, bytes, name, fn) && h_.me != leader_) wake(leader_);
  }

  /// Parks until `pred(blk)` holds, checked under the block lock.
  template <class P>
  void park_until(P&& pred) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(blk_->m);
        if (pred(*blk_)) return;
      }
      h_.rt.block_current(h_.rm);
    }
  }

  /// Leader: parks until every member has arrived.
  void await_group() {
    park_until([](const GroupBlock& b) { return b.arrived == b.expected; });
  }

  /// Parks until the block is released, then runs `take(blk)` under the
  /// lock.
  template <class F>
  void await_release(F&& take) {
    park_until([&](GroupBlock& b) {
      if (!b.released) return false;
      take(b);
      return true;
    });
  }

  /// Runs `fill(blk)` and marks the block released, under the lock.
  template <class F>
  void publish(F&& fill) {
    std::lock_guard<std::mutex> lk(blk_->m);
    fill(*blk_);
    blk_->released = true;
  }

  /// publish(), then wake_members(skip).
  template <class F>
  void release(F&& fill, int skip = -1) {
    publish(fill);
    wake_members(skip);
  }

  /// Wakes every other member but `skip`.
  void wake_members(int skip = -1) {
    for (const int m : members_)
      if (m != h_.me && m != skip) wake(m);
  }

  /// Wakes member `m` (a comm-local index) wherever it is parked.
  void wake(int m) {
    h_.rt.wake_coll_member(h_.rm.resident_pe,
                           h_.rt.rank_state(h_.ci.world_of(m)));
  }

 private:
  std::tuple<std::int32_t, std::uint32_t, int> key() const {
    return {static_cast<std::int32_t>(h_.comm), h_.seq, group_};
  }

  std::shared_ptr<GroupBlock> attach() {
    auto& shard = h_.rt.hier_->shard_for(group_);
    std::lock_guard<std::mutex> lk(shard.m);
    auto [it, fresh] = shard.blocks.try_emplace(key());
    if (fresh) {
      it->second = std::make_shared<GroupBlock>();
      it->second->expected = static_cast<int>(members_.size());
    }
    return it->second;
  }

  void detach() {
    {
      std::lock_guard<std::mutex> lk(blk_->m);
      if (++blk_->departed != blk_->expected) return;
    }
    auto& shard = h_.rt.hier_->shard_for(group_);
    std::lock_guard<std::mutex> lk(shard.m);
    shard.blocks.erase(key());
  }

  HierCall& h_;
  const int group_;
  const std::vector<int>& members_;
  const int leader_;
  const std::shared_ptr<GroupBlock> blk_;
};

namespace {

/// Flat leader rendezvous for 1 < L <= kFlatLeaderMax: the group leaders
/// meet in one second-level shared block instead of exchanging messages.
/// With src < 0 every leader folds its part in (`fold`, under the block
/// lock, in arrival order — commutative ops only) and the last arrival
/// releases the block; with src >= 0 only group src's leader deposits, and
/// that releases it. `take` then copies the result out at group dst's
/// leader, or at every leader but the source when dst < 0. Leaders that
/// need no result depart without waiting.
template <class Fold, class Take>
void flat_leaders(Runtime::HierCall& h, int src, int dst, std::int32_t color,
                  std::uint64_t bytes, const char* name, Fold&& fold,
                  Take&& take) {
  Runtime::HierPhase lp(h, kLeaderGroup, h.topo->leader, /*leader=*/-1);
  ++h.ps.coll_shared_rendezvous;
  bool releases = false;
  if (src < 0 || src == h.g) {
    lp.deposit(color, bytes, name, [&](GroupBlock& b) {
      fold(b);
      b.released = src >= 0 || b.arrived == b.expected;
      releases = b.released;
    });
  }
  if (releases && dst < 0)
    lp.wake_members();
  else if (releases && dst != h.g)
    lp.wake(h.topo->leader[static_cast<std::size_t>(dst)]);
  if (h.g != src && (dst < 0 || dst == h.g)) lp.await_release(take);
}

}  // namespace

// ---------------------------------------------------------------------------
// Barrier

bool Runtime::hier_barrier(RankMpi& rm, CommId comm) {
  HierCall h(*this, rm, comm);
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierBarrier, 0, "barrier", kNothing);
  if (h.me != h.lead) {
    mp.await_release(kNothing);
    return true;
  }
  mp.await_group();
  if (h.L > 1 && h.L <= kFlatLeaderMax) {
    // One shared arrival counter and a cross-PE wake per sleeping leader
    // instead of L*(L-1) zero-byte tokens.
    flat_leaders(h, -1, -1, kCollHierBarrier, 0, "barrier", kNothing,
                 kNothing);
  } else if (h.L > 1) {
    // Leader dissemination over groups, zero-byte tokens.
    for (int dist = 1, round = 0; dist < h.L; dist <<= 1, ++round) {
      const int tag = h.tag(kCollHierBarrier, round);
      ++h.ps.coll_leader_msgs;
      coll_send(rm, h.leader_world((h.g + dist) % h.L), tag, nullptr, 0,
                comm);
      coll_recv(rm, h.leader_world(((h.g - dist) % h.L + h.L) % h.L), tag,
                nullptr, 0, comm);
    }
  }
  mp.release(kNothing);
  return true;
}

// ---------------------------------------------------------------------------
// Bcast

bool Runtime::hier_bcast(RankMpi& rm, void* buf, std::size_t bytes, int root,
                         CommId comm) {
  HierCall h(*this, rm, comm);
  const int rg = h.group_of(root);
  const bool leader = h.me == h.lead;
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.deposit(kCollHierBcast, bytes, "bcast", [&](GroupBlock& b) {
    if (h.me == root) {
      const auto* p = static_cast<const std::byte*>(buf);
      b.acc.assign(p, p + bytes);
      b.data_ready = true;
    } else if (leader && h.g != rg) {
      b.acc.resize(bytes);  // the leader receives straight into acc
    }
  });
  if (!leader) {
    if (h.me == root) {
      mp.wake(h.lead);
    } else {
      mp.await_release(
          [&](GroupBlock& b) { std::memcpy(buf, b.acc.data(), bytes); });
    }
    return true;
  }

  // Leader. In the root's group: wait for the root's deposit. Elsewhere:
  // receive from the parent leader in the group-level binomial tree. Small
  // payloads at a small leader count: a shared hand-off block beats the
  // tree on sequential hops — the root's group leader deposits once, every
  // other leader copies out.
  std::vector<std::byte>& acc = mp.blk().acc;
  const bool flat = h.L > 1 && h.L <= kFlatLeaderMax && bytes < kRabCutoff;
  const Binomial tree(h.g, rg, h.L);
  const int tag = h.tag(kCollHierBcast, 0);
  if (h.g == rg)
    mp.park_until([](const GroupBlock& b) { return b.data_ready; });
  else if (!flat)
    coll_recv(rm, h.leader_world(tree.parent()), tag, acc.data(), bytes, comm);
  if (flat) {
    flat_leaders(
        h, rg, -1, kCollHierBcast, bytes, "bcast",
        [&](GroupBlock& lb) { lb.acc = acc; },
        [&](GroupBlock& lb) { std::memcpy(acc.data(), lb.acc.data(), bytes); });
  } else {
    // Relay down the leader subtree.
    tree.children_down([&](int c, int, int) {
      ++h.ps.coll_leader_msgs;
      coll_send(rm, h.leader_world(tree.group(c)), tag, acc.data(), bytes,
                comm);
    });
  }
  mp.release(
      [&](GroupBlock& b) {
        if (h.me != root) std::memcpy(buf, b.acc.data(), bytes);
      },
      /*skip=*/root);
  return true;
}

// ---------------------------------------------------------------------------
// Reduce

bool Runtime::hier_reduce(RankMpi& rm, const void* sbuf, void* rbuf,
                          int count, Datatype dt, const Op& op, int root,
                          CommId comm) {
  if (!op.commutative && !comm_topo(rm, comm)->ordered)
    return false;  // naive fold keeps rank order
  HierCall h(*this, rm, comm);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  const int rg = h.group_of(root);
  const auto combine = [&](const void* in, void* inout) {
    apply_op(rm, op, dt, in, inout, count);
  };
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierReduce, bytes, "reduce", [&](GroupBlock& b) {
    // Commutative: incremental in-block fold, each member combining through
    // its own code copy (user ops resolve per rank). Order-sensitive: stage
    // per member, the leader folds in index order.
    if (!op.commutative)
      b.stage(h.pos, sbuf, bytes);
    else if (fold_into(b.acc, sbuf, bytes, combine))
      ++h.ps.coll_local_combines;
  });
  if (h.me != h.lead) {
    // The root parks until its group leader publishes the global result.
    if (h.me == root) {
      mp.await_release(
          [&](GroupBlock& b) { std::memcpy(rbuf, b.acc.data(), bytes); });
    }
    return true;
  }
  mp.await_group();

  std::vector<std::byte> acc;
  if (op.commutative) {
    acc = mp.blk().acc;  // fully folded group partial
  } else {
    // In-order right fold of the staged slots (equals the left fold by
    // associativity): acc = s_0 op s_1 op ... op s_{gsize-1}.
    const auto& slots = mp.blk().slots;
    acc = slots.back();
    for (int i = h.gsize - 2; i >= 0; --i) {
      combine(slots[static_cast<std::size_t>(i)].data(), acc.data());
      ++h.ps.coll_local_combines;
    }
  }

  if (h.L > 1 && op.commutative && h.L <= kFlatLeaderMax &&
      bytes < kRabCutoff) {
    // Shared leader fold: only the root's group leader needs the total.
    flat_leaders(
        h, -1, rg, kCollHierReduce, bytes, "reduce",
        [&](GroupBlock& lb) { fold_into(lb.acc, acc.data(), bytes, combine); },
        [&](GroupBlock& lb) { std::memcpy(acc.data(), lb.acc.data(), bytes); });
  } else if (h.L > 1) {
    // Binomial combine over the leaders. Commutative: rooted at the root's
    // group. Order-sensitive: over absolute group ids (contiguous index
    // intervals in id order), each node folding its left interval with the
    // incoming right one; the total lands at group 0 and is forwarded.
    std::vector<std::byte> incoming(bytes);
    const Binomial tree(h.g, op.commutative ? rg : 0, h.L);
    tree.children_up([&](int c, int r, int) {
      coll_recv(rm, h.leader_world(tree.group(c)),
                h.tag(kCollHierReduce, r & 0x3f), incoming.data(), bytes,
                comm);
      if (op.commutative) {
        combine(incoming.data(), acc.data());
      } else {
        combine(acc.data(), incoming.data());  // acc op incoming
        acc.swap(incoming);
      }
    });
    if (!tree.is_root()) {
      ++h.ps.coll_leader_msgs;
      coll_send(rm, h.leader_world(tree.parent()),
                h.tag(kCollHierReduce, tree.up_round & 0x3f), acc.data(),
                bytes, comm);
    }
    if (!op.commutative && rg != 0) {
      const int fwd_tag = h.tag(kCollHierReduce, 63);
      if (h.g == 0) {
        ++h.ps.coll_leader_msgs;
        coll_send(rm, h.leader_world(rg), fwd_tag, acc.data(), bytes, comm);
      } else if (h.g == rg) {
        coll_recv(rm, h.leader_world(0), fwd_tag, acc.data(), bytes, comm);
      }
    }
  }

  if (h.g == rg) {
    if (h.me == root) {
      std::memcpy(rbuf, acc.data(), bytes);
    } else {
      mp.publish([&](GroupBlock& b) { b.acc = std::move(acc); });
      mp.wake(root);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Allreduce

bool Runtime::hier_allreduce(RankMpi& rm, const void* sbuf, void* rbuf,
                             int count, Datatype dt, const Op& op,
                             CommId comm) {
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  if (!op.commutative) {
    // Order-sensitive: hierarchical reduce to local root 0, then
    // hierarchical bcast (each consumes its own sequence number).
    if (!comm_topo(rm, comm)->ordered) return false;
    if (!hier_reduce(rm, sbuf, rbuf, count, dt, op, /*root=*/0, comm))
      return false;
    return hier_bcast(rm, rbuf, bytes, /*root=*/0, comm);
  }

  HierCall h(*this, rm, comm);
  const auto combine = [&](const void* in, void* inout) {
    apply_op(rm, op, dt, in, inout, count);
  };
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierAllred, bytes, "allreduce", [&](GroupBlock& b) {
    if (fold_into(b.acc, sbuf, bytes, combine)) ++h.ps.coll_local_combines;
  });
  const auto copy_out = [&](GroupBlock& b) {
    std::memcpy(rbuf, b.acc.data(), bytes);
  };
  if (h.me != h.lead) {
    mp.await_release(copy_out);
    return true;
  }
  mp.await_group();

  // Inter-PE phase among the L leaders on the group partial in the block's
  // acc (members only read it after `released`, so the leader works in
  // place).
  std::byte* acc = mp.blk().acc.data();
  if (h.L > 1 && h.L <= kFlatLeaderMax && bytes < kRabCutoff) {
    // Shared leader fold: one sequential hop and zero leader messages,
    // which is what a latency-bound allreduce is made of at this leader
    // count.
    flat_leaders(
        h, -1, -1, kCollHierAllred, bytes, "allreduce",
        [&](GroupBlock& lb) { fold_into(lb.acc, acc, bytes, combine); },
        [&](GroupBlock& lb) { std::memcpy(acc, lb.acc.data(), bytes); });
  } else if (h.L > 1) {
    std::vector<std::byte> incoming(bytes);
    int pof2 = 1;
    while (pof2 * 2 <= h.L) pof2 <<= 1;
    const int rem = h.L - pof2;
    const std::size_t esize = datatype_size(dt);
    const int pre_tag = h.tag(kCollHierAllred, 62);
    const int post_tag = h.tag(kCollHierAllred, 61);
    const int g = h.g;

    // Fold the non-power-of-two remainder into the even partners first;
    // odd leaders rejoin when the result is re-broadcast at the end.
    int rd = -1;  // my index within the power-of-two participant set
    if (g < 2 * rem) {
      if ((g % 2) != 0) {
        ++h.ps.coll_leader_msgs;
        coll_send(rm, h.leader_world(g - 1), pre_tag, acc, bytes, comm);
        coll_recv(rm, h.leader_world(g - 1), post_tag, acc, bytes, comm);
      } else {
        coll_recv(rm, h.leader_world(g + 1), pre_tag, incoming.data(), bytes,
                  comm);
        combine(incoming.data(), acc);
        rd = g / 2;
      }
    } else {
      rd = g - rem;
    }

    auto rd_world = [&](int r) {
      return h.leader_world(r < rem ? 2 * r : r + rem);
    };

    if (rd >= 0 && pof2 > 1) {
      const bool use_rab = bytes >= kRabCutoff && count >= pof2;
      if (!use_rab) {
        // Recursive doubling: log2(pof2) pairwise exchange-and-fold rounds.
        int round = 0;
        for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
          const int partner = rd_world(rd ^ mask);
          const int tag = h.tag(kCollHierAllred, round & 0x3f);
          ++h.ps.coll_leader_msgs;
          coll_send(rm, partner, tag, acc, bytes, comm);
          coll_recv(rm, partner, tag, incoming.data(), bytes, comm);
          combine(incoming.data(), acc);
        }
      } else {
        // Rabenseifner: reduce-scatter by recursive halving, then
        // allgather by recursive doubling — each leader moves ~2x the
        // payload total instead of log2(P) full copies.
        std::vector<int> dsp(static_cast<std::size_t>(pof2) + 1, 0);
        for (int i = 0; i < pof2; ++i) {
          dsp[static_cast<std::size_t>(i) + 1] =
              dsp[static_cast<std::size_t>(i)] + count / pof2 +
              (i < count % pof2 ? 1 : 0);
        }
        auto range_count = [&](int lo, int hi) {
          return dsp[static_cast<std::size_t>(hi)] -
                 dsp[static_cast<std::size_t>(lo)];
        };
        auto range_bytes = [&](int lo, int hi) {
          return static_cast<std::size_t>(range_count(lo, hi)) * esize;
        };
        auto range_ptr = [&](int lo) {
          return acc +
                 static_cast<std::size_t>(dsp[static_cast<std::size_t>(lo)]) *
                     esize;
        };
        // Reduce-scatter: my chunk window halves every round.
        std::vector<std::pair<int, int>> windows;  // window before each split
        int lo = 0, hi = pof2;
        int round = 0;
        for (int mask = pof2 >> 1; mask > 0; mask >>= 1, ++round) {
          const int partner = rd_world(rd ^ mask);
          const int mid = (lo + hi) / 2;
          windows.emplace_back(lo, hi);
          int keep_lo, keep_hi, send_lo, send_hi;
          if ((rd & mask) == 0) {  // I am the lower half: keep [lo, mid)
            keep_lo = lo, keep_hi = mid, send_lo = mid, send_hi = hi;
          } else {
            keep_lo = mid, keep_hi = hi, send_lo = lo, send_hi = mid;
          }
          const int tag = h.tag(kCollHierRabRs, round & 0x3f);
          ++h.ps.coll_leader_msgs;
          coll_send(rm, partner, tag, range_ptr(send_lo),
                    range_bytes(send_lo, send_hi), comm);
          std::vector<std::byte> part(range_bytes(keep_lo, keep_hi));
          coll_recv(rm, partner, tag, part.data(), part.size(), comm);
          apply_op(rm, op, dt, part.data(), range_ptr(keep_lo),
                   range_count(keep_lo, keep_hi));
          lo = keep_lo;
          hi = keep_hi;
        }
        // Allgather: replay the windows in reverse, swapping halves.
        for (int r = static_cast<int>(windows.size()) - 1; r >= 0; --r) {
          const int partner = rd_world(rd ^ (pof2 >> (r + 1)));
          const auto [wlo, whi] = windows[static_cast<std::size_t>(r)];
          // My current window is my kept half of [wlo, whi); the partner
          // holds the other half, fully reduced.
          const int olo = lo == wlo ? hi : wlo;
          const int ohi = lo == wlo ? whi : lo;
          const int tag = h.tag(kCollHierRabAg, r & 0x3f);
          ++h.ps.coll_leader_msgs;
          coll_send(rm, partner, tag, range_ptr(lo), range_bytes(lo, hi),
                    comm);
          coll_recv(rm, partner, tag, range_ptr(olo), range_bytes(olo, ohi),
                    comm);
          lo = wlo;
          hi = whi;
        }
      }
      if (g < 2 * rem) {
        ++h.ps.coll_leader_msgs;
        coll_send(rm, h.leader_world(g + 1), post_tag, acc, bytes, comm);
      }
    }
  }
  mp.release(copy_out);
  return true;
}

// ---------------------------------------------------------------------------
// Scan

bool Runtime::hier_scan(RankMpi& rm, const void* sbuf, void* rbuf, int count,
                        Datatype dt, const Op& op, CommId comm) {
  if (!comm_topo(rm, comm)->ordered)
    return false;  // prefix needs contiguous groups
  HierCall h(*this, rm, comm);
  const std::size_t bytes =
      static_cast<std::size_t>(count) * datatype_size(dt);
  const auto combine = [&](const void* in, void* inout) {
    apply_op(rm, op, dt, in, inout, count);
  };
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierScan, bytes, "scan",
            [&](GroupBlock& b) { b.stage(h.pos, sbuf, bytes); });
  const auto copy_out = [&](GroupBlock& b) {
    std::memcpy(rbuf, b.slots[static_cast<std::size_t>(h.pos)].data(), bytes);
  };
  if (h.me != h.lead) {
    mp.await_release(copy_out);
    return true;
  }
  mp.await_group();

  // Group-local inclusive prefixes, in index order (slot i becomes
  // s_0 op ... op s_i); the last slot is the group total.
  auto& slots = mp.blk().slots;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    combine(slots[i - 1].data(), slots[i].data());
    ++h.ps.coll_local_combines;
  }

  // Serial leader chain carrying the exclusive prefix of whole groups:
  // L-1 messages instead of n-1.
  const int tag = h.tag(kCollHierScan, 0);
  std::vector<std::byte> excl;
  if (h.g > 0) {
    excl.resize(bytes);
    coll_recv(rm, h.leader_world(h.g - 1), tag, excl.data(), bytes, comm);
  }
  if (h.g + 1 < h.L) {
    std::vector<std::byte> carry = slots.back();
    if (h.g > 0) combine(excl.data(), carry.data());  // excl op group total
    ++h.ps.coll_leader_msgs;
    coll_send(rm, h.leader_world(h.g + 1), tag, carry.data(), bytes, comm);
  }
  mp.release([&](GroupBlock& b) {
    if (h.g > 0) {
      for (auto& s : b.slots) combine(excl.data(), s.data());
    }
    copy_out(b);
  });
  return true;
}

// ---------------------------------------------------------------------------
// Gatherv

bool Runtime::hier_gatherv(RankMpi& rm, const void* sbuf, std::size_t sbytes,
                           void* rbuf, const int* rcounts, const int* displs,
                           std::size_t resize, int root, CommId comm) {
  HierCall h(*this, rm, comm);
  const int rg = h.group_of(root);
  const int eff_lead = h.eff_leader(h.g, root);
  HierPhase mp(h, h.g, h.members, eff_lead);
  // bytes=0: per-member contribution sizes legitimately differ.
  mp.arrive(kCollHierGather, 0, "gatherv",
            [&](GroupBlock& b) { b.stage(h.pos, sbuf, sbytes); });
  h.ps.coll_vec_bytes += sbytes;
  // Fire-and-forget: the leader's shared_ptr keeps the slots alive, so a
  // contributing member is done the moment its deposit lands.
  if (h.me != eff_lead) return true;
  mp.await_group();
  const auto& slots = mp.blk().slots;

  if (h.g != rg) {
    // Non-root group leader: ship [length table][concatenated data] to the
    // root. Member sizes are only known here (the count table lives at the
    // root), so the inter-PE phase is direct sends — a combining tree
    // could not size its intermediate buffers.
    std::vector<std::uint64_t> lens;
    for (const auto& s : slots) lens.push_back(s.size());
    std::vector<std::byte> agg;
    mp.blk().append_slots(agg);
    ++h.ps.coll_leader_msgs;
    coll_send_staged(rm, h.ci.world_of(root), h.tag(kCollHierGather, 0),
                     lens.data(), lens.size() * sizeof(std::uint64_t), comm);
    coll_send_vec(rm, h.ci.world_of(root), h.tag(kCollHierGather, 1),
                  agg.data(), agg.size(), comm);
    return true;
  }

  // Root: own group's contributions come straight out of the shared slots;
  // remote groups arrive as [lengths][data] from each leader. Length
  // irecvs are pre-posted for every group before any data is drained.
  auto* rp = static_cast<std::byte*>(rbuf);
  auto place = [&](int i, const std::byte* p, std::size_t len) {
    std::memcpy(rp + static_cast<std::size_t>(displs[i]) * resize, p,
                std::min(len, static_cast<std::size_t>(rcounts[i]) * resize));
  };
  for (int j = 0; j < h.gsize; ++j) {
    const auto& s = slots[static_cast<std::size_t>(j)];
    place(h.members[static_cast<std::size_t>(j)], s.data(), s.size());
  }
  std::vector<std::vector<std::uint64_t>> lens(static_cast<std::size_t>(h.L));
  std::vector<Request> lreqs(static_cast<std::size_t>(h.L), kRequestNull);
  for (int gg = 0; gg < h.L; ++gg) {
    if (gg == rg) continue;
    auto& gl = lens[static_cast<std::size_t>(gg)];
    gl.resize(h.members_of(gg).size());
    lreqs[static_cast<std::size_t>(gg)] = do_irecv(
        rm, gl.data(), gl.size() * sizeof(std::uint64_t),
        h.topo->leader[static_cast<std::size_t>(gg)],
        h.tag(kCollHierGather, 0), comm);
  }
  for (int gg = 0; gg < h.L; ++gg) {
    if (gg == rg) continue;
    do_wait(rm, lreqs[static_cast<std::size_t>(gg)]);
    const auto& gm = h.members_of(gg);
    const auto& gl = lens[static_cast<std::size_t>(gg)];
    std::size_t total = 0;
    for (const std::uint64_t l : gl) total += l;
    std::vector<std::byte> agg(total);
    coll_recv_vec(rm, h.leader_world(gg), h.tag(kCollHierGather, 1),
                  agg.data(), total, comm);
    std::size_t off = 0;
    for (std::size_t j = 0; j < gm.size(); ++j) {
      const auto l = static_cast<std::size_t>(gl[j]);
      place(gm[j], agg.data() + off, l);
      off += l;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Gather (uniform block)

bool Runtime::hier_gather(RankMpi& rm, const void* sbuf, std::size_t sblock,
                          void* rbuf, int root, CommId comm) {
  // Size-based algorithm selection: once a single contribution exceeds the
  // vector cutoff the operation is copy-bound, and staging it through the
  // PE leader only adds memcpys without reducing bytes on the wire. Every
  // rank evaluates the same uniform predicate, so all fall back together.
  if (sblock > kVecCutoff) return false;
  HierCall h(*this, rm, comm);
  const int rg = h.group_of(root);
  const int eff_lead = h.eff_leader(h.g, root);
  HierPhase mp(h, h.g, h.members, eff_lead);
  mp.arrive(kCollHierGather, sblock, "gather",
            [&](GroupBlock& b) { b.stage(h.pos, sbuf, sblock); });
  h.ps.coll_vec_bytes += sblock;
  if (h.me != eff_lead) return true;
  mp.await_group();

  const Binomial tree(h.g, rg, h.L);
  auto agent = [&](int gg) { return h.ci.world_of(h.eff_leader(gg, root)); };
  auto span_bytes = [&](int lo, int hi) {  // virtual group ids [lo, hi)
    std::size_t b = 0;
    for (int v = lo; v < hi; ++v) b += h.members_of(tree.group(v)).size();
    return b * sblock;
  };
  auto* rp = static_cast<std::byte*>(rbuf);
  auto place = [&](int i, const std::byte* p) {
    std::memcpy(rp + static_cast<std::size_t>(i) * sblock, p, sblock);
  };

  if (static_cast<std::size_t>(h.n) * sblock <= kVecCutoff || h.L == 1) {
    // Eager: binomial combine toward the root's group. Each node
    // accumulates its subtree's contiguous virtual interval; every
    // intermediate buffer size is computable from the shared topology,
    // which is what makes a combining tree possible for uniform blocks.
    std::vector<std::byte> vbuf;
    vbuf.reserve(span_bytes(tree.v, tree.hi()));
    mp.blk().append_slots(vbuf);
    tree.children_up([&](int c, int r, int chi) {
      const std::size_t old = vbuf.size();
      const std::size_t add = span_bytes(c, chi);
      vbuf.resize(old + add);
      coll_recv_vec(rm, agent(tree.group(c)),
                    h.tag(kCollHierGather, (2 + r) & 0x3f), vbuf.data() + old,
                    add, comm);
    });
    if (!tree.is_root()) {
      coll_send_vec(rm, agent(tree.parent()),
                    h.tag(kCollHierGather, (2 + tree.up_round) & 0x3f),
                    vbuf.data(), vbuf.size(), comm);
    } else {
      // Unpack virtual order back to comm-index placement.
      const std::byte* p = vbuf.data();
      for (int v = 0; v < h.L; ++v) {
        for (const int i : h.members_of(tree.group(v))) {
          place(i, p);
          p += sblock;
        }
      }
    }
  } else if (h.g != rg) {
    // Chunked: direct leader->root shipment of the PE-aggregate.
    std::vector<std::byte> agg;
    agg.reserve(static_cast<std::size_t>(h.gsize) * sblock);
    mp.blk().append_slots(agg);
    coll_send_vec(rm, h.ci.world_of(root), h.tag(kCollHierGather, 1),
                  agg.data(), agg.size(), comm);
  } else {
    const auto& slots = mp.blk().slots;
    for (int j = 0; j < h.gsize; ++j) {
      place(h.members[static_cast<std::size_t>(j)],
            slots[static_cast<std::size_t>(j)].data());
    }
    const int tag = h.tag(kCollHierGather, 1);
    for (int gg = 0; gg < h.L; ++gg) {
      if (gg == rg) continue;
      const auto& gm = h.members_of(gg);
      const std::size_t gb = gm.size() * sblock;
      if (h.topo->ordered) {
        // Group members are one contiguous comm-index interval: the
        // aggregate lands straight in rbuf with no intermediate buffer.
        coll_recv_vec(rm, h.ci.world_of(gm.front()), tag,
                      rp + static_cast<std::size_t>(gm.front()) * sblock, gb,
                      comm);
      } else {
        std::vector<std::byte> agg(gb);
        coll_recv_vec(rm, h.ci.world_of(gm.front()), tag, agg.data(), gb,
                      comm);
        for (std::size_t j = 0; j < gm.size(); ++j)
          place(gm[j], agg.data() + j * sblock);
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scatterv

bool Runtime::hier_scatterv(RankMpi& rm, const void* sbuf, const int* scounts,
                            const int* displs, std::size_t sesize, void* rbuf,
                            std::size_t rbytes, int root, CommId comm) {
  HierCall h(*this, rm, comm);
  const int rg = h.group_of(root);
  const int eff_lead = h.eff_leader(h.g, root);
  HierPhase mp(h, h.g, h.members, eff_lead);
  mp.deposit(kCollHierScatter, 0, "scatterv", kNothing);
  if (h.me != eff_lead) {
    // Members park until the leader deposits the per-member slices.
    mp.await_release([&](GroupBlock& b) {
      const auto& s = b.slots[static_cast<std::size_t>(h.pos)];
      const std::size_t len = std::min(s.size(), rbytes);
      std::memcpy(rbuf, s.data(), len);
      h.ps.coll_vec_bytes += len;
    });
    return true;
  }

  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto slice = [&](int i) {
    return std::pair{sp + static_cast<std::size_t>(displs[i]) * sesize,
                     static_cast<std::size_t>(scounts[i]) * sesize};
  };
  if (h.g == rg) {
    // Root: ship [lengths][data] per remote group, then slice the local
    // group straight from sbuf into the shared slots.
    for (int gg = 0; gg < h.L; ++gg) {
      if (gg == rg) continue;
      std::vector<std::uint64_t> lens;
      std::vector<std::byte> agg;
      for (const int i : h.members_of(gg)) {
        const auto [p, len] = slice(i);
        lens.push_back(len);
        agg.insert(agg.end(), p, p + len);
      }
      ++h.ps.coll_leader_msgs;
      coll_send_staged(rm, h.leader_world(gg), h.tag(kCollHierScatter, 0),
                       lens.data(), lens.size() * sizeof(std::uint64_t),
                       comm);
      coll_send_vec(rm, h.leader_world(gg), h.tag(kCollHierScatter, 1),
                    agg.data(), agg.size(), comm);
    }
    mp.release([&](GroupBlock& b) {
      h.ps.coll_vec_bytes +=
          deal_slices(b, h.pos, rbuf, rbytes, [&](int j) {
            return slice(h.members[static_cast<std::size_t>(j)]);
          });
    });
  } else {
    // Group leader: receive [lengths][data] from the root, slice into the
    // shared slots (own slice goes straight to rbuf).
    std::vector<std::uint64_t> lens(static_cast<std::size_t>(h.gsize));
    coll_recv(rm, h.ci.world_of(root), h.tag(kCollHierScatter, 0),
              lens.data(), lens.size() * sizeof(std::uint64_t), comm);
    std::size_t total = 0;
    for (const std::uint64_t l : lens) total += l;
    std::vector<std::byte> agg(total);
    coll_recv_vec(rm, h.ci.world_of(root), h.tag(kCollHierScatter, 1),
                  agg.data(), total, comm);
    std::size_t off = 0;
    mp.release([&](GroupBlock& b) {
      h.ps.coll_vec_bytes +=
          deal_slices(b, h.pos, rbuf, rbytes, [&](int j) {
            const auto len =
                static_cast<std::size_t>(lens[static_cast<std::size_t>(j)]);
            off += len;
            return std::pair{agg.data() + off - len, len};
          });
    });
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scatter (uniform block)

bool Runtime::hier_scatter(RankMpi& rm, const void* sbuf, std::size_t sblock,
                           void* rbuf, int root, CommId comm) {
  // Size-based algorithm selection, as for gather.
  if (sblock > kVecCutoff) return false;
  HierCall h(*this, rm, comm);
  const int rg = h.group_of(root);
  const int eff_lead = h.eff_leader(h.g, root);
  HierPhase mp(h, h.g, h.members, eff_lead);
  mp.deposit(kCollHierScatter, sblock, "scatter", kNothing);
  if (h.me != eff_lead) {
    mp.await_release([&](GroupBlock& b) {
      std::memcpy(rbuf, b.slots[static_cast<std::size_t>(h.pos)].data(),
                  sblock);
      h.ps.coll_vec_bytes += sblock;
    });
    return true;
  }

  const Binomial tree(h.g, rg, h.L);
  auto agent = [&](int gg) { return h.ci.world_of(h.eff_leader(gg, root)); };
  auto span_bytes = [&](int lo, int hi) {  // virtual group ids [lo, hi)
    std::size_t b = 0;
    for (int v = lo; v < hi; ++v) b += h.members_of(tree.group(v)).size();
    return b * sblock;
  };
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  const auto* sp = static_cast<const std::byte*>(sbuf);
  auto append_blocks = [&](std::vector<std::byte>& out,
                           const std::vector<int>& idx) {
    for (const int i : idx) {
      const auto* p = sp + static_cast<std::size_t>(i) * sblock;
      out.insert(out.end(), p, p + sblock);
    }
  };

  // My group's blocks, in member-pos order, start `mine`.
  std::vector<std::byte> mine;
  if (total <= kVecCutoff || h.L == 1) {
    // Eager: binomial scatter down the virtual tree. A node receives its
    // whole subtree span in one message and relays the children's spans;
    // sizes all come from the shared topology.
    if (tree.is_root()) {
      mine.reserve(total);
      for (int v = 0; v < h.L; ++v)
        append_blocks(mine, h.members_of(tree.group(v)));
    } else {
      mine.resize(span_bytes(tree.v, tree.hi()));
      coll_recv_vec(rm, agent(tree.parent()),
                    h.tag(kCollHierScatter, (2 + tree.up_round) & 0x3f),
                    mine.data(), mine.size(), comm);
    }
    tree.children_down([&](int c, int r, int chi) {
      coll_send_vec(rm, agent(tree.group(c)),
                    h.tag(kCollHierScatter, (2 + r) & 0x3f),
                    mine.data() + span_bytes(tree.v, c), span_bytes(c, chi),
                    comm);
    });
  } else if (h.g == rg) {
    // Chunked: direct per-leader shipments; an ordered topology lets the
    // root send straight out of sbuf (each group is one contiguous run).
    const int tag = h.tag(kCollHierScatter, 1);
    for (int gg = 0; gg < h.L; ++gg) {
      if (gg == rg) continue;
      const auto& gm = h.members_of(gg);
      const std::size_t gb = gm.size() * sblock;
      const int dst = h.ci.world_of(gm.front());
      if (h.topo->ordered) {
        coll_send_vec(rm, dst, tag,
                      sp + static_cast<std::size_t>(gm.front()) * sblock, gb,
                      comm);
      } else {
        std::vector<std::byte> agg;
        agg.reserve(gb);
        append_blocks(agg, gm);
        coll_send_vec(rm, dst, tag, agg.data(), gb, comm);
      }
    }
    mine.reserve(static_cast<std::size_t>(h.gsize) * sblock);
    append_blocks(mine, h.members);
  } else {
    mine.resize(static_cast<std::size_t>(h.gsize) * sblock);
    coll_recv_vec(rm, h.ci.world_of(root), h.tag(kCollHierScatter, 1),
                  mine.data(), mine.size(), comm);
  }

  mp.release([&](GroupBlock& b) {
    h.ps.coll_vec_bytes += deal_slices(b, h.pos, rbuf, sblock, [&](int j) {
      return std::pair{mine.data() + static_cast<std::size_t>(j) * sblock,
                       sblock};
    });
  });
  return true;
}

// ---------------------------------------------------------------------------
// Allgather (uniform block)

bool Runtime::hier_allgather(RankMpi& rm, const void* sbuf,
                             std::size_t sblock, void* rbuf, CommId comm) {
  // Size-based algorithm selection, as for gather.
  if (sblock > kVecCutoff) return false;
  HierCall h(*this, rm, comm);
  const std::size_t total = static_cast<std::size_t>(h.n) * sblock;
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierAllgather, sblock, "allgather",
            [&](GroupBlock& b) { b.stage(h.pos, sbuf, sblock); });
  h.ps.coll_vec_bytes += sblock;
  const auto copy_out = [&](GroupBlock& b) {
    std::memcpy(rbuf, b.acc.data(), total);
  };
  if (h.me != h.lead) {
    mp.await_release(copy_out);
    return true;
  }
  mp.await_group();

  // have[gg] = group gg's PE-aggregate (member-pos order), filled by the
  // inter-PE exchange.
  const int g = h.g, L = h.L;
  auto gbytes = [&](int gg) { return h.members_of(gg).size() * sblock; };
  std::vector<std::vector<std::byte>> have(static_cast<std::size_t>(L));
  have[static_cast<std::size_t>(g)].reserve(gbytes(g));
  mp.blk().append_slots(have[static_cast<std::size_t>(g)]);
  if (L > 1 && total <= kVecCutoff) {
    // Eager: Bruck dissemination over groups — ceil(log2 L) steps, each
    // moving the concatenation of everything held so far.
    int round = 0;
    for (int d = 1; d < L; d <<= 1, ++round) {
      const int cnt = std::min(d, L - d);
      const int from = (g + d) % L;
      const int tag = h.tag(kCollHierAllgather, round & 0x3f);
      std::vector<std::byte> out;
      for (int v = 0; v < cnt; ++v) {
        const auto& hv = have[static_cast<std::size_t>((g + v) % L)];
        out.insert(out.end(), hv.begin(), hv.end());
      }
      coll_send_vec(rm, h.leader_world((g - d + L) % L), tag, out.data(),
                    out.size(), comm);
      std::size_t rb = 0;
      for (int v = 0; v < cnt; ++v) rb += gbytes((from + v) % L);
      std::vector<std::byte> in(rb);
      coll_recv_vec(rm, h.leader_world(from), tag, in.data(), rb, comm);
      std::size_t off = 0;
      for (int v = 0; v < cnt; ++v) {
        const int gg = (from + v) % L;
        have[static_cast<std::size_t>(gg)].assign(
            in.data() + off, in.data() + off + gbytes(gg));
        off += gbytes(gg);
      }
    }
  } else if (L > 1) {
    // Chunked: ring — L-1 steps, each forwarding one group aggregate, so
    // at most one aggregate is in flight per leader at a time.
    for (int s = 1; s < L; ++s) {
      const int fwd = (g - s + 1 + L) % L;  // aggregate to pass along
      const int gain = (g - s + L) % L;     // aggregate arriving this step
      const int tag = h.tag(kCollHierAllgather, s & 0x3f);
      coll_send_vec(rm, h.leader_world((g + 1) % L), tag,
                    have[static_cast<std::size_t>(fwd)].data(), gbytes(fwd),
                    comm);
      have[static_cast<std::size_t>(gain)].resize(gbytes(gain));
      coll_recv_vec(rm, h.leader_world((g - 1 + L) % L), tag,
                    have[static_cast<std::size_t>(gain)].data(), gbytes(gain),
                    comm);
    }
  }

  // Publish the full result in comm-index order; members copy it out.
  mp.release([&](GroupBlock& b) {
    b.acc.resize(total);
    for (int gg = 0; gg < L; ++gg) {
      const auto& gm = h.members_of(gg);
      for (std::size_t j = 0; j < gm.size(); ++j) {
        std::memcpy(b.acc.data() + static_cast<std::size_t>(gm[j]) * sblock,
                    have[static_cast<std::size_t>(gg)].data() + j * sblock,
                    sblock);
      }
    }
    copy_out(b);
  });
  return true;
}

// ---------------------------------------------------------------------------
// Alltoall (uniform block)

bool Runtime::hier_alltoall(RankMpi& rm, const void* sbuf, std::size_t sblock,
                            void* rbuf, std::size_t rblock, CommId comm) {
  // Size-based algorithm selection, as for gather.
  if (sblock > kVecCutoff) return false;
  HierCall h(*this, rm, comm);
  // The block's acc holds gsize rows of n blocks: row t is member t's full
  // inbox in comm-index order.
  const std::size_t row = static_cast<std::size_t>(h.n) * sblock;
  HierPhase mp(h, h.g, h.members, h.lead);
  mp.arrive(kCollHierAlltoall, sblock, "alltoall",
            [&](GroupBlock& b) { b.stage(h.pos, sbuf, row); });
  h.ps.coll_vec_bytes += row;
  const auto copy_out = [&](GroupBlock& b) {
    const std::byte* r = b.acc.data() + static_cast<std::size_t>(h.pos) * row;
    auto* rp = static_cast<std::byte*>(rbuf);
    for (int i = 0; i < h.n; ++i) {
      std::memcpy(rp + static_cast<std::size_t>(i) * rblock,
                  r + static_cast<std::size_t>(i) * sblock,
                  std::min(sblock, rblock));
    }
  };
  if (h.me != h.lead) {
    mp.await_release(copy_out);
    return true;
  }
  mp.await_group();

  GroupBlock& blk = mp.blk();
  const std::size_t gsize = static_cast<std::size_t>(h.gsize);
  blk.acc.resize(gsize * row);
  // Aggregate for destination group gg: [dst member t][src member s] of
  // per-pair blocks — one message per PE pair instead of one per rank pair.
  auto assemble = [&](int gg) {
    const auto& gm = h.members_of(gg);
    std::vector<std::byte> a;
    a.reserve(gm.size() * gsize * sblock);
    for (const int dst : gm) {
      for (const auto& s : blk.slots) {
        const auto* p = s.data() + static_cast<std::size_t>(dst) * sblock;
        a.insert(a.end(), p, p + sblock);
      }
    }
    return a;
  };
  // Deposit a received aggregate from source group sg (laid out
  // [my member t][sg member s]) into the result rows.
  auto deposit = [&](int sg, const std::vector<std::byte>& a) {
    const std::byte* p = a.data();
    for (std::size_t t = 0; t < gsize; ++t) {
      for (const int src : h.members_of(sg)) {
        std::memcpy(blk.acc.data() + t * row +
                        static_cast<std::size_t>(src) * sblock,
                    p, sblock);
        p += sblock;
      }
    }
  };

  // Shifted pairwise exchange over the L leaders (the same schedule as the
  // naive alltoall, but over PE-pair aggregates).
  deposit(h.g, assemble(h.g));
  for (int s = 1; s < h.L; ++s) {
    const int dg = (h.g + s) % h.L;
    const int sg = (h.g - s + h.L) % h.L;
    const int tag = h.tag(kCollHierAlltoall, s & 0x3f);
    const std::vector<std::byte> out = assemble(dg);
    coll_send_vec(rm, h.leader_world(dg), tag, out.data(), out.size(), comm);
    std::vector<std::byte> in(h.members_of(sg).size() * gsize * sblock);
    coll_recv_vec(rm, h.leader_world(sg), tag, in.data(), in.size(), comm);
    deposit(sg, in);
  }
  mp.release(copy_out);
  return true;
}

}  // namespace apv::mpi
