#include "mpi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "check/wait_graph.hpp"
#include "lb/strategy.hpp"
#include "mpi/api_shim.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace apv::mpi {

using util::ApvError;
using util::ErrorCode;
using util::require;

Runtime::Runtime(const img::ProgramImage& image, RuntimeConfig config)
    : image_(&image), config_(std::move(config)) {
  require(config_.vps >= 1, ErrorCode::InvalidArgument, "need >= 1 VP");
  require(config_.nodes >= 1 && config_.pes_per_node >= 1,
          ErrorCode::InvalidArgument, "need >= 1 node and PE");
  // Validate the entry point up front for a clear error.
  image.func_id(config_.entry);

  const util::WallTimer init_timer;

  iso::IsoArena::Config ac;
  ac.slot_size = config_.slot_bytes;
  ac.max_slots = static_cast<std::size_t>(config_.vps) + 4;
  arena_ = std::make_unique<iso::IsoArena>(ac);

  comm::Cluster::Config cc;
  cc.nodes = config_.nodes;
  cc.pes_per_node = config_.pes_per_node;
  cc.options = config_.options;
  cc.backend = config_.backend;
  cluster_ = std::make_unique<comm::Cluster>(cc);
  // The MPI layer assumes every PE's scheduler/resident state is reachable
  // in-process (ULT wakes, migration packing, steal handlers). The shm
  // transport with one process degenerates to exactly that, so only a real
  // multi-process job is rejected; spreading virtual ranks over OS
  // processes is the Cluster-level tier's follow-on.
  require(cluster_->transport().num_procs() == 1, ErrorCode::InvalidArgument,
          "mpi::Runtime needs a single-process transport "
          "(transport.procs/APV_SHM_PROCS > 1 is Cluster-level only)");

  comms_ = std::make_unique<CommTable>(config_.vps);
  ckpt_store_ = std::make_unique<ft::CheckpointStore>();
  const ft::FaultInjector::Config fic =
      ft::FaultInjector::config_from_options(config_.options);
  if (fic.policy != ft::FaultInjector::Policy::None) {
    injector_ = std::make_unique<ft::FaultInjector>(fic, cluster_->num_pes());
  }
  pack_mode_ = config_.options.get_string("iso.pack", "touched") == "full"
                   ? iso::PackMode::FullSlot
                   : iso::PackMode::Touched;
  // Incremental checkpointing: dirty-page tracker + delta policy. The
  // tracker also registers the SlotHeap write-notify hook so allocator
  // metadata updates pre-dirty their pages instead of faulting.
  if (config_.options.get_string("ft.delta", "on") == "on") {
    dirty_tracker_ = std::make_unique<iso::DirtyTracker>(*arena_);
  }
  ckpt_full_every_ = static_cast<std::uint32_t>(std::max<std::int64_t>(
      1, config_.options.get_int("ft.full_every", 8)));
  // Chain-length bound for in-store consolidation. The periodic full image
  // already caps chains at full_every - 1, so by default consolidation only
  // engages when ft.max_chain is set tighter than that (or full_every is
  // raised without bound).
  ckpt_store_->set_chain_limit(static_cast<std::size_t>(
      std::max<std::int64_t>(0, config_.options.get_int("ft.max_chain", 0))));
  inline_enabled_ = config_.options.get_string("comm.inline", "on") == "on";
  coll_hier_ = config_.options.get_string("coll.algo", "hier") == "hier";
  // Runtime correctness checker (src/check). An explicit check.mode option
  // wins; otherwise the APV_CHECK_MODE environment variable applies, so CI
  // can arm the checker across a whole test run without editing each job.
  {
    std::string mode_s = config_.options.get_string("check.mode", "");
    if (mode_s.empty()) {
      const char* env_mode = std::getenv("APV_CHECK_MODE");
      mode_s = env_mode != nullptr ? env_mode : "off";
    }
    check::Mode cm = check::Mode::Off;
    if (mode_s == "warn") {
      cm = check::Mode::Warn;
    } else if (mode_s == "abort") {
      cm = check::Mode::Abort;
    } else {
      require(mode_s == "off" || mode_s.empty(), ErrorCode::InvalidArgument,
              "check.mode must be off, warn, or abort");
    }
    if (cm != check::Mode::Off) {
      const double deadlock_s =
          config_.options.get_double("check.deadlock_s", 0.0);
      // One gate shard per PE: co-resident members of a collective hit the
      // same shard uncontended on their shared loop thread.
      checker_ = std::make_unique<check::Checker>(cm, deadlock_s,
                                                  cluster_->num_pes());
      check_on_ = true;
      fail_fast_ = cm == check::Mode::Abort;
    }
  }
  // Idle-PE rank stealing (fast complement to epoch LB). Same arming shape
  // as the checker: an explicit sched.steal option wins, else the
  // APV_SCHED_STEAL environment variable lets CI run whole suites with
  // stealing on.
  {
    std::string steal_s = config_.options.get_string("sched.steal", "");
    if (steal_s.empty()) {
      const char* env = std::getenv("APV_SCHED_STEAL");
      if (env != nullptr) steal_s = env;
    }
    steal_on_ = (steal_s == "on" || steal_s == "1" || steal_s == "true") &&
                cluster_->num_pes() > 1 &&
                // sched.policy=fifo is the seed-exact escape hatch: it
                // already disarms lanes and preemption, and it dominates a
                // suite-wide APV_SCHED_STEAL=on the same way — nothing may
                // reorder or relocate ranks behind the seed schedule.
                config_.options.get_string("sched.policy", "prio") != "fifo";
    steal_idle_ns_ = static_cast<std::uint64_t>(std::max<std::int64_t>(
                         1, config_.options.get_int("sched.steal_idle_us",
                                                    500))) *
                     1000;
    steal_timeout_ns_ = static_cast<std::uint64_t>(std::max<std::int64_t>(
                            1, config_.options.get_int(
                                   "sched.steal_timeout_us", 5000))) *
                        1000;
    steal_batch_ = static_cast<int>(std::max<std::int64_t>(
        1, config_.options.get_int("sched.steal_batch", 1)));
    hipri_bytes_ = cluster_->hipri_bytes();
  }
  dump_counters_ = config_.options.get_bool("util.dump_counters", false);
  init_hier_state();
  pack_api_table(api_);
  pe_state_.resize(static_cast<std::size_t>(cluster_->num_pes()));
  service_ewma_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(cluster_->num_pes()));
  for (int p = 0; p < cluster_->num_pes(); ++p)
    service_ewma_ns_[static_cast<std::size_t>(p)].store(
        0, std::memory_order_relaxed);

  // Per-node dynamic-linker and privatization state (each emulated OS
  // process loads and privatizes the program independently).
  for (int n = 0; n < config_.nodes; ++n) {
    loaders_.push_back(std::make_unique<img::Loader>(config_.options));
    core::ProcessEnv env;
    env.process_id = n;
    env.pes_in_process = config_.pes_per_node;
    env.image = image_;
    env.loader = loaders_.back().get();
    env.arena = arena_.get();
    env.options = config_.options;
    privs_.push_back(
        std::make_unique<core::Privatizer>(config_.method, std::move(env)));
  }

  cluster_->resize_location_table(config_.vps);

  // Bring up every virtual rank: slot, heap, privatized view, ULT. If any
  // rank is refused partway (e.g. PiPglobals past the namespace cap), the
  // ones already built must be torn down here — a throwing constructor
  // never reaches ~Runtime, and RankMpi does not own its RankContext.
  ranks_.reserve(static_cast<std::size_t>(config_.vps));
  try {
  for (int r = 0; r < config_.vps; ++r) {
    const comm::PeId pe = initial_pe(r);
    const comm::NodeId node = cluster_->node_of(pe);
    auto rm = std::make_unique<RankMpi>();
    rm->world_rank = r;
    rm->resident_pe = pe;
    core::Privatizer::RankParams params;
    params.world_rank = r;
    params.body = &Runtime::rank_body;
    params.arg = rm.get();
    params.stack_size = config_.stack_bytes;
    params.backend = config_.backend;
    rm->rc = privs_[static_cast<std::size_t>(node)]->create_rank(params);
    rm->rc->user_data = rm.get();
    rm->env = std::make_unique<Env>(this, rm.get(), &api_);
    pe_state_[static_cast<std::size_t>(pe)].resident[r] = rm.get();
    cluster_->set_location(r, pe);
    ranks_.push_back(std::move(rm));
  }
  } catch (...) {
    for (auto& rm : ranks_) {
      if (rm->rc != nullptr) {
        const comm::NodeId node = cluster_->node_of(rm->resident_pe);
        privs_[static_cast<std::size_t>(node)]->destroy_rank(rm->rc);
        rm->rc = nullptr;
      }
    }
    throw;
  }

  // Seed every rank's placement view with the initial map. The views only
  // change inside do_load_balance, where all ranks deterministically compute
  // the same assignment — so hierarchical-collective groupings always agree
  // across members regardless of later ad-hoc migrations.
  {
    std::vector<comm::PeId> initial(static_cast<std::size_t>(config_.vps));
    for (int r = 0; r < config_.vps; ++r)
      initial[static_cast<std::size_t>(r)] = initial_pe(r);
    for (auto& rm : ranks_) rm->placement_view = initial;
  }

  // Stealing rides the packed-image migration machinery; methods whose
  // segments the dynamic linker allocated (PiPglobals, FSglobals) cannot
  // move ranks at all, so stealing silently stands down for them.
  if (steal_on_ && !privs_[0]->supports_migration()) {
    steal_on_ = false;
    APV_DEBUG("mpi", "rank stealing disabled: %s does not support migration",
              core::method_name(config_.method));
  }

  // Per-PE hooks: privatization switch work, load timing, and dispatch.
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    comm::Pe& pe = cluster_->pe(p);
    const comm::NodeId node = cluster_->node_of(p);
    privs_[static_cast<std::size_t>(node)]->install_switch_hook(
        pe.scheduler());
    pe.scheduler().add_switch_hook([this, p](ult::Ult* next) {
      auto& ps = pe_state_[static_cast<std::size_t>(p)];
      const std::uint64_t now = util::wall_time_ns();
      if (ps.running != nullptr) {
        ps.running->add_busy_time(
            static_cast<double>(now - ps.slice_start_ns) * 1e-9);
      }
      auto* rc = next ? static_cast<core::RankContext*>(next->user_data())
                      : nullptr;
      ps.running = rc ? static_cast<RankMpi*>(rc->user_data) : nullptr;
      ps.slice_start_ns = now;
    });
    pe.set_dispatcher(
        [this, p](comm::Message&& msg) { dispatch(p, std::move(msg)); });
    pe.add_idle_hook([this, p] { close_run_slice(p); });
    if (steal_on_) pe.add_idle_hook([this, p] { maybe_steal(p); });
    // Fail-fast teardown (checker abort mode, job timeout) abandons ranks
    // parked mid-wait; their fiber stacks hold live heap objects (comm
    // topologies, reduce scratch, payload handles) that plain teardown
    // would leak. On orderly stop each PE resumes its parked residents one
    // last time with the unwind flag armed, so the suspend point throws
    // and the stack unwinds through its destructors (see UltUnwind).
    // The drain walks this PE's resident map, not ranks_: residency and
    // ULT state of residents are written only on this PE's thread, so the
    // walk is race-free even while other PEs are still winding down
    // (finished/resident_pe on ranks_ would race their owners' last acts).
    pe.set_stop_drain([this, p] {
      auto& ps = pe_state_[static_cast<std::size_t>(p)];
      ult::Scheduler& sched = cluster_->pe(p).scheduler();
      bool any = false;
      for (const auto& [rank, rm] : ps.resident) {
        ult::Ult* t = rm->rc != nullptr ? rm->rc->ult : nullptr;
        if (t == nullptr || t->state() == ult::UltState::Done) continue;
        t->request_unwind();
        // Ready/Created ULTs are already queued (start() readied every
        // rank); re-queueing would double-dispatch them.
        if (t->state() == ult::UltState::Blocked) sched.ready(t);
        any = true;
      }
      if (any) sched.run_until_quiescent();
    });
  }

  init_time_s_ = init_timer.elapsed_s();
  APV_INFO("mpi", "runtime up: %d vps on %d node(s) x %d PE(s), method=%s, "
                  "init %.3f ms",
           config_.vps, config_.nodes, config_.pes_per_node,
           core::method_name(config_.method), init_time_s_ * 1e3);
}

Runtime::~Runtime() {
  if (started_) cluster_->stop_and_join();
  // Drop every write barrier before teardown touches the slots: rank
  // destruction writes into them and release_slot flips them to PROT_NONE,
  // neither of which belongs in the dirty bitmap.
  if (dirty_tracker_ != nullptr) {
    for (iso::SlotId s = 0; s < arena_->max_slots(); ++s) {
      dirty_tracker_->disarm(s);
    }
  }
  // Destroy ranks before privatizers (rank teardown uses method state).
  for (auto& rm : ranks_) {
    if (rm->rc != nullptr) {
      const comm::NodeId node = cluster_->node_of(
          rm->resident_pe == comm::kInvalidPe ? 0 : rm->resident_pe);
      privs_[static_cast<std::size_t>(node)]->destroy_rank(rm->rc);
      rm->rc = nullptr;
    }
  }
}

comm::PeId Runtime::initial_pe(int world_rank) const {
  const int npes = cluster_->num_pes();
  if (config_.map == "rr") return world_rank % npes;
  // Block map: contiguous ranks share a PE (better halo locality).
  return static_cast<int>((static_cast<long>(world_rank) * npes) /
                          config_.vps);
}

core::Privatizer& Runtime::privatizer(comm::NodeId node) {
  require(node >= 0 && node < config_.nodes, ErrorCode::InvalidArgument,
          "bad node id");
  return *privs_[static_cast<std::size_t>(node)];
}

RankMpi& Runtime::rank_state(int world_rank) {
  require(world_rank >= 0 && world_rank < config_.vps,
          ErrorCode::InvalidArgument, "bad world rank");
  return *ranks_[static_cast<std::size_t>(world_rank)];
}

void* Runtime::rank_return(int world_rank) {
  return rank_state(world_rank).entry_ret;
}

std::uint64_t Runtime::total_context_switches() const {
  std::uint64_t total = 0;
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    total += const_cast<Runtime*>(this)->cluster_->pe(p).scheduler()
                 .switch_count();
  }
  return total;
}

void Runtime::rank_body(void* arg) {
  auto* rm = static_cast<RankMpi*>(arg);
  Runtime& rt = rm->env->runtime();
  try {
    // "Execution jumps into the PIE binary": resolve the entry through this
    // rank's own code copy and call it with the shim-backed Env.
    const img::FuncId entry = rt.image().func_id(rt.config().entry);
    const img::NativeFn fn = rm->rc->instance->native_at(entry);
    rm->entry_ret = fn(rm->env.get());
  } catch (const std::exception& e) {
    rm->failed = true;
    rm->failure = e.what();
    APV_ERROR("mpi", "rank %d failed: %s", rm->world_rank, e.what());
  }
  rt.rank_finished(*rm);
}

void Runtime::rank_finished(RankMpi& rm) {
  rm.finished = true;
  // Fail-fast (checker abort mode): a failed rank wakes wait_finish
  // immediately instead of letting its peers hang until the job timeout —
  // the diagnosis is already recorded and the failure already stamped.
  if (rm.failed && fail_fast_) any_failed_.store(true);
  if (live_ranks_.fetch_sub(1) == 1 || (rm.failed && fail_fast_)) {
    std::lock_guard<std::mutex> lock(finish_mutex_);
    finish_cv_.notify_all();
  }
}

void Runtime::start() {
  require(!started_, ErrorCode::BadState, "runtime already started");
  started_ = true;
  live_ranks_.store(config_.vps);
  for (auto& rm : ranks_) {
    cluster_->pe(rm->resident_pe).scheduler().ready(rm->rc->ult);
  }
  cluster_->start();
}

void Runtime::wait_finish() {
  require(started_, ErrorCode::BadState, "runtime not started");
  {
    const auto timeout_s = static_cast<long>(std::max<std::int64_t>(
        1, config_.options.get_int("mpi.timeout_s", 300)));
    const double deadlock_s =
        checker_ != nullptr ? checker_->deadlock_s() : 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
    std::unique_lock<std::mutex> lock(finish_mutex_);
    // Fail-fast (abort mode): the first rank failure ends the wait — its
    // CheckFailed diagnosis is the job's outcome; draining the remaining
    // ranks (now missing a collective peer) would just hang to the timeout.
    const auto finished = [this] {
      return live_ranks_.load() == 0 || (fail_fast_ && any_failed_.load());
    };
    bool done;
    if (deadlock_s <= 0.0) {
      done = finish_cv_.wait_until(lock, deadline, finished);
    } else {
      // Periodic deadlock scan (check.deadlock_s). Progress delivery is
      // synchronous in this runtime (the netmodel paces but never defers a
      // message to a timer), so "no context switch happened between two
      // consecutive scans and every unfinished rank is parked" implies no
      // progress is possible — then the wait-state graph names the culprit
      // long before the coarse job timeout would.
      std::uint64_t last_switches = ~std::uint64_t{0};
      bool prior_scan_quiet = false;
      bool reported = false;
      const auto scan_period =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(deadlock_s));
      while (true) {
        const auto scan_at = std::chrono::steady_clock::now() + scan_period;
        done = finish_cv_.wait_until(lock, std::min(deadline, scan_at),
                                     finished);
        if (done || std::chrono::steady_clock::now() >= deadline) break;
        checker_->note_deadlock_scan();
        const std::uint64_t switches = total_context_switches();
        bool all_blocked = true;
        for (const auto& rm : ranks_) {
          // Acquire the ULT state FIRST (see ult.hpp): Blocked/Done is the
          // publication point for everything the rank wrote before parking
          // or exiting — reading waiting (and below, the wait-state
          // provenance fields) only after that acquire is what makes this
          // cross-thread scan race-free without per-field atomics. A rank
          // caught mid-transition (Running/Ready) just makes this scan
          // non-quiet; the next one re-checks.
          const ult::UltState st = rm->rc->ult->state();
          if (st == ult::UltState::Done) continue;  // finished
          if (st != ult::UltState::Blocked || !rm->waiting) {
            all_blocked = false;
            break;
          }
        }
        const bool quiet = all_blocked && switches == last_switches;
        if (quiet && prior_scan_quiet && !reported) {
          std::vector<check::RankWait> waits;
          for (const auto& rm : ranks_) {
            // all_blocked held twice in a row: every unfinished rank is
            // parked, and the acquire below publishes its provenance fields.
            if (rm->rc->ult->state() != ult::UltState::Blocked) continue;
            check::RankWait w;
            w.rank = rm->world_rank;
            w.blocked = true;
            w.in_collective = rm->coll_depth > 0;
            w.coll_name = rm->last_coll_name;
            w.coll_comm = rm->last_coll_comm;
            w.coll_seq = rm->last_coll_seq;
            w.recv_src = rm->last_post_src;
            w.recv_tag = rm->last_post_tag;
            w.recv_comm = rm->last_post_comm;
            waits.push_back(w);
          }
          const check::DeadlockReport rep = check::analyze_wait_graph(waits);
          if (rep.deadlock) {
            checker_->record("deadlock", -1, rep.message);
            reported = true;
            dump_stuck_state();
            if (checker_->mode() == check::Mode::Abort)
              throw ApvError(ErrorCode::CheckFailed, rep.message);
            // Warn mode: diagnosis recorded; keep waiting so the job can
            // still drain (or hit the ordinary timeout) as before.
          }
        }
        prior_scan_quiet = quiet;
        last_switches = switches;
      }
    }
    if (!done) {
      dump_stuck_state();
      throw ApvError(ErrorCode::Internal,
                     "job timed out: some rank never finished (deadlock?)");
    }
  }
  cluster_->stop_and_join();
  started_ = false;
  if (dump_counters_) dump_all_counters();
  for (const auto& rm : ranks_) {
    if (rm->failed)
      throw ApvError(ErrorCode::Internal, "rank " +
                                              std::to_string(rm->world_rank) +
                                              " failed: " + rm->failure);
  }
}

void Runtime::run() {
  start();
  wait_finish();
}

void Runtime::dump_stuck_state() {
  std::fprintf(stderr, "[apv:mpi] job timeout post-mortem:\n");
  for (const auto& rm : ranks_) {
    // Acquire the ULT state first: for parked (Blocked) and exited (Done)
    // ranks — i.e. every rank of a genuinely wedged job — this publishes
    // all the rank-written fields printed below (see ult.hpp). A rank
    // caught actually Running at the coarse timeout gets a best-effort
    // snapshot; the job is being torn down either way.
    const ult::UltState st = rm->rc->ult->state();
    std::fprintf(stderr,
                 "[apv:mpi]   rank %d on PE %d: state=%s waiting=%d "
                 "ckpt_pending=%d restore_pending=%d restored=%d "
                 "posted=%zu unexpected=%zu epoch=%u\n",
                 rm->world_rank, rm->resident_pe, ult::ult_state_name(st),
                 rm->waiting ? 1 : 0, rm->ckpt_pending ? 1 : 0,
                 rm->restore_pending ? 1 : 0, rm->restored ? 1 : 0,
                 rm->posted.size(), rm->unexpected.size(), rm->ft_epoch);
    if (st == ult::UltState::Done) continue;
    // Provenance for the wedged rank: where it last entered a collective
    // and what it last posted — usually enough to name the mismatch without
    // rerunning under the checker.
    if (rm->last_coll_name != nullptr) {
      std::fprintf(stderr,
                   "[apv:mpi]     last collective: %s(comm=%d seq=%u)%s\n",
                   rm->last_coll_name, rm->last_coll_comm, rm->last_coll_seq,
                   rm->coll_depth > 0 ? " [inside it now]" : "");
    }
    if (rm->last_post_src != -2) {
      std::fprintf(stderr,
                   "[apv:mpi]     last posted recv: src=%d tag=%d comm=%d\n",
                   rm->last_post_src, rm->last_post_tag, rm->last_post_comm);
    }
    if (!rm->pending_check.empty()) {
      std::fprintf(stderr, "[apv:mpi]     undelivered check diagnosis: %s\n",
                   rm->pending_check.c_str());
    }
  }
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    std::fprintf(stderr,
                 "[apv:mpi]   PE %d: failed=%d mailbox=%zu ready=%zu "
                 "binned=%zu\n",
                 p, cluster_->pe_failed(p) ? 1 : 0,
                 cluster_->pe(p).mailbox().size_approx(),
                 cluster_->pe(p).scheduler().ready_count(),
                 cluster_->pending_aggregated(p));
  }
  std::fprintf(stderr, "[apv:mpi]   dead_letters=%zu dropped=%llu\n",
               cluster_->dead_letter_count(),
               static_cast<unsigned long long>(cluster_->dropped_messages()));
}

// ---------------------------------------------------------------------------
// Message dispatch (always on the destination PE's thread)

void Runtime::dispatch(comm::PeId pe, comm::Message&& msg) {
  switch (msg.kind) {
    case comm::Message::Kind::UserData:
      deliver_user(pe, std::move(msg));
      return;
    case comm::Message::Kind::Control:
      handle_control(pe, std::move(msg));
      return;
    case comm::Message::Kind::Migration:
      handle_migration_arrival(pe, std::move(msg));
      return;
    case comm::Message::Kind::Aggregate:
      // Aggregates are unbundled by Pe::drain_mailbox; the dispatcher only
      // ever sees the constituent messages.
      throw ApvError(ErrorCode::Internal,
                     "aggregate envelope reached the dispatcher");
  }
}

void Runtime::deliver_user(comm::PeId pe, comm::Message&& msg) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  auto it = ps.resident.find(msg.dst_rank);
  if (it == ps.resident.end()) {
    // The rank is not here (it migrated). Forward toward its recorded
    // location; if the location still says "here", its state is in flight
    // to us — requeue behind the migration message.
    const comm::PeId loc = cluster_->location(msg.dst_rank);
    if (loc == pe) {
      ++ps.forward_retries;
      cluster_->pe(pe).post(std::move(msg));
      return;
    }
    msg.dst_pe = loc;
    // Re-stamp the envelope: from here on *this* PE is the sender (the
    // netmodel and aggregation bins key off src_pe, and the original
    // sender's hop was already paid).
    msg.src_pe = pe;
    forwards_.fetch_add(1, std::memory_order_relaxed);
    cluster_->send(std::move(msg));
    return;
  }
  RankMpi& rm = *it->second;
  // Final routed delivery: the pair's FIFO counters agree again once this
  // lands in the rank's queues, re-enabling the inline fast path.
  if (msg.src_rank >= 0) ++rm.routed_delivered_from(msg.src_rank);
  // The envelope priority bit (stamped in Cluster::send, preserved through
  // aggregation) picks the wake lane: latency-critical arrivals resume
  // their rank ahead of Normal/Bulk work already queued on this PE.
  const ult::Lane lane = msg.prio != 0 ? ult::Lane::High : ult::Lane::Normal;
  if (!try_match(rm, msg)) rm.unexpected.push_back(std::move(msg));
  ++rm.recvs;
  wake_if_waiting(rm, lane);
}

bool Runtime::match_fields(RankMpi& rm, const RecvPost& post, CommId comm,
                           int tag, int src_world) const {
  if (post.comm != comm) return false;
  if (post.tag != tag) {
    // Wildcard receives never match internal (collective/control) tags.
    if (post.tag != kAnyTag || tag >= kInternalTagBase) return false;
  }
  if (post.src != kAnySource) {
    const int src_local = comm_info(rm, comm).local_of(src_world);
    if (post.src != src_local) return false;
  }
  return true;
}

bool Runtime::match_predicate(RankMpi& rm, const RecvPost& post,
                              const comm::Message& msg) const {
  return match_fields(rm, post, msg.comm_id, msg.tag, msg.src_rank);
}

namespace {
[[noreturn]] void throw_truncation(std::size_t got, std::size_t cap) {
  throw util::ApvError(ErrorCode::InvalidArgument,
                       "message truncation: received " + std::to_string(got) +
                           " bytes into a " + std::to_string(cap) +
                           "-byte buffer");
}
}  // namespace

void Runtime::complete_recv(RankMpi& rm, const RecvPost& post,
                            comm::Message& msg) {
  std::size_t copy_bytes = msg.payload.size();
  // Match-time type/size verification. Only user traffic both sides stamped
  // (internal collective fragments stay esize=0). This path also runs on
  // the PE loop thread (dispatcher match), which must not throw into rank
  // context — a mismatch is parked on rm.pending_check and thrown from the
  // rank's next do_wait/do_test/resume instead.
  const bool stamped = check_on_ && msg.esize != 0 && post.esize != 0 &&
                       msg.tag < kInternalTagBase;
  if (stamped) {
    const check::P2pVerdict v =
        checker_->p2p_verify(rm.resident_pe, msg.esize, msg.payload.size(),
                             post.esize, post.max_bytes);
    if (v != check::P2pVerdict::Ok) [[unlikely]] {
      const int src_local = comm_info(rm, msg.comm_id).local_of(msg.src_rank);
      std::string diag;
      if (v == check::P2pVerdict::Truncation) {
        diag = "p2p truncation: rank " + std::to_string(rm.world_rank) +
               " recv(src=" + std::to_string(src_local) +
               ", tag=" + std::to_string(msg.tag) +
               ", comm=" + std::to_string(msg.comm_id) + ") has a " +
               std::to_string(post.max_bytes) +
               "-byte buffer but the sender sent " +
               std::to_string(msg.payload.size()) + " bytes";
      } else {
        diag = "p2p type mismatch: rank " + std::to_string(rm.world_rank) +
               " recv(src=" + std::to_string(src_local) +
               ", tag=" + std::to_string(msg.tag) +
               ", comm=" + std::to_string(msg.comm_id) +
               ") declared element size " + std::to_string(post.esize) +
               " but the sender declared " + std::to_string(msg.esize);
      }
      checker_->record(v == check::P2pVerdict::Truncation
                           ? "p2p-truncation"
                           : "p2p-type-mismatch",
                       rm.world_rank, diag);
      if (checker_->mode() == check::Mode::Abort && rm.pending_check.empty())
        rm.pending_check = std::move(diag);
    }
  }
  if (copy_bytes > post.max_bytes) [[unlikely]] {
    // Unverified traffic keeps the historic hard error; verified traffic
    // already diagnosed the overflow above and delivers the truncated
    // prefix (warn mode) or aborts at the rank's next blocking call.
    if (!stamped) throw_truncation(copy_bytes, post.max_bytes);
    copy_bytes = post.max_bytes;
  }
  if (copy_bytes > 0) std::memcpy(post.buf, msg.payload.data(), copy_bytes);
  RequestState& rs = rm.requests[static_cast<std::size_t>(post.req)];
  rs.complete = true;
  rs.status.source = comm_info(rm, msg.comm_id).local_of(msg.src_rank);
  rs.status.tag = msg.tag;
  rs.status.count_bytes = static_cast<int>(copy_bytes);
}

bool Runtime::try_match(RankMpi& rm, comm::Message& msg) {
  for (auto it = rm.posted.begin(); it != rm.posted.end(); ++it) {
    if (!match_predicate(rm, *it, msg)) continue;
    complete_recv(rm, *it, msg);
    rm.posted.erase(it);
    return true;
  }
  return false;
}

void Runtime::wake_if_waiting(RankMpi& rm, ult::Lane lane) {
  if (!rm.waiting) return;
  // A rank parked for a control operation must not be woken by ordinary
  // message arrivals: its ULT is about to be packed (migration,
  // checkpoint, steal departure) or its current stack frames are about to
  // be rewound (restore). The control handler performs the wake itself.
  if (rm.migrate_dest != comm::kInvalidPe) return;
  if (rm.ckpt_pending || rm.restore_pending) return;
  if (rm.rc->ult->state() != ult::UltState::Blocked) return;
  cluster_->pe(rm.resident_pe).scheduler().ready(rm.rc->ult, lane);
}

void Runtime::block_current(RankMpi& rm) {
  rm.waiting = true;
  ult::Scheduler* sched = ult::current_scheduler();
  require(sched != nullptr && sched->current() == rm.rc->ult,
          ErrorCode::BadState, "blocking call outside the rank's ULT");
  sched->suspend();
  rm.waiting = false;
  throw_pending_check(rm);
}

/// Delivers a mismatch the dispatcher thread found at match time: it could
/// not throw into this rank's context, so the diagnosis waited here for the
/// rank's next blocking call / resume.
void Runtime::throw_pending_check(RankMpi& rm) {
  if (rm.pending_check.empty()) [[likely]]
    return;
  std::string diag = std::move(rm.pending_check);
  rm.pending_check.clear();
  throw ApvError(ErrorCode::CheckFailed, diag);
}

void Runtime::close_run_slice(comm::PeId pe) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  if (ps.running == nullptr) return;
  const std::uint64_t now = util::wall_time_ns();
  const std::uint64_t slice_ns = now - ps.slice_start_ns;
  ps.running->add_busy_time(static_cast<double>(slice_ns) * 1e-9);
  // Recent per-ULT service time (EWMA, alpha = 1/8): single writer (this
  // PE's loop thread); idle thieves read it to rank victims by estimated
  // queue wait instead of raw depth.
  std::atomic<std::uint64_t>& ewma =
      service_ewma_ns_[static_cast<std::size_t>(pe)];
  const std::uint64_t old = ewma.load(std::memory_order_relaxed);
  ewma.store(old == 0 ? slice_ns : old - old / 8 + slice_ns / 8,
             std::memory_order_relaxed);
  ps.running = nullptr;
  ps.slice_start_ns = now;
}

// ---------------------------------------------------------------------------
// Point-to-point

namespace {
// Cooperative-preemption safe point: send entries, matching probes, and
// collective boundaries are the places a rank is suspension-legal (its own
// scheduler, no runtime locks held) and visits often enough that a hog
// cannot outrun its quantum by much.
inline void preempt_point() {
  if (ult::Scheduler* s = ult::current_scheduler()) s->preempt_point();
}
}  // namespace

void Runtime::do_send(RankMpi& rm, const void* buf, std::size_t bytes,
                      int dst_local, int tag, CommId comm,
                      std::uint32_t esize) {
  preempt_point();
  const CommInfo& ci = comm_info(rm, comm);
  const int dst_world = ci.world_of(dst_local);
  if (try_inline_send(rm, dst_world, tag, buf, bytes, comm, esize)) {
    ++rm.sends;
    return;
  }
  comm::Message m;
  m.kind = comm::Message::Kind::UserData;
  m.src_pe = rm.resident_pe;
  m.src_rank = rm.world_rank;
  m.dst_rank = dst_world;
  m.comm_id = comm;
  m.tag = tag;
  m.esize = esize;  // one unconditional store; verified only when stamped
                    // on both sides and the checker is armed
  // One pooled buffer, filled once from the user's bytes; from here the
  // payload moves (or is view-shared) unmodified to the matching receive.
  // Zero-byte control tokens skip the pool entirely (empty Payload).
  if (bytes > 0) {
    m.payload = comm::Payload::acquire(bytes);
    std::memcpy(m.payload.data(), buf, bytes);
  }
  m.dst_pe = cluster_->location(dst_world);
  ++rm.sends;
  ++rm.routed_sent_to(dst_world);
  cluster_->send(std::move(m));
}

bool Runtime::try_inline_send(RankMpi& rm, int dst_world, int tag,
                              const void* data, std::size_t bytes,
                              CommId comm, std::uint32_t esize) {
  if (!inline_enabled_) return false;
  const comm::PeId pe = rm.resident_pe;
  // Only from the destination PE's own loop thread: everything below (the
  // peer's posted/unexpected queues, the wake) is single-writer state owned
  // by that thread.
  comm::Pe* cur = comm::Pe::current();
  if (cur == nullptr || cur != &cluster_->pe(pe)) return false;
  if (cluster_->location(dst_world) != pe) return false;  // not co-resident
  if (cluster_->pe_failed(pe)) return false;  // keep FT divert semantics
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  RankMpi& dst = rank_state(dst_world);
  // resident_pe is only advanced on the owning loop thread (migration
  // arrival, FT adoption both run there), so on a match the state below is
  // ours; in-flight windows are excluded by the flag checks that follow.
  if (dst.resident_pe != pe) return false;  // state still in flight to us
  // A rank parked for a control operation must not have its queues touched:
  // they are about to be handed to another PE or rewound.
  if (dst.migrate_dest != comm::kInvalidPe || dst.ckpt_pending ||
      dst.restore_pending || dst.finished)
    return false;
  // Per-(sender, destination) FIFO: if any routed message from us to this
  // rank is still in a bin, a mailbox, or being forwarded, an inline copy
  // would overtake it. Flush our bins (so in-flight traffic drains) and
  // take the routed path, which queues behind it.
  if (rm.routed_sent_to(dst_world) !=
      dst.routed_delivered_from(rm.world_rank)) {
    ++ps.inline_fifo_fallbacks;
    cluster_->flush_aggregation(pe);
    return false;
  }
  for (auto pit = dst.posted.begin(); pit != dst.posted.end(); ++pit) {
    if (!match_fields(dst, *pit, comm, tag, rm.world_rank)) continue;
    // Hit: one user-buffer -> user-buffer copy, no payload, no mailbox.
    // Same match-time verification as the routed path — but this runs in
    // the sender's own ULT context, so abort mode can throw directly.
    std::size_t copy_bytes = bytes;
    const bool stamped = check_on_ && esize != 0 && pit->esize != 0 &&
                         tag < kInternalTagBase;
    if (stamped) {
      const check::P2pVerdict v =
          checker_->p2p_verify(pe, esize, bytes, pit->esize, pit->max_bytes);
      if (v != check::P2pVerdict::Ok) [[unlikely]] {
        std::string diag;
        if (v == check::P2pVerdict::Truncation) {
          diag = "p2p truncation: rank " + std::to_string(dst_world) +
                 " recv(tag=" + std::to_string(tag) +
                 ", comm=" + std::to_string(comm) + ") has a " +
                 std::to_string(pit->max_bytes) + "-byte buffer but rank " +
                 std::to_string(rm.world_rank) + " sent " +
                 std::to_string(bytes) + " bytes";
        } else {
          diag = "p2p type mismatch: rank " + std::to_string(dst_world) +
                 " recv(tag=" + std::to_string(tag) +
                 ", comm=" + std::to_string(comm) +
                 ") declared element size " + std::to_string(pit->esize) +
                 " but rank " + std::to_string(rm.world_rank) +
                 " declared " + std::to_string(esize);
        }
        checker_->record(v == check::P2pVerdict::Truncation
                             ? "p2p-truncation"
                             : "p2p-type-mismatch",
                         rm.world_rank, diag);
        if (checker_->mode() == check::Mode::Abort)
          throw ApvError(ErrorCode::CheckFailed, diag);
      }
    }
    if (copy_bytes > pit->max_bytes) [[unlikely]] {
      if (!stamped) throw_truncation(copy_bytes, pit->max_bytes);
      copy_bytes = pit->max_bytes;
    }
    if (copy_bytes > 0) std::memcpy(pit->buf, data, copy_bytes);
    RequestState& rs = dst.requests[static_cast<std::size_t>(pit->req)];
    rs.complete = true;
    rs.status.source = comm_info(rm, comm).local_of(rm.world_rank);
    rs.status.tag = tag;
    rs.status.count_bytes = static_cast<int>(copy_bytes);
    dst.posted.erase(pit);
    ++dst.recvs;
    ++ps.inline_hits;
    ps.inline_bytes += bytes;
    // The inline path bypasses Cluster::send's prio stamp; apply the same
    // small-payload cutoff to the wake lane directly.
    wake_if_waiting(dst, bytes <= hipri_bytes_ ? ult::Lane::High
                                               : ult::Lane::Normal);
    return true;
  }
  // Miss: no matching posted receive yet. Park a copy on the unexpected
  // queue directly — still no mailbox round-trip, but the bytes need a
  // buffer of their own now.
  comm::Message m;
  m.kind = comm::Message::Kind::UserData;
  m.src_pe = pe;
  m.dst_pe = pe;
  m.src_rank = rm.world_rank;
  m.dst_rank = dst_world;
  m.comm_id = comm;
  m.tag = tag;
  m.esize = esize;
  if (bytes > 0) {
    m.payload = comm::Payload::acquire(bytes);
    std::memcpy(m.payload.data(), data, bytes);
  }
  dst.unexpected.push_back(std::move(m));
  ++dst.recvs;
  ++ps.inline_misses;
  ps.inline_bytes += bytes;
  wake_if_waiting(dst, bytes <= hipri_bytes_ ? ult::Lane::High
                                             : ult::Lane::Normal);
  return true;
}

Request Runtime::do_irecv(RankMpi& rm, void* buf, std::size_t max_bytes,
                          int src, int tag, CommId comm,
                          std::uint32_t esize) {
  const Request req = rm.alloc_request(RequestState::Kind::Recv);
  RecvPost post{req, buf, max_bytes, src, tag, comm, esize};
  if (check_on_ && tag < kInternalTagBase) {
    // Wait-graph provenance: what this rank is (about to be) blocked on.
    rm.last_post_src = src == kAnySource
                           ? kAnySource
                           : comm_info(rm, comm).world_of(src);
    rm.last_post_tag = tag;
    rm.last_post_comm = comm;
  }
  for (auto it = rm.unexpected.begin(); it != rm.unexpected.end(); ++it) {
    if (!match_predicate(rm, post, *it)) continue;
    complete_recv(rm, post, *it);
    rm.unexpected.erase(it);
    return req;
  }
  rm.posted.push_back(post);
  return req;
}

Status Runtime::do_wait(RankMpi& rm, Request& req) {
  require(req != kRequestNull &&
              static_cast<std::size_t>(req) < rm.requests.size() &&
              rm.requests[static_cast<std::size_t>(req)].active,
          ErrorCode::InvalidArgument, "wait on invalid request");
  throw_pending_check(rm);
  RequestState& rs = rm.requests[static_cast<std::size_t>(req)];
  while (!rs.complete) block_current(rm);
  const Status status = rs.status;
  rs.active = false;
  req = kRequestNull;
  return status;
}

bool Runtime::do_test(RankMpi& rm, Request& req, Status* status) {
  preempt_point();
  throw_pending_check(rm);
  if (req == kRequestNull) return true;
  RequestState& rs = rm.requests[static_cast<std::size_t>(req)];
  require(rs.active, ErrorCode::InvalidArgument, "test on invalid request");
  if (!rs.complete) return false;
  if (status != nullptr) *status = rs.status;
  rs.active = false;
  req = kRequestNull;
  return true;
}

bool Runtime::do_iprobe(RankMpi& rm, int src, int tag, CommId comm,
                        Status* status) {
  preempt_point();
  throw_pending_check(rm);
  RecvPost probe{kRequestNull, nullptr, 0, src, tag, comm};
  for (const comm::Message& msg : rm.unexpected) {
    if (!match_predicate(rm, probe, msg)) continue;
    if (status != nullptr) {
      status->source = comm_info(rm, comm).local_of(msg.src_rank);
      status->tag = msg.tag;
      status->count_bytes = static_cast<int>(msg.payload.size());
    }
    return true;
  }
  return false;
}

void Runtime::do_yield(RankMpi& rm) {
  (void)rm;
  ult::current_scheduler()->yield();
}

// ---------------------------------------------------------------------------
// Internal (collective) transport

void Runtime::coll_send(RankMpi& rm, int dst_world, int tag, const void* data,
                        std::size_t bytes, CommId comm) {
  preempt_point();
  // esize stays 0: internal collective fragments carry algorithm-shaped
  // byte counts, not the user's declared type — never p2p-verified.
  if (try_inline_send(rm, dst_world, tag, data, bytes, comm, 0)) return;
  comm::Message m;
  m.kind = comm::Message::Kind::UserData;
  m.src_pe = rm.resident_pe;
  m.src_rank = rm.world_rank;
  m.dst_rank = dst_world;
  m.comm_id = comm;
  m.tag = tag;
  if (bytes > 0) {
    m.payload = comm::Payload::acquire(bytes);
    std::memcpy(m.payload.data(), data, bytes);
  }
  m.dst_pe = cluster_->location(dst_world);
  ++rm.routed_sent_to(dst_world);
  cluster_->send(std::move(m));
}

std::size_t Runtime::coll_recv(RankMpi& rm, int src_world, int tag,
                               void* data, std::size_t max_bytes,
                               CommId comm) {
  preempt_point();
  const int src_local = src_world == kAnySource
                            ? kAnySource
                            : comm_info(rm, comm).local_of(src_world);
  Request req = do_irecv(rm, data, max_bytes, src_local, tag, comm);
  const Status status = do_wait(rm, req);
  return static_cast<std::size_t>(status.count_bytes);
}

void Runtime::coll_send_staged(RankMpi& rm, int dst_world, int tag,
                               const void* data, std::size_t bytes,
                               CommId comm) {
  preempt_point();
  // Same-PE destinations take the inline user-to-user path — strictly
  // better than any staging (zero transport envelopes at all).
  if (try_inline_send(rm, dst_world, tag, data, bytes, comm, 0)) return;
  comm::Message m;
  m.kind = comm::Message::Kind::UserData;
  m.src_pe = rm.resident_pe;
  m.src_rank = rm.world_rank;
  m.dst_rank = dst_world;
  m.comm_id = comm;
  m.tag = tag;
  if (bytes > 0) {
    // On the shm backend this block already lives in the cross-process
    // arena: send_remote transfers it by refcount bump, making this fill
    // the one copy on the cross-process path. Inproc / single-process shm
    // degenerate to plain pool acquisition.
    m.payload = cluster_->acquire_payload(bytes);
    std::memcpy(m.payload.data(), data, bytes);
  }
  m.dst_pe = cluster_->location(dst_world);
  ++rm.routed_sent_to(dst_world);
  cluster_->send(std::move(m));
}

void Runtime::coll_send_vec(RankMpi& rm, int dst_world, int tag,
                            const void* data, std::size_t bytes,
                            CommId comm) {
  auto& ps = pe_state_[static_cast<std::size_t>(rm.resident_pe)];
  const auto* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(bytes - off, kVecCutoff);
    ++ps.coll_leader_msgs;
    coll_send_staged(rm, dst_world, tag, p + off, len, comm);
    off += len;
  } while (off < bytes);
}

void Runtime::coll_recv_vec(RankMpi& rm, int src_world, int tag, void* data,
                            std::size_t bytes, CommId comm) {
  // Chunk boundaries mirror coll_send_vec exactly (both cut at kVecCutoff);
  // per-sender FIFO keeps same-tag chunks in order.
  auto* p = static_cast<std::byte*>(data);
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(bytes - off, kVecCutoff);
    coll_recv(rm, src_world, tag, p + off, len, comm);
    off += len;
  } while (off < bytes);
}

// ---------------------------------------------------------------------------
// Ops

Op Runtime::do_op_create_named(RankMpi& rm, const char* image_fn,
                               bool commutative) {
  Op op;
  op.kind = OpKind::User;
  op.commutative = commutative;
  const img::FuncId id = image_->func_id(image_fn);
  op.user.id = id;
  op.user.code_offset = image_->func(id).code_offset;
  (void)rm;
  return op;
}

Op Runtime::do_op_create(RankMpi& rm, void* fn_addr, bool commutative) {
  // The paper's PIEglobals path: the address is inside *this rank's* code
  // copy; translate it to a base-relative handle via the instance registry.
  const comm::NodeId node = cluster_->node_of(rm.resident_pe);
  Op op;
  op.kind = OpKind::User;
  op.commutative = commutative;
  op.user = core::to_handle(
      privs_[static_cast<std::size_t>(node)]->env().loader->registry(),
      fn_addr);
  return op;
}

void Runtime::apply_op(RankMpi& rm, const Op& op, Datatype dt, const void* in,
                       void* inout, int len) {
  if (op.kind != OpKind::User) {
    apply_builtin_op(op.kind, dt, in, inout, len);
    return;
  }
  auto* fn = core::fn_as<void(const void*, void*, int, Datatype)>(op.user,
                                                                  *rm.rc);
  fn(in, inout, len, dt);
}

void Runtime::combine_on_pe(comm::PeId pe, const Op& op, Datatype dt,
                            const void* in, void* inout, int len) {
  if (op.kind != OpKind::User) {
    apply_builtin_op(op.kind, dt, in, inout, len);
    return;
  }
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  if (ps.resident.empty()) {
    // Paper §3.3: "we instead require that all cores have at least one
    // virtual rank assigned to them during reduction processing with
    // PIEglobals enabled and otherwise throw a runtime error".
    throw ApvError(ErrorCode::ReductionOnEmptyPe,
                   "user-defined reduction cannot be combined on PE " +
                       std::to_string(pe) + ": no virtual ranks resident");
  }
  RankMpi& host = *ps.resident.begin()->second;
  auto* fn = core::fn_as<void(const void*, void*, int, Datatype)>(op.user,
                                                                  *host.rc);
  fn(in, inout, len, dt);
}

// ---------------------------------------------------------------------------
// Migration, checkpoint/restart

void Runtime::do_migrate_to(RankMpi& rm, comm::PeId dest) {
  require(dest >= 0 && dest < cluster_->num_pes(), ErrorCode::InvalidArgument,
          "migration destination PE out of range");
  require(!cluster_->pe_failed(dest), ErrorCode::InvalidArgument,
          "migration destination PE " + std::to_string(dest) + " has failed");
  if (dest == rm.resident_pe) return;
  const comm::NodeId src_node = cluster_->node_of(rm.resident_pe);
  auto& priv = *privs_[static_cast<std::size_t>(src_node)];
  require(priv.supports_migration(), ErrorCode::MigrationRefused,
          std::string(core::method_name(priv.kind())) +
              " cannot migrate ranks: its segment copies were allocated by "
              "the dynamic linker, not Isomalloc");
  rm.migrate_dest = dest;
  comm::Message ctl;
  ctl.kind = comm::Message::Kind::Control;
  ctl.opcode = kCtlDoMigrate;
  ctl.src_pe = rm.resident_pe;
  ctl.dst_pe = rm.resident_pe;  // our own PE performs the departure
  ctl.dst_rank = rm.world_rank;
  cluster_->send(std::move(ctl));
  // Suspend; the PE packs and ships us, and the destination PE resumes us.
  while (rm.migrate_dest != comm::kInvalidPe) block_current(rm);
}

void Runtime::handle_control(comm::PeId pe, comm::Message&& msg) {
  const auto epoch = static_cast<std::uint32_t>(msg.tag);
  switch (msg.opcode) {
    case kCtlDoMigrate:
      perform_migration_departure(pe, msg.dst_rank);
      return;
    case kCtlDoCheckpoint:
      perform_checkpoint_pack(pe, msg.dst_rank, epoch, /*buddy=*/false);
      return;
    case kCtlDoRestore:
      perform_restore_unpack(pe, msg.dst_rank, epoch);
      return;
    case kCtlFtCheckpoint:
      perform_checkpoint_pack(pe, msg.dst_rank, epoch, /*buddy=*/true);
      return;
    case kCtlFtAdopt:
      perform_ft_adopt(pe, msg.dst_rank, epoch);
      return;
    case kCtlCollWake: {
      auto& ps = pe_state_[static_cast<std::size_t>(pe)];
      auto it = ps.resident.find(msg.dst_rank);
      if (it == ps.resident.end()) {
        // The rank moved on (migration/adoption); chase its location like
        // deliver_user does. A wake that arrives after the rank already
        // observed its release flag is a harmless no-op wherever it lands.
        const comm::PeId loc = cluster_->location(msg.dst_rank);
        if (loc == pe) {
          cluster_->pe(pe).post(std::move(msg));
        } else {
          msg.dst_pe = loc;
          msg.src_pe = pe;
          cluster_->send(std::move(msg));
        }
        return;
      }
      wake_if_waiting(*it->second, ult::Lane::High);
      return;
    }
    case kCtlStealRequest:
      handle_steal_request(pe, static_cast<comm::PeId>(msg.tag),
                           static_cast<int>(msg.dst_rank));
      return;
    case kCtlStealNack: {
      // Victim had nothing stealable. Clear the in-flight marker and
      // restart the idle clock: the thief re-arms only after another full
      // idle period, which doubles as backoff.
      auto& ps = pe_state_[static_cast<std::size_t>(pe)];
      ++ps.steal_fails;
      ps.steal_req_ns = 0;
      ps.idle_since_ns = 0;
      return;
    }
    default:
      throw ApvError(ErrorCode::Internal, "unknown control opcode");
  }
}

void Runtime::wake_coll_member(comm::PeId my_pe, RankMpi& member) {
  // The release/arrival flag the member re-checks was published (under the
  // group block's mutex) before this call, so a wake that races the
  // member's own progress is at worst redundant — never lost: on its own
  // thread the member's check-then-suspend cannot interleave with the
  // dispatcher handling the wake message.
  //
  // The same-PE test keys on THIS PE's own resident map — single-writer,
  // mutated only on this thread — not on member.resident_pe: that field is
  // written by the destination PE's arrival handler when the member
  // migrates mid-collective (steal), and reading it here would race
  // (found by TSan). A member that already left simply takes the message
  // path below, routed by the live location table.
  if (comm::Pe::current() == &cluster_->pe(my_pe) &&
      pe_state_[static_cast<std::size_t>(my_pe)].resident.count(
          member.world_rank) != 0) {
    wake_if_waiting(member, ult::Lane::High);
    return;
  }
  comm::Message wake;
  wake.kind = comm::Message::Kind::Control;
  wake.opcode = kCtlCollWake;
  wake.src_pe = my_pe;
  wake.dst_pe = cluster_->location(member.world_rank);
  wake.dst_rank = member.world_rank;
  cluster_->send(std::move(wake));
}

namespace {
// A control operation on a suspended rank must observe the ULT actually
// suspended; if the rank was spuriously woken, requeue the command.
bool rank_parked(const RankMpi& rm) {
  return rm.rc->ult->state() == ult::UltState::Blocked;
}
}  // namespace

void Runtime::perform_migration_departure(comm::PeId pe, comm::RankId rank) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  auto it = ps.resident.find(rank);
  require(it != ps.resident.end(), ErrorCode::Internal,
          "migration departure for non-resident rank");
  RankMpi& rm = *it->second;
  if (!rank_parked(rm)) {
    comm::Message retry;
    retry.kind = comm::Message::Kind::Control;
    retry.opcode = kCtlDoMigrate;
    retry.src_pe = pe;
    retry.dst_pe = pe;
    retry.dst_rank = rank;
    cluster_->pe(pe).post(std::move(retry));
    return;
  }
  // Settle busy-time accounting before the rank can run elsewhere: if the
  // open slice still names this rank, a later idle-hook close here would
  // race the destination PE's switch hook writing the same busy_time_s
  // (found by TSan; the steal path already closes for the same reason).
  // The mailbox ship orders this close before the destination's resume.
  close_run_slice(pe);
  const comm::PeId dest = rm.migrate_dest;
  // Per-sender FIFO across the move: sends this rank already made may still
  // sit in THIS PE's aggregation bins. Push them into the network before
  // the image ships — the rank can only send again after its arrival
  // dispatches, and every mailbox push here completes before the image's,
  // so pre-move traffic stays ahead of post-move traffic on every path.
  cluster_->flush_aggregation(pe);
  const comm::NodeId src_node = cluster_->node_of(pe);
  privs_[static_cast<std::size_t>(src_node)]->rank_departed(rm.rc);
  ps.resident.erase(it);

  util::ByteBuffer buf;
  iso::pack_slot(*arena_, rm.rc->slot, pack_mode_, buf);

  comm::Message mig;
  mig.kind = comm::Message::Kind::Migration;
  mig.src_pe = pe;
  mig.dst_pe = dest;
  mig.dst_rank = rank;
  // The packed image moves into the payload — the bytes pack_slot produced
  // are the bytes the destination unpacks, with no intermediate copy.
  migration_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
  mig.payload = comm::Payload::adopt(buf.take());
  migrations_.fetch_add(1, std::memory_order_relaxed);
  // Update the location *before* the state ships so forwards head to the
  // destination and queue behind the migration message.
  cluster_->set_location(rank, dest);
  cluster_->send(std::move(mig));
}

void Runtime::handle_migration_arrival(comm::PeId pe, comm::Message&& msg) {
  RankMpi& rm = rank_state(msg.dst_rank);
  // The runtime is about to rewrite the slot wholesale: the write barrier
  // must not see (or fault on) the unpack, and the bitmap no longer
  // describes an interval since any stored image — next checkpoint packs a
  // full base.
  if (dirty_tracker_ != nullptr) dirty_tracker_->disarm(rm.rc->slot);
  rm.force_full_ckpt = true;
  // Unpack straight out of the arriving payload — no intermediate vector,
  // no copy.
  util::ByteReader reader(msg.payload.data(), msg.payload.size());
  iso::unpack_slot(*arena_, rm.rc->slot, reader);

  const comm::NodeId node = cluster_->node_of(pe);
  privs_[static_cast<std::size_t>(node)]->rank_arrived(rm.rc);
  rm.resident_pe = pe;
  pe_state_[static_cast<std::size_t>(pe)].resident[msg.dst_rank] = &rm;
  rm.migrate_dest = comm::kInvalidPe;
  if (msg.opcode == kMigSteal) {
    // A stolen rank arriving answers this PE's own steal request: settle
    // the in-flight marker and the idle clock (we have work now).
    auto& ps = pe_state_[static_cast<std::size_t>(pe)];
    ++ps.steals_in;
    ps.steal_req_ns = 0;
    ps.idle_since_ns = 0;
  }
  cluster_->pe(pe).scheduler().ready(rm.rc->ult);
}

// ---------------------------------------------------------------------------
// Idle-PE rank stealing
//
// The thief half runs as an idle hook on an empty PE; the victim half runs
// as a control handler on the loaded PE's own thread, so the whole protocol
// only ever touches scheduler/resident state from its owning thread. The
// transfer itself is the ordinary packed-image migration — a stolen rank
// keeps the "ranks only run on their resident PE" invariant at every step.

void Runtime::maybe_steal(comm::PeId pe) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  const std::uint64_t now = util::wall_time_ns();
  if (ps.steal_req_ns != 0) {
    // One request in flight at a time. A request (or its answer) can be
    // dropped outright when the victim dies — the timeout, not a reply, is
    // what guarantees the thief recovers.
    if (now - ps.steal_req_ns < steal_timeout_ns_) return;
    ++ps.steal_fails;
    ps.steal_req_ns = 0;
    ps.idle_since_ns = 0;
    return;
  }
  comm::Pe& mype = cluster_->pe(pe);
  if (mype.failed()) return;
  if (mype.mailbox_depth() > 0 || mype.scheduler().ready_count() > 0) {
    ps.idle_since_ns = 0;
    return;
  }
  for (const auto& [rank, rm] : ps.resident) {
    // FT interplay: while any resident is mid-checkpoint or parked for
    // restore/adoption (a dying PE's victims among them), this PE is in a
    // recovery protocol, not idle — pulling a foreign rank in now could
    // land it on a PE about to be declared dead.
    if (rm->ckpt_pending || rm->restore_pending) {
      ps.idle_since_ns = 0;
      return;
    }
  }
  if (ps.idle_since_ns == 0) {
    ps.idle_since_ns = now;
    return;
  }
  if (now - ps.idle_since_ns < steal_idle_ns_) return;
  // Genuinely idle past the threshold: pick the PE whose backlog will take
  // longest to drain — ready depth weighted by that PE's recent per-ULT
  // service time (EWMA maintained in close_run_slice). Depths and service
  // times are relaxed cross-thread reads of each scheduler's split counters
  // (see Scheduler::ready_count) and may be stale or momentarily torn
  // between the two cells; that is sound here because the values only
  // *rank* victims — the steal itself is a request message the victim
  // re-validates against its authoritative queue before any rank moves
  // (handle_steal_request nacks when nothing is actually stealable).
  std::vector<std::size_t> depth(static_cast<std::size_t>(
      cluster_->num_pes()));
  std::vector<std::uint64_t> service(static_cast<std::size_t>(
      cluster_->num_pes()));
  for (int p = 0; p < cluster_->num_pes(); ++p) {
    depth[static_cast<std::size_t>(p)] =
        (p == pe || cluster_->pe_failed(p))
            ? 0
            : cluster_->pe(p).scheduler().ready_count();
    service[static_cast<std::size_t>(p)] =
        service_ewma_ns_[static_cast<std::size_t>(p)].load(
            std::memory_order_relaxed);
  }
  const int victim = lb::pick_steal_victim(depth, service, pe,
                                           /*min_ready=*/1);
  if (victim < 0) return;
  ++ps.steal_requests;
  ps.steal_req_ns = now;
  comm::Message req;
  req.kind = comm::Message::Kind::Control;
  req.opcode = kCtlStealRequest;
  req.src_pe = pe;
  req.dst_pe = victim;
  req.tag = pe;  // thief id travels in the tag
  req.dst_rank = steal_batch_;  // how many ranks the thief would take
  cluster_->send(std::move(req));
}

void Runtime::handle_steal_request(comm::PeId pe, comm::PeId thief,
                                   int requested) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  close_run_slice(pe);  // settle busy-time accounting before choosing
  const auto nack = [&] {
    comm::Message n;
    n.kind = comm::Message::Kind::Control;
    n.opcode = kCtlStealNack;
    n.src_pe = pe;
    n.dst_pe = thief;
    cluster_->send(std::move(n));
  };
  if (thief < 0 || thief >= cluster_->num_pes() || thief == pe ||
      cluster_->pe_failed(thief) || cluster_->pe_failed(pe)) {
    if (thief >= 0 && thief < cluster_->num_pes() &&
        !cluster_->pe_failed(thief)) {
      nack();
    }
    return;
  }
  ult::Scheduler& sched = cluster_->pe(pe).scheduler();
  // Pre-protocol requests carry 0 in dst_rank; treat as the classic
  // single-rank steal. The quota re-derives the grant from *our* queue —
  // the thief's ask is a ceiling, never a command.
  const int quota =
      lb::steal_batch_quota(sched.ready_count(), requested < 1 ? 1 : requested);
  int shipped = 0;
  while (shipped < quota) {
    // Candidates: ready (queued, not running, not blocked), not entangled
    // in a collective (group blocks and gate shards hold per-PE
    // references), not under any control operation, and not this PE's only
    // resident. The busiest candidate goes — it is the one most worth
    // running elsewhere. Re-picked each iteration: shipping one changes
    // who is busiest next.
    RankMpi* best = nullptr;
    for (const auto& [rank, rm] : ps.resident) {
      if (rm->finished || rm->failed || rm->waiting) continue;
      if (rm->migrate_dest != comm::kInvalidPe || rm->ckpt_pending ||
          rm->restore_pending)
        continue;
      if (rm->coll_depth > 0) continue;
      if (rm->rc->ult->state() != ult::UltState::Ready) continue;
      if (best == nullptr || rm->busy_time() > best->busy_time()) best = rm;
    }
    if (best == nullptr || ps.resident.size() < 2) break;
    if (!sched.unqueue(best->rc->ult)) {
      // Raced with dispatch (it is running right now) — nothing to hand
      // over this round, and later candidates rank below it, so stop.
      break;
    }
    ++ps.steals_out;
    const comm::RankId stolen = best->world_rank;
    // Same per-sender FIFO flush as perform_migration_departure: a stolen
    // sender's not-yet-flushed binned messages must enter the network
    // before its image does, or sends it makes from the thief PE could
    // overtake them (found by the inline-delivery FIFO test under
    // APV_SCHED_STEAL).
    cluster_->flush_aggregation(pe);
    // From here this is a migration departure with dest=thief. Setting
    // migrate_dest reuses the existing wake guards: no late message arrival
    // or stale kCtlCollWake can re-ready the ULT while its image is in
    // flight. The arrival side clears it and requeues the rank.
    best->migrate_dest = thief;
    const comm::NodeId src_node = cluster_->node_of(pe);
    privs_[static_cast<std::size_t>(src_node)]->rank_departed(best->rc);
    ps.resident.erase(best->world_rank);

    util::ByteBuffer buf;
    iso::pack_slot(*arena_, best->rc->slot, pack_mode_, buf);

    comm::Message mig;
    mig.kind = comm::Message::Kind::Migration;
    mig.opcode = kMigSteal;
    mig.src_pe = pe;
    mig.dst_pe = thief;
    mig.dst_rank = stolen;
    migration_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
    mig.payload = comm::Payload::adopt(buf.take());
    // Deliberately not counted in migrations_: that counter means
    // "explicit migrations the program asked for" (AMPI_Migrate / fault
    // recovery), and steals are reported separately via
    // sched_steals_out/in.
    // Location first, then the image: forwards chase the thief and queue
    // behind the migration message (same ordering as plain departures).
    cluster_->set_location(stolen, thief);
    cluster_->send(std::move(mig));
    APV_DEBUG("mpi", "PE %d: rank %d stolen by idle PE %d (%d/%d)", pe,
              stolen, thief, shipped + 1, quota);
    ++shipped;
  }
  if (shipped == 0) nack();
}

int Runtime::do_checkpoint(RankMpi& rm) {
  rm.restored = false;
  rm.ckpt_pending = true;
  const std::uint32_t epoch = ++rm.ft_epoch;
  comm::Message ctl;
  ctl.kind = comm::Message::Kind::Control;
  ctl.opcode = kCtlDoCheckpoint;
  ctl.tag = static_cast<std::int32_t>(epoch);
  ctl.src_pe = rm.resident_pe;
  ctl.dst_pe = rm.resident_pe;
  ctl.dst_rank = rm.world_rank;
  cluster_->send(std::move(ctl));
  while (rm.ckpt_pending) block_current(rm);
  // After a restore, execution rewinds to the suspension above and resumes
  // here with rm.restored set — the setjmp/longjmp shape of
  // checkpoint-based fault tolerance.
  return rm.restored ? 1 : 0;
}

void Runtime::perform_checkpoint_pack(comm::PeId pe, comm::RankId rank,
                                      std::uint32_t epoch, bool buddy) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  auto it = ps.resident.find(rank);
  require(it != ps.resident.end(), ErrorCode::Internal,
          "checkpoint for non-resident rank");
  RankMpi& rm = *it->second;
  if (!rank_parked(rm)) {
    comm::Message retry;
    retry.kind = comm::Message::Kind::Control;
    retry.opcode = buddy ? kCtlFtCheckpoint : kCtlDoCheckpoint;
    retry.tag = static_cast<std::int32_t>(epoch);
    retry.src_pe = pe;
    retry.dst_pe = pe;
    retry.dst_rank = rank;
    cluster_->pe(pe).post(std::move(retry));
    return;
  }
  const iso::SlotId slot = rm.rc->slot;
  // Delta is eligible only when tracking covered the whole interval since
  // the previous image: the tracker is armed, nothing rewrote the slot
  // wholesale (force_full_ckpt), the base image still survives, and the
  // chain has not reached the full-image cadence.
  const bool want_delta =
      dirty_tracker_ != nullptr && !rm.force_full_ckpt &&
      dirty_tracker_->armed(slot) && rm.last_ckpt_epoch != 0 &&
      rm.ckpt_chain_len + 1 < ckpt_full_every_ &&
      ckpt_store_->has(rank, rm.last_ckpt_epoch);

  util::ByteBuffer buf;
  std::size_t dirty_pages = 0;
  if (want_delta) {
    const std::size_t prefix = iso::packed_payload_size(*arena_, slot,
                                                        pack_mode_);
    const auto regions = dirty_tracker_->dirty_regions(slot, prefix);
    for (const iso::DirtyRegion& r : regions) {
      dirty_pages += (r.len + iso::DirtyTracker::page_size() - 1) /
                     iso::DirtyTracker::page_size();
    }
    iso::pack_slot_delta(*arena_, slot, regions, rm.last_ckpt_epoch, buf);
  } else {
    iso::pack_slot(*arena_, slot, pack_mode_, buf);
  }

  std::vector<comm::PeId> owners{pe};
  if (buddy) {
    const comm::PeId b = buddy_of(pe);
    if (b != pe) owners.push_back(b);
  }
  const std::size_t packed_bytes = buf.size();
  if (want_delta) {
    ckpt_store_->put_delta(rank, epoch, rm.last_ckpt_epoch, pe, owners,
                           std::move(buf));
    ckpt_delta_images_.fetch_add(1, std::memory_order_relaxed);
    ckpt_bytes_delta_.fetch_add(packed_bytes, std::memory_order_relaxed);
    ckpt_pages_dirty_.fetch_add(dirty_pages, std::memory_order_relaxed);
    ++rm.ckpt_chain_len;
  } else {
    ckpt_store_->put(rank, epoch, pe, owners, std::move(buf));
    ckpt_full_images_.fetch_add(1, std::memory_order_relaxed);
    ckpt_bytes_full_.fetch_add(packed_bytes, std::memory_order_relaxed);
    rm.ckpt_chain_len = 0;
    rm.force_full_ckpt = false;
  }
  rm.last_ckpt_epoch = epoch;
  if (!buddy) {
    // Non-collective checkpoints version per rank: the image just taken
    // supersedes this rank's older epochs immediately (the store keeps
    // chain links the new image still depends on). Collective epochs
    // retire globally once the whole epoch commits (do_checkpoint_all).
    ckpt_store_->retire_rank_before(rank, epoch);
  }
  // Snapshot taken: clear the bitmap and restart write tracking so the
  // next epoch's delta covers exactly the writes from here on.
  if (dirty_tracker_ != nullptr) dirty_tracker_->arm(slot);
  rm.ckpt_pending = false;
  cluster_->pe(pe).scheduler().ready(rm.rc->ult, ult::Lane::High);
}

int Runtime::do_restore(RankMpi& rm) {
  const std::uint32_t epoch = ckpt_store_->latest_epoch(rm.world_rank);
  require(epoch != 0, ErrorCode::NotFound,
          "no checkpoint taken for rank " + std::to_string(rm.world_rank));
  rm.restore_pending = true;
  comm::Message ctl;
  ctl.kind = comm::Message::Kind::Control;
  ctl.opcode = kCtlDoRestore;
  ctl.tag = static_cast<std::int32_t>(epoch);
  ctl.src_pe = rm.resident_pe;
  ctl.dst_pe = rm.resident_pe;
  ctl.dst_rank = rm.world_rank;
  cluster_->send(std::move(ctl));
  // This suspension never "returns" here: the unpack rewinds the ULT's
  // stack to the checkpoint suspension, and execution resumes inside
  // do_checkpoint instead.
  rm.waiting = true;
  ult::current_scheduler()->suspend();
  rm.waiting = false;
  throw ApvError(ErrorCode::Internal,
                 "restore resumed past the rewound stack frame");
}

void Runtime::perform_restore_unpack(comm::PeId pe, comm::RankId rank,
                                     std::uint32_t epoch) {
  auto& ps = pe_state_[static_cast<std::size_t>(pe)];
  auto it = ps.resident.find(rank);
  require(it != ps.resident.end(), ErrorCode::Internal,
          "restore for non-resident rank");
  RankMpi& rm = *it->second;
  if (!rank_parked(rm)) {
    comm::Message retry;
    retry.kind = comm::Message::Kind::Control;
    retry.opcode = kCtlDoRestore;
    retry.tag = static_cast<std::int32_t>(epoch);
    retry.src_pe = pe;
    retry.dst_pe = pe;
    retry.dst_rank = rank;
    cluster_->pe(pe).post(std::move(retry));
    return;
  }
  if (dirty_tracker_ != nullptr) dirty_tracker_->disarm(rm.rc->slot);
  rm.force_full_ckpt = true;
  // Materialize the epoch: the full base first, then each delta in order,
  // unpacked directly from the store's ref-counted views.
  std::vector<comm::Payload> chain;
  require(ckpt_store_->fetch_chain(rank, epoch, chain), ErrorCode::NotFound,
          "checkpoint image lost for rank " + std::to_string(rank) +
              " epoch " + std::to_string(epoch));
  for (comm::Payload& img : chain) {
    util::ByteReader reader(img.data(), img.size());
    iso::unpack_slot(*arena_, rm.rc->slot, reader);
  }
  // The ULT (stack, context, heap) is now exactly as it was inside the
  // checkpoint suspension. Flag the resume as a restore and wake it.
  rm.restored = true;
  rm.ckpt_pending = false;
  rm.restore_pending = false;
  cluster_->pe(pe).scheduler().ready(rm.rc->ult, ult::Lane::High);
}

comm::PeId Runtime::buddy_of(comm::PeId pe) const {
  const int n = cluster_->num_pes();
  for (int d = 1; d < n; ++d) {
    const comm::PeId b = (pe + d) % n;
    if (!cluster_->pe_failed(b)) return b;
  }
  return pe;  // single live PE: no distinct buddy exists
}

void Runtime::perform_ft_adopt(comm::PeId pe, comm::RankId rank,
                               std::uint32_t epoch) {
  RankMpi& rm = rank_state(rank);
  // The victim packs and parks on the dying PE's thread while we run here;
  // retry (requeue behind our own mailbox) until its epoch image exists and
  // the ULT is genuinely suspended.
  if (!(rm.restore_pending && rank_parked(rm) &&
        ckpt_store_->has(rank, epoch))) {
    comm::Message retry;
    retry.kind = comm::Message::Kind::Control;
    retry.opcode = kCtlFtAdopt;
    retry.tag = static_cast<std::int32_t>(epoch);
    retry.src_pe = pe;
    retry.dst_pe = pe;
    retry.dst_rank = rank;
    cluster_->pe(pe).post(std::move(retry));
    return;
  }
  const comm::PeId old_pe = rm.resident_pe;
  // The dying PE's loop may still be draining the backlog it accepted
  // before the leader declared it dead — and its thread was the last to
  // touch everything adoption takes over: the slot bytes holding the parked
  // ULT (its scheduler read the Ult's atomic state when parking it), the
  // resident-map entry, the privatization method's per-rank hooks. Requeue
  // until that loop has exited: run_loop's final running_ store (release)
  // against this acquire load is the happens-before edge that licenses the
  // plain-byte unpack and map surgery below (found by TSan). The wait is
  // bounded — every rank on the dead PE is a parked victim, so its loop
  // drains and halts without needing anything from us.
  if (cluster_->pe(old_pe).running()) {
    comm::Message retry;
    retry.kind = comm::Message::Kind::Control;
    retry.opcode = kCtlFtAdopt;
    retry.tag = static_cast<std::int32_t>(epoch);
    retry.src_pe = pe;
    retry.dst_pe = pe;
    retry.dst_rank = rank;
    cluster_->pe(pe).post(std::move(retry));
    return;
  }
  const comm::NodeId old_node = cluster_->node_of(old_pe);
  privs_[static_cast<std::size_t>(old_node)]->rank_departed(rm.rc);
  pe_state_[static_cast<std::size_t>(old_pe)].resident.erase(rank);

  // Pull the surviving buddy chain over and unpack it over the slot (full
  // base, then deltas in order): the rank is now bit-for-bit at the epoch
  // state, hosted here. The views are ref-counted — no copy is made to
  // serve them.
  if (dirty_tracker_ != nullptr) dirty_tracker_->disarm(rm.rc->slot);
  rm.force_full_ckpt = true;
  std::vector<comm::Payload> chain;
  require(ckpt_store_->fetch_chain(rank, epoch, chain), ErrorCode::Internal,
          "buddy checkpoint copy vanished during adoption");
  std::size_t chain_bytes = 0;
  for (comm::Payload& img : chain) {
    chain_bytes += img.size();
    util::ByteReader reader(img.data(), img.size());
    iso::unpack_slot(*arena_, rm.rc->slot, reader);
  }

  const comm::NodeId node = cluster_->node_of(pe);
  privs_[static_cast<std::size_t>(node)]->rank_arrived(rm.rc);
  rm.resident_pe = pe;
  pe_state_[static_cast<std::size_t>(pe)].resident[rank] = &rm;
  cluster_->set_location(rank, pe);
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  recovery_bytes_.fetch_add(chain_bytes, std::memory_order_relaxed);

  rm.restored = true;
  rm.ckpt_pending = false;
  rm.restore_pending = false;
  APV_INFO("ft", "rank %d adopted by PE %d from buddy copy (epoch %u, "
                 "%zu image(s), %zu bytes)",
           rank, pe, epoch, chain.size(), chain_bytes);
  cluster_->pe(pe).scheduler().ready(rm.rc->ult, ult::Lane::High);
}

void Runtime::do_compute(RankMpi& rm, double seconds) {
  (void)rm;
  // Spin: models CPU-bound application work; accrues into the rank's
  // busy-time slice via the scheduler timing hook. Spun in bounded chunks
  // with a preempt point between them, so a long compute() cannot starve
  // its PE when sched.preempt is armed — and only time actually spent
  // spinning counts as work (a preemption gap does not shrink the job).
  constexpr std::uint64_t kChunkNs = 10 * 1000;
  auto remaining_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (remaining_ns > 0) {
    const std::uint64_t t0 = util::wall_time_ns();
    const std::uint64_t chunk_end =
        t0 + std::min<std::int64_t>(remaining_ns,
                                    static_cast<std::int64_t>(kChunkNs));
    while (util::wall_time_ns() < chunk_end) {
    }
    remaining_ns -= static_cast<std::int64_t>(chunk_end - t0);
    preempt_point();
  }
}

core::VarAccess Runtime::bind_global(const RankMpi& rm,
                                     const std::string& name) const {
  const comm::NodeId node = cluster_->node_of(rm.resident_pe);
  return privs_[static_cast<std::size_t>(node)]->bind(name);
}

util::Counters Runtime::ckpt_counters() const {
  util::Counters c;
  c.set("ckpt_images_full",
        ckpt_full_images_.load(std::memory_order_relaxed));
  c.set("ckpt_images_delta",
        ckpt_delta_images_.load(std::memory_order_relaxed));
  c.set("ckpt_bytes_full", ckpt_bytes_full_.load(std::memory_order_relaxed));
  c.set("ckpt_bytes_delta",
        ckpt_bytes_delta_.load(std::memory_order_relaxed));
  c.set("ckpt_pages_dirty",
        ckpt_pages_dirty_.load(std::memory_order_relaxed));
  if (dirty_tracker_ != nullptr) {
    c.set("ckpt_tracker_faults", dirty_tracker_->faults());
    c.set("ckpt_tracker_predirtied", dirty_tracker_->pre_dirtied());
  }
  c.set("ckpt_store_puts", ckpt_store_->puts());
  c.set("ckpt_store_fetches", ckpt_store_->fetches());
  c.set("ckpt_store_consolidations", ckpt_store_->consolidations());
  return c;
}

// ---------------------------------------------------------------------------
// Runtime correctness checker glue

void Runtime::coll_gate_entry(RankMpi& rm, const char* name,
                              std::int32_t color, CommId comm,
                              std::uint32_t seq, int root, int opkind,
                              std::uint32_t esize, std::uint64_t bytes,
                              int expected) {
  check::CollDesc d;
  d.color = color;
  d.root = root;
  d.op = opkind;
  d.esize = esize;
  d.bytes = bytes;
  std::string mismatch = checker_->coll_gate(rm.resident_pe, rm.world_rank,
                                             name, comm, seq, expected, d);
  if (mismatch.empty()) [[likely]]
    return;
  checker_->record("collective-mismatch", rm.world_rank, mismatch);
  // Gates run in the calling rank's own ULT context, so abort can throw
  // straight out of the collective entry.
  if (checker_->mode() == check::Mode::Abort)
    throw ApvError(ErrorCode::CheckFailed, mismatch);
}

util::Counters Runtime::check_counters() const {
  return checker_ != nullptr ? checker_->counters() : util::Counters{};
}

util::Counters Runtime::sched_counters() const {
  util::Counters c;
  auto& cluster = const_cast<comm::Cluster&>(*cluster_);
  std::uint64_t hi = 0, normal = 0, bulk = 0;
  std::uint64_t preempts = 0, overruns = 0, remote = 0;
  for (int p = 0; p < cluster.num_pes(); ++p) {
    const ult::Scheduler& s = cluster.pe(p).scheduler();
    hi += s.lane_dispatches(ult::Lane::High);
    normal += s.lane_dispatches(ult::Lane::Normal);
    bulk += s.lane_dispatches(ult::Lane::Bulk);
    preempts += s.preempt_count();
    overruns += s.overrun_count();
    remote += s.remote_ready_count();
  }
  std::uint64_t reqs = 0, fails = 0, in = 0, out = 0;
  for (const PeState& ps : pe_state_) {
    reqs += ps.steal_requests;
    fails += ps.steal_fails;
    in += ps.steals_in;
    out += ps.steals_out;
  }
  c.set("sched_dispatch_high", hi);
  c.set("sched_dispatch_normal", normal);
  c.set("sched_dispatch_bulk", bulk);
  c.set("sched_preemptions", preempts);
  c.set("sched_quantum_overruns", overruns);
  c.set("sched_remote_readies", remote);
  c.set("sched_steal_requests", reqs);
  c.set("sched_steal_fails", fails);
  c.set("sched_steals_in", in);
  c.set("sched_steals_out", out);
  return c;
}

util::Counters Runtime::all_counters() const {
  util::Counters c;
  c.merge(cluster_->stat_counters());
  c.merge(ckpt_counters());
  c.merge(locality_counters());
  c.merge(sched_counters());
  c.merge(check_counters());
  c.set("context_switches", total_context_switches());
  c.set("migrations", migrations_.load(std::memory_order_relaxed));
  c.set("migration_bytes", migration_bytes_.load(std::memory_order_relaxed));
  c.set("forwards", forwards_.load(std::memory_order_relaxed));
  c.set("recoveries", recoveries_.load(std::memory_order_relaxed));
  c.set("recovery_bytes", recovery_bytes_.load(std::memory_order_relaxed));
  return c;
}

void Runtime::dump_all_counters() const {
  std::fprintf(stderr, "[apv:counters] %s\n", all_counters().to_json().c_str());
}

util::Counters Runtime::locality_counters() const {
  util::Counters c;
  std::uint64_t hits = 0, misses = 0, bytes = 0, fifo = 0;
  std::uint64_t leader_msgs = 0, local_combines = 0, shared_rdv = 0;
  std::uint64_t vec_bytes = 0;
  for (const PeState& ps : pe_state_) {
    hits += ps.inline_hits;
    misses += ps.inline_misses;
    bytes += ps.inline_bytes;
    fifo += ps.inline_fifo_fallbacks;
    leader_msgs += ps.coll_leader_msgs;
    local_combines += ps.coll_local_combines;
    shared_rdv += ps.coll_shared_rendezvous;
    vec_bytes += ps.coll_vec_bytes;
  }
  c.set("inline_hits", hits);
  c.set("inline_misses", misses);
  c.set("inline_bytes", bytes);
  c.set("inline_fifo_fallbacks", fifo);
  c.set("coll_leader_msgs", leader_msgs);
  c.set("coll_local_combines", local_combines);
  c.set("coll_shared_rendezvous", shared_rdv);
  c.set("coll_vec_bytes", vec_bytes);
  return c;
}

}  // namespace apv::mpi
