#include "bench.hpp"

#include <stdexcept>

namespace apvbench {

RunState& run_state() {
  static RunState state;
  return state;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d) noexcept {
  return mix(mix(mix(a, b), c), d);
}

apv::util::Options pinned_options() {
  // Every option a workload's behaviour depends on, set explicitly: an
  // absent option falls back to environment variables (APV_CHECK_MODE,
  // APV_SCHED_PREEMPT, APV_SCHED_STEAL, APV_TRANSPORT) that CI exports.
  apv::util::Options o;
  o.set("check.mode", "off");
  o.set("transport.backend", "inproc");
  o.set("sched.policy", "prio");
  o.set("sched.preempt", "off");
  o.set("sched.steal", "off");
  o.set_int("sched.quantum_us", 200);
  o.set_int("sched.starve_limit", 8);
  o.set_int("sched.steal_idle_us", 500);
  o.set_int("sched.steal_timeout_us", 5000);
  o.set_int("sched.steal_batch", 1);
  o.set("comm.inline", "on");
  o.set("comm.mailbox", "ring");
  o.set_int("comm.mailbox_slots", 1024);
  o.set_int("comm.drain_batch", 64);
  o.set_bool("comm.pool", true);
  o.set_int("comm.agg_threshold", 512);
  o.set_int("comm.agg_max_bytes", 16384);
  o.set_int("comm.hipri_bytes", 256);
  o.set("coll.algo", "hier");
  o.set_int("coll.rab_cutoff", 32768);
  o.set_int("coll.vec_cutoff", 32768);
  o.set("ft.policy", "none");
  o.set("ft.delta", "on");
  o.set_int("ft.full_every", 8);
  o.set_int("ft.max_chain", 0);
  o.set("iso.pack", "touched");
  o.set("pie.fixup", "scan");
  o.set_bool("pie.share_code", false);
  o.set_bool("pie.share_readonly", false);
  o.set_bool("net.enabled", false);
  o.set_int("transport.spin_us", 200);
  o.set_int("transport.nap_us", 50);
  o.set_int("mpi.timeout_s", 60);
  o.set_bool("util.dump_counters", false);
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
  if (name == "stencil") return make_stencil(seed, size);
  if (name == "chatter") return make_chatter(seed, size);
  if (name == "mobility") return make_mobility(seed, size);
  throw std::invalid_argument(
      "unknown workload '" + name + "'");
}

}  // namespace apvbench
