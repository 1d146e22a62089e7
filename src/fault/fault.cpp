#include "fault/fault.h"

#include <utility>

#include "core/rng.h"

namespace qnn {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStreamBitFlip:
      return "stream-bit-flip";
    case FaultKind::kStreamStall:
      return "stream-stall";
    case FaultKind::kKernelHang:
      return "kernel-hang";
    case FaultKind::kKernelException:
      return "kernel-exception";
    case FaultKind::kReplicaCrash:
      return "replica-crash";
    case FaultKind::kLinkOutage:
      return "link-outage";
    case FaultKind::kLinkFrameCorrupt:
      return "link-frame-corrupt";
    case FaultKind::kLinkDeath:
      return "link-death";
  }
  return "unknown";
}

FaultEvent FaultPlan::bit_flip(std::string stream, std::uint64_t run,
                               std::uint64_t value_index, std::int32_t mask) {
  FaultEvent e;
  e.kind = FaultKind::kStreamBitFlip;
  e.target = std::move(stream);
  e.first_run = e.last_run = run;
  e.after_values = value_index;
  e.xor_mask = mask;
  return e;
}

FaultEvent FaultPlan::stall(std::string stream, std::uint64_t run,
                            std::uint64_t value_index,
                            std::uint64_t attempts) {
  FaultEvent e;
  e.kind = FaultKind::kStreamStall;
  e.target = std::move(stream);
  e.first_run = e.last_run = run;
  e.after_values = value_index;
  e.stall_attempts = attempts;
  return e;
}

FaultEvent FaultPlan::kernel_hang(std::string kernel, std::uint64_t run,
                                  std::uint64_t step) {
  FaultEvent e;
  e.kind = FaultKind::kKernelHang;
  e.target = std::move(kernel);
  e.first_run = e.last_run = run;
  e.after_steps = step;
  return e;
}

FaultEvent FaultPlan::kernel_throw(std::string kernel, std::uint64_t run,
                                   std::uint64_t step) {
  FaultEvent e;
  e.kind = FaultKind::kKernelException;
  e.target = std::move(kernel);
  e.first_run = e.last_run = run;
  e.after_steps = step;
  return e;
}

FaultEvent FaultPlan::replica_crash(int replica, std::uint64_t first_run,
                                    std::uint64_t last_run) {
  FaultEvent e;
  e.kind = FaultKind::kReplicaCrash;
  e.replica = replica;
  e.first_run = first_run;
  e.last_run = last_run;
  return e;
}

FaultEvent FaultPlan::link_outage(int link, std::uint64_t run,
                                  std::uint64_t after_frames,
                                  std::int64_t outage_us) {
  FaultEvent e;
  e.kind = FaultKind::kLinkOutage;
  e.link = link;
  e.first_run = e.last_run = run;
  e.after_values = after_frames;
  e.outage_us = outage_us;
  return e;
}

FaultEvent FaultPlan::link_frame_corrupt(int link, std::uint32_t per_million,
                                         std::uint64_t first_run,
                                         std::uint64_t last_run) {
  FaultEvent e;
  e.kind = FaultKind::kLinkFrameCorrupt;
  e.link = link;
  e.first_run = first_run;
  e.last_run = last_run;
  e.corrupt_per_million = per_million;
  return e;
}

FaultEvent FaultPlan::link_death(int link, std::uint64_t run,
                                 std::uint64_t after_frames,
                                 std::uint64_t last_run) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDeath;
  e.link = link;
  e.first_run = run;
  e.last_run = last_run;
  e.after_values = after_frames;
  return e;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, const ChaosOptions& opts) {
  QNN_CHECK(opts.replicas >= 1, "FaultPlan::chaos: replicas must be >= 1");
  QNN_CHECK(opts.runs >= 1, "FaultPlan::chaos: runs must be >= 1");
  QNN_CHECK(opts.events >= 0, "FaultPlan::chaos: events must be >= 0");
  Rng rng(seed);
  FaultPlan plan;
  plan.events.reserve(static_cast<std::size_t>(opts.events));
  // Detectable kinds only (plus optional live link faults): the healing
  // layer can observe and mask these, so chaos soaks can assert full
  // recovery. The draw order is append-only so a given seed under the
  // default options keeps producing the identical plan.
  std::vector<FaultKind> kinds = {
      FaultKind::kKernelHang, FaultKind::kKernelException,
      FaultKind::kReplicaCrash, FaultKind::kStreamStall};
  if (opts.include_link_faults) {
    QNN_CHECK(opts.links >= 1, "FaultPlan::chaos: links must be >= 1");
    kinds.push_back(FaultKind::kLinkOutage);
    kinds.push_back(FaultKind::kLinkFrameCorrupt);
    kinds.push_back(FaultKind::kLinkDeath);
  }
  for (int i = 0; i < opts.events; ++i) {
    FaultEvent e;
    e.replica = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(opts.replicas)));
    e.first_run = rng.next_below(opts.runs);
    e.last_run = e.first_run;
    switch (kinds[rng.next_below(kinds.size())]) {
      case FaultKind::kKernelHang:
        e.kind = FaultKind::kKernelHang;
        e.target_index = static_cast<int>(rng.next_below(64));
        e.after_steps = rng.next_below(256);
        break;
      case FaultKind::kKernelException:
        e.kind = FaultKind::kKernelException;
        e.target_index = static_cast<int>(rng.next_below(64));
        e.after_steps = rng.next_below(256);
        break;
      case FaultKind::kReplicaCrash:
        e.kind = FaultKind::kReplicaCrash;
        break;
      case FaultKind::kStreamStall:
        e.kind = FaultKind::kStreamStall;
        e.target_index = static_cast<int>(rng.next_below(64));
        e.after_values = rng.next_below(512);
        e.stall_attempts = 64 + rng.next_below(512);
        break;
      case FaultKind::kLinkOutage:
        e.kind = FaultKind::kLinkOutage;
        e.link = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(opts.links)));
        e.after_values = rng.next_below(64);
        e.outage_us = static_cast<std::int64_t>(500 + rng.next_below(2500));
        break;
      case FaultKind::kLinkFrameCorrupt:
        e.kind = FaultKind::kLinkFrameCorrupt;
        e.link = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(opts.links)));
        e.corrupt_per_million =
            static_cast<std::uint32_t>(10000 + rng.next_below(190000));
        break;
      case FaultKind::kLinkDeath:
        e.kind = FaultKind::kLinkDeath;
        e.link = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(opts.links)));
        e.after_values = rng.next_below(128);
        break;
      default:
        e.kind = FaultKind::kReplicaCrash;
        break;
    }
    plan.events.push_back(e);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, int replica)
    : plan_(std::move(plan)), replica_(replica) {}

StreamFaultSite* FaultInjector::register_stream(const std::string& name) {
  stream_sites_.emplace_back();
  stream_sites_.back().fired = &fired_;
  stream_names_.push_back(name);
  return &stream_sites_.back();
}

KernelFaultSite* FaultInjector::register_kernel(const std::string& name) {
  kernel_sites_.emplace_back();
  kernel_sites_.back().fired = &fired_;
  kernel_sites_.back().name = name;
  kernel_names_.push_back(name);
  return &kernel_sites_.back();
}

LinkFaultSite* FaultInjector::register_link(const std::string& name) {
  link_sites_.emplace_back();
  link_sites_.back().fired = &fired_;
  link_names_.push_back(name);
  return &link_sites_.back();
}

void FaultInjector::clear_graph_sites() {
  stream_sites_.clear();
  kernel_sites_.clear();
  stream_names_.clear();
  kernel_names_.clear();
}

void FaultInjector::begin_run() {
  const std::uint64_t run = run_++;
  for (auto& s : stream_sites_) {
    s.flip_at = kFaultNever;
    s.flip_mask = 0;
    s.stall_at = kFaultNever;
    s.stall_attempts = 0;
    s.armed = false;
    s.values = 0;
    s.stalls_left = 0;
  }
  for (auto& k : kernel_sites_) {
    k.throw_at = kFaultNever;
    k.hang_at = kFaultNever;
    k.armed = false;
    k.steps = 0;
    k.hung = false;
  }
  for (auto& l : link_sites_) {
    l.outage_from = kFaultNever;
    l.outage_us = 0;
    l.death_from = kFaultNever;
    l.corrupt_per_million = 0;
    l.armed = false;
    l.frames = 0;
    l.outage_open = false;
    l.outage_fired = false;
    l.death_fired = false;
  }
  crash_ = false;

  auto stream_index = [&](const FaultEvent& e) -> std::size_t {
    if (!e.target.empty()) {
      for (std::size_t i = 0; i < stream_names_.size(); ++i) {
        if (stream_names_[i] == e.target) return i;
      }
      return stream_names_.size();  // unknown name: skip
    }
    return static_cast<std::size_t>(e.target_index) % stream_sites_.size();
  };
  auto kernel_index = [&](const FaultEvent& e) -> std::size_t {
    if (!e.target.empty()) {
      for (std::size_t i = 0; i < kernel_names_.size(); ++i) {
        if (kernel_names_[i] == e.target) return i;
      }
      return kernel_names_.size();
    }
    return static_cast<std::size_t>(e.target_index) % kernel_sites_.size();
  };

  for (const FaultEvent& e : plan_.events) {
    if (!e.matches(replica_, run)) continue;
    switch (e.kind) {
      case FaultKind::kStreamBitFlip: {
        if (stream_sites_.empty()) break;
        const std::size_t i = stream_index(e);
        if (i >= stream_sites_.size()) break;
        StreamFaultSite& s = stream_sites_[i];
        // Earliest trigger wins when several events arm one site.
        if (e.after_values < s.flip_at) {
          s.flip_at = e.after_values;
          s.flip_mask = e.xor_mask;
        }
        s.armed = true;
        break;
      }
      case FaultKind::kStreamStall: {
        if (stream_sites_.empty()) break;
        const std::size_t i = stream_index(e);
        if (i >= stream_sites_.size()) break;
        StreamFaultSite& s = stream_sites_[i];
        if (e.after_values < s.stall_at) {
          s.stall_at = e.after_values;
          s.stall_attempts = e.stall_attempts;
        }
        s.armed = true;
        break;
      }
      case FaultKind::kKernelHang: {
        if (kernel_sites_.empty()) break;
        const std::size_t i = kernel_index(e);
        if (i >= kernel_sites_.size()) break;
        KernelFaultSite& k = kernel_sites_[i];
        if (e.after_steps < k.hang_at) k.hang_at = e.after_steps;
        k.armed = true;
        break;
      }
      case FaultKind::kKernelException: {
        if (kernel_sites_.empty()) break;
        const std::size_t i = kernel_index(e);
        if (i >= kernel_sites_.size()) break;
        KernelFaultSite& k = kernel_sites_[i];
        if (e.after_steps < k.throw_at) k.throw_at = e.after_steps;
        k.armed = true;
        break;
      }
      case FaultKind::kReplicaCrash:
        crash_ = true;
        break;
      case FaultKind::kLinkOutage: {
        if (link_sites_.empty()) break;
        LinkFaultSite& l = link_sites_[static_cast<std::size_t>(e.link) %
                                       link_sites_.size()];
        if (e.after_values < l.outage_from) {
          l.outage_from = e.after_values;
          l.outage_us = e.outage_us;
        }
        l.armed = true;
        break;
      }
      case FaultKind::kLinkFrameCorrupt: {
        if (link_sites_.empty()) break;
        const std::size_t i =
            static_cast<std::size_t>(e.link) % link_sites_.size();
        LinkFaultSite& l = link_sites_[i];
        if (e.corrupt_per_million > l.corrupt_per_million) {
          l.corrupt_per_million = e.corrupt_per_million;
        }
        // Seed the in-transit corruption draw deterministically per
        // (link, run) so soaks replay bit-for-bit.
        l.rng = Rng(0x51ed270b9f8f51edULL * (i + 1) ^ run);
        l.armed = true;
        break;
      }
      case FaultKind::kLinkDeath: {
        if (link_sites_.empty()) break;
        LinkFaultSite& l = link_sites_[static_cast<std::size_t>(e.link) %
                                       link_sites_.size()];
        if (e.after_values < l.death_from) l.death_from = e.after_values;
        l.armed = true;
        break;
      }
    }
  }
  if (crash_) fired_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace qnn
