// Deterministic fault injection for the streaming engine.
//
// The paper's pipeline only works while every kernel keeps streaming: a
// single stalled FIFO or flipped bit on the MaxRing daisy chain (§III-C)
// silently corrupts or wedges the whole chain. This module makes those
// failure modes *first-class, reproducible inputs*: a FaultPlan is a
// seeded schedule of fault events, installed via EngineOptions::faults
// and executed by a per-engine FaultInjector, so every failure mode that
// production would meet as a flaky outage becomes a deterministic unit
// test (same seed => same fault sequence).
//
// Fault taxonomy (see DESIGN.md §7):
//   * kStreamBitFlip   — XOR a mask into the Nth value pushed through one
//                        FIFO, folded into the ring's element width so it
//                        always lands (silent data corruption;
//                        *undetectable* by the engine, only a
//                        checksum/golden compare sees it).
//   * kStreamStall     — a FIFO reports "full" for N producer attempts
//                        (backpressure glitch; detectable as latency).
//   * kKernelHang      — a kernel reports kBlocked forever (wedged
//                        datapath; detectable by a watchdog, unwedged by
//                        StreamEngine::cancel()).
//   * kKernelException — a kernel throws mid-run (fail-fast crash; the
//                        ErrorLatch aborts the whole run).
//   * kReplicaCrash    — StreamEngine::run() throws before streaming
//                        anything (board lost; per-run, so a range of
//                        runs models a dead replica).
//   * kLinkOutage      — live MaxRing link drops every frame for a
//                        wall-clock window (transient outage; healed by
//                        the link's retransmit loop).
//   * kLinkFrameCorrupt— live MaxRing frames corrupted in transit at a
//                        seeded per-million rate (caught by the frame
//                        checksum, healed by retransmission).
//   * kLinkDeath       — live MaxRing link drops every frame from the
//                        Nth transmission onward, permanently (board
//                        lost; the LinkedEngine escalates to a degraded
//                        plan failover).
//
// Targeting is deterministic without name plumbing: the engine registers
// its streams and kernels with the injector in construction order, so an
// event can name its target exactly (`target`) or pick a registration
// ordinal (`target_index`, taken modulo the site count so seeded chaos
// plans never miss). Events filter on the engine's replica identity
// (EngineOptions::fault_replica) and on a [first_run, last_run] window of
// the engine's run counter.
//
// The injection seams themselves live in the dataflow layer: Stream
// consults a StreamFaultSite in try_push_burst(), kernels consult a
// KernelFaultSite in step_checked(), and the engine consults the injector
// for crash-on-run. All sites are re-armed by begin_run() between runs —
// single-threaded, like Stream::reset() — and only the fired() counter is
// shared across threads.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace qnn {

/// Sentinel for "no run / no value index": larger than any real counter.
inline constexpr std::uint64_t kFaultNever =
    std::numeric_limits<std::uint64_t>::max();

enum class FaultKind {
  kStreamBitFlip,
  kStreamStall,
  kKernelHang,
  kKernelException,
  kReplicaCrash,
  kLinkOutage,        // live link: wall-clock outage window
  kLinkFrameCorrupt,  // live link: seeded in-transit frame corruption
  kLinkDeath,         // live link: permanent loss from the Nth frame
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault. Which fields matter depends on `kind`; the
/// FaultPlan builders below fill them consistently.
struct FaultEvent {
  FaultKind kind = FaultKind::kStreamBitFlip;

  /// Exact site name (stream or kernel); empty = use target_index.
  std::string target;
  /// Site ordinal in engine registration order, taken modulo the number
  /// of registered sites of the matching type; ignored when target is set.
  int target_index = 0;

  /// Replica filter: only engines with EngineOptions::fault_replica ==
  /// replica see the event; -1 matches every replica.
  int replica = -1;
  /// Run window (inclusive) of the engine's run counter.
  std::uint64_t first_run = 0;
  std::uint64_t last_run = 0;

  // --- stream faults ------------------------------------------------------
  /// Value index (per run, per stream) the fault triggers at.
  std::uint64_t after_values = 0;
  /// kStreamBitFlip: XOR mask applied to the targeted value (bits past
  /// the ring's element width fold into it: StreamFaultSite::filter).
  std::int32_t xor_mask = 1;
  /// kStreamStall: producer push attempts that report "full".
  std::uint64_t stall_attempts = 4096;

  // --- kernel faults ------------------------------------------------------
  /// Step index (per run, per kernel) the fault triggers at.
  std::uint64_t after_steps = 0;

  // --- live MaxRing link faults (dataflow/link.h) -------------------------
  /// The LinkedEngine's physical link ordinal, in cut order.
  int link = 0;
  /// kLinkFrameCorrupt: in-transit corruption rate per million frames.
  std::uint32_t corrupt_per_million = 0;
  /// kLinkOutage: wall-clock outage length. The window opens at the
  /// transmission ordinal `after_values` (live links count frames, not
  /// stream values) and closes after outage_us microseconds; kLinkDeath
  /// reuses `after_values` as the first dropped frame.
  std::int64_t outage_us = 0;

  [[nodiscard]] bool matches(int engine_replica, std::uint64_t run) const {
    return (replica < 0 || replica == engine_replica) && run >= first_run &&
           run <= last_run;
  }
};

/// A deterministic schedule of fault events. Hand-build one with the
/// factory helpers for targeted regression tests, or draw a random plan
/// from a seed with chaos() for soak tests.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  // ---- builders (target by name or ordinal via the returned event) -------
  static FaultEvent bit_flip(std::string stream, std::uint64_t run,
                             std::uint64_t value_index,
                             std::int32_t mask = 1);
  static FaultEvent stall(std::string stream, std::uint64_t run,
                          std::uint64_t value_index,
                          std::uint64_t attempts);
  static FaultEvent kernel_hang(std::string kernel, std::uint64_t run,
                                std::uint64_t step = 0);
  static FaultEvent kernel_throw(std::string kernel, std::uint64_t run,
                                 std::uint64_t step = 0);
  static FaultEvent replica_crash(int replica, std::uint64_t first_run,
                                  std::uint64_t last_run);
  static FaultEvent link_outage(int link, std::uint64_t run,
                                std::uint64_t after_frames,
                                std::int64_t outage_us);
  static FaultEvent link_frame_corrupt(int link, std::uint32_t per_million,
                                       std::uint64_t first_run = 0,
                                       std::uint64_t last_run = kFaultNever);
  static FaultEvent link_death(int link, std::uint64_t run,
                               std::uint64_t after_frames,
                               std::uint64_t last_run = kFaultNever);

  FaultPlan& add(FaultEvent e) {
    events.push_back(std::move(e));
    return *this;
  }

  struct ChaosOptions {
    /// Replicas the drawn events may target (uniform).
    int replicas = 1;
    /// Events land in runs [0, runs).
    std::uint64_t runs = 16;
    /// Number of events to draw.
    int events = 4;
    /// Also draw the live MaxRing link kinds (outage window / seeded frame
    /// corruption / permanent death) against links [0, links). Off by
    /// default: existing soaks run unpartitioned engines with no link
    /// sites, and link faults only make sense on the LinkedEngine path.
    /// All three stay *detectable* (checksums + watchdog), so bit-exact
    /// assertions still hold when this is on.
    bool include_link_faults = false;
    /// Link ordinals the link-fault draws may target (uniform).
    int links = 1;
  };

  /// Seeded random plan over the detectable fault kinds (never
  /// kStreamBitFlip: a silent flip would break the bit-exact assertions
  /// soaks make on every run that completed): same seed (and options) =>
  /// the identical event list, bit for bit.
  static FaultPlan chaos(std::uint64_t seed, const ChaosOptions& opts);
  static FaultPlan chaos(std::uint64_t seed) { return chaos(seed, {}); }
};

/// Per-stream injection state, armed by FaultInjector::begin_run and
/// consulted by Stream::try_push_burst on the producer thread only.
struct StreamFaultSite {
  // Armed per run (single-threaded, between runs).
  std::uint64_t flip_at = kFaultNever;
  std::int32_t flip_mask = 0;
  std::uint64_t stall_at = kFaultNever;
  std::uint64_t stall_attempts = 0;
  bool armed = false;

  // Live counters (producer thread only during a run).
  std::uint64_t values = 0;
  std::uint64_t stalls_left = 0;

  std::atomic<std::uint64_t>* fired = nullptr;  // injector-wide counter

  /// Producer gate: true = pretend the ring is full for this attempt.
  [[nodiscard]] bool blocked() {
    if (stalls_left > 0) {
      --stalls_left;
      return true;
    }
    if (values >= stall_at) {
      stall_at = kFaultNever;
      stalls_left = stall_attempts;
      fired->fetch_add(1, std::memory_order_relaxed);
      if (stalls_left > 0) {
        --stalls_left;
        return true;
      }
    }
    return false;
  }

  /// Filter one value entering a ring whose storage element is `width`
  /// bits wide (counts it; may corrupt it). The flip always lands inside
  /// the element, so a fired fault always changes the value the consumer
  /// pops: the mask's bits below `width`, or, when it has none there, its
  /// lowest bit taken modulo `width`.
  [[nodiscard]] std::int32_t filter(std::int32_t v, int width) {
    if (values == flip_at) {
      v ^= flip_within(flip_mask, width);
      fired->fetch_add(1, std::memory_order_relaxed);
    }
    ++values;
    return v;
  }

  /// The flip `mask` makes in a `width`-bit element (see filter()).
  [[nodiscard]] static std::int32_t flip_within(std::int32_t mask,
                                                int width) {
    if (width >= 32 || mask == 0) return mask;
    const auto m = static_cast<std::uint32_t>(mask);
    const std::uint32_t inside = m & ((1U << width) - 1U);
    return static_cast<std::int32_t>(
        inside != 0 ? inside : 1U << (std::countr_zero(m) % width));
  }
};

/// Per-kernel injection state, armed by FaultInjector::begin_run and
/// consulted by Kernel::step_checked on the stepping thread only.
struct KernelFaultSite {
  std::uint64_t throw_at = kFaultNever;
  std::uint64_t hang_at = kFaultNever;
  bool armed = false;

  std::uint64_t steps = 0;
  bool hung = false;

  std::atomic<std::uint64_t>* fired = nullptr;
  std::string name;  // for the thrown error message

  /// Gate before a kernel step: true = report kBlocked (hang); throws for
  /// an armed exception fault.
  [[nodiscard]] bool check() {
    if (!armed) return false;
    if (hung) return true;
    const std::uint64_t s = steps++;
    if (s >= hang_at) {
      hung = true;
      fired->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (s >= throw_at) {
      throw_at = kFaultNever;
      fired->fetch_add(1, std::memory_order_relaxed);
      throw Error("injected fault: kernel '" + name + "' exception");
    }
    return false;
  }
};

/// Per-link injection state, armed by FaultInjector::begin_run and
/// consulted by MaxRingLink once per transmission attempt, on the sender
/// thread only (retransmissions count as fresh transmissions, so an
/// outage window keeps eating retries until the wall clock passes it).
struct LinkFaultSite {
  // Armed per run (single-threaded, between runs).
  std::uint64_t outage_from = kFaultNever;  // frame ordinal opening window
  std::int64_t outage_us = 0;               // wall-clock window length
  std::uint64_t death_from = kFaultNever;   // frame ordinal; sticky forever
  std::uint32_t corrupt_per_million = 0;
  bool armed = false;

  // Live state (sender thread only during a run).
  std::uint64_t frames = 0;  // transmissions seen, retransmits included
  bool outage_open = false;
  bool outage_fired = false;
  bool death_fired = false;
  std::chrono::steady_clock::time_point outage_until{};
  Rng rng{0};

  std::atomic<std::uint64_t>* fired = nullptr;  // injector-wide counter

  /// What happens to the frame this transmission attempt carries.
  enum class Fate { kDeliver, kCorrupt, kDropOutage, kDropDead };

  [[nodiscard]] Fate filter(std::chrono::steady_clock::time_point now) {
    if (!armed) return Fate::kDeliver;
    const std::uint64_t f = frames++;
    if (f >= death_from) {
      if (!death_fired) {
        death_fired = true;
        note_fired();
      }
      return Fate::kDropDead;
    }
    if (f >= outage_from && !outage_fired) {
      outage_fired = true;
      outage_open = true;
      outage_until = now + std::chrono::microseconds(outage_us);
      note_fired();
    }
    if (outage_open) {
      if (now < outage_until) return Fate::kDropOutage;
      outage_open = false;
    }
    if (corrupt_per_million > 0 &&
        rng.next_below(1'000'000) < corrupt_per_million) {
      note_fired();
      return Fate::kCorrupt;
    }
    return Fate::kDeliver;
  }

 private:
  /// Standalone sites (link unit tests) have no injector-wide counter.
  void note_fired() {
    if (fired != nullptr) fired->fetch_add(1, std::memory_order_relaxed);
  }
};

/// Owns the fault sites of one engine and arms them per run from the
/// plan (a LinkedEngine's injector also holds its link sites and outlives
/// the graphs failover rebuilds). Construction and begin_run() are
/// single-threaded (the engine's caller thread); during a run only the
/// sites themselves are touched.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int replica);

  /// Register sites in deterministic engine-construction order. The
  /// returned pointers stay valid for the injector's lifetime.
  StreamFaultSite* register_stream(const std::string& name);
  KernelFaultSite* register_kernel(const std::string& name);
  LinkFaultSite* register_link(const std::string& name);

  /// Forget every stream and kernel site so a rebuilt graph can register
  /// its own in construction order. Link sites (physical MaxRing links)
  /// and the run counter persist; the new sites arm from the next
  /// begin_run(). The old graph must not touch its sites again.
  void clear_graph_sites();

  /// Arm every site for the next run (advances the run counter).
  void begin_run();

  /// True when a kReplicaCrash event matched the run begin_run just armed.
  [[nodiscard]] bool crash_now() const { return crash_; }

  /// Runs begun so far (the run index begin_run armed, plus one).
  [[nodiscard]] std::uint64_t runs_begun() const { return run_; }

  /// Total fault events that actually fired (across all runs).
  [[nodiscard]] std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  int replica_;
  std::uint64_t run_ = 0;
  bool crash_ = false;
  std::atomic<std::uint64_t> fired_{0};
  // deques: stable addresses across registration.
  std::deque<StreamFaultSite> stream_sites_;
  std::deque<KernelFaultSite> kernel_sites_;
  std::deque<LinkFaultSite> link_sites_;
  std::vector<std::string> stream_names_;
  std::vector<std::string> kernel_names_;
  std::vector<std::string> link_names_;
};

}  // namespace qnn
