// In-process MaxRing link: reliable framed transport across one partition
// cut of a streaming pipeline (paper §III-C), and the LinkPump task that
// carries a cut edge of the dataflow graph over it.
//
// The link carries the burst frames the compile-time plan priced: a frame
// is `frame_values` stream values plus a sequence number and a word-wise
// FNV-style checksum, and every transmission is paced by the partitioner's
// `link_bits_per_cycle` arithmetic (a frame of v values of b bits
// occupies ceil(v*b / w) link words at the fabric clock), so the live
// wire and the simulated/priced wire agree on transaction granularity
// and rate.
//
// Reliability is stop-and-wait with a sender-side watchdog:
//
//   transmit ──> arrival ack? ──(ack)──> done
//        ^            │
//        │       (nack / ack timeout)
//        │            v
//        └── jittered exponential backoff, bounded retransmits
//                     │
//              (budget exhausted)
//                     v
//        escalate: link marked dead, LinkDeadError thrown
//
// Acks happen at ARRIVAL into the link-layer delivery queue (checksum
// verified there too), not when the consumer drains the frame: ack health
// reflects the wire alone. Consumer backpressure is the dataflow graph's
// business — the pump holds a delivered frame across a full ingress ring
// like any kernel holds staged output. Corrupted frames are detected by
// the arrival checksum and nacked; dropped frames (outage windows,
// permanent death — injected via a LinkFaultSite from fault/fault.h)
// surface as ack timeouts. A healthy link never loses or reorders data:
// delivery is exactly-once, in order. Escalation is the failover trigger
// the LinkedEngine uses to recompile a degraded plan.
//
// Threading: a link is driven by exactly one task (its LinkPump), which
// sends a frame and then receives it; the executor serializes the task's
// steps, so the link needs no lock. On a healthy wire send() never waits
// on anything but the pacing clock; only a lost or corrupted frame makes
// it wait out an ack timeout and a backoff, both bounded and both cut
// short by the cancel flag.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "dataflow/kernels.h"
#include "fault/fault.h"

namespace qnn {

/// Link words one frame occupies on the wire — the exact rounding
/// CrossingStream::wire_mbps prices (ceil(values*bits / w) whole words).
[[nodiscard]] constexpr std::uint64_t link_frame_cycles(
    std::uint64_t values, int bits, int link_bits_per_cycle) {
  if (values == 0 || bits <= 0 || link_bits_per_cycle <= 0) return 1;
  const auto w = static_cast<std::uint64_t>(link_bits_per_cycle);
  return (values * static_cast<std::uint64_t>(bits) + w - 1) / w;
}

/// Frame checksum, a word at a time: payload word i goes into FNV-style
/// lane i mod 4 (h -> (h ^ word) * P, four independent multiply chains),
/// then the sequence number, the word count and the four lanes are folded
/// in by the same step. Each step is a bijection in its state and in its
/// input, so changing any single word (any one-bit flip included), the
/// sequence number or the length always changes the checksum.
[[nodiscard]] std::uint64_t link_frame_checksum(
    std::uint64_t seq, std::span<const std::int32_t> payload);

/// Thrown by send() once the link has escalated to dead. Catching this —
/// as opposed to a generic Error — is how the LinkedEngine distinguishes
/// "fail over" from "fail".
class LinkDeadError : public Error {
 public:
  explicit LinkDeadError(const std::string& what) : Error(what) {}
};

struct LinkConfig {
  std::string name = "link";
  /// Element width of the carried stream (the boundary node's out_bits);
  /// only used for wire pricing — payload words travel as int32 in
  /// process, exactly like Stream's backing store.
  int bits = 32;
  /// MaxRing word width per fabric cycle; 38 bits at 105 MHz is the
  /// paper's 4 Gbps link. Matches PartitionConfig::link_bits_per_cycle.
  int link_bits_per_cycle = 38;
  double clock_hz = 105e6;
  /// Throttle transmissions to the modeled wire rate so live behaviour
  /// matches the D401 pricing. Off = in-process memcpy speed.
  bool pace = true;
  /// Sender watchdog: how long one transmission may wait for its
  /// arrival ack before it counts as lost. Acks are immediate on a
  /// healthy wire (arrival-acked), so this bounds wire loss only.
  std::int64_t ack_timeout_us = 20000;
  /// Retransmissions before the watchdog escalates to link death.
  int max_retransmits = 8;
  /// Base backoff between retransmissions; doubles per attempt, jittered
  /// +-50% from `backoff_seed` so parallel links do not retry in lockstep.
  std::int64_t retransmit_backoff_us = 200;
  std::uint64_t backoff_seed = 1;
};

struct LinkStats {
  std::uint64_t frames_sent = 0;      // distinct frames accepted by send()
  std::uint64_t transmissions = 0;    // including retransmissions
  std::uint64_t frames_delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t checksum_drops = 0;   // receiver rejected a corrupt frame
  std::uint64_t outage_drops = 0;     // wire ate the frame (fault site)
  std::uint64_t timeouts = 0;         // ack waits that expired
  std::uint64_t wire_cycles = 0;      // modeled link words shipped
  bool dead = false;
};

class MaxRingLink {
 public:
  explicit MaxRingLink(LinkConfig config);

  MaxRingLink(const MaxRingLink&) = delete;
  MaxRingLink& operator=(const MaxRingLink&) = delete;

  /// Attach the fault seam (may be nullptr), consulted once per
  /// transmission attempt.
  void set_fault(LinkFaultSite* site) { fault_ = site; }
  /// Flag polled by the bounded retransmit waits (may be nullptr): once
  /// raised, send() throws Error instead of waiting out its budget.
  void set_cancel(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// Return to the freshly constructed state: sequence 0, zeroed stats,
  /// healthy, pacing clock restarted now.
  void reset();

  /// Reliably deliver one frame. The payload's storage travels with the
  /// frame (no copy); `payload` comes back holding a recycled buffer with
  /// unspecified contents. Returns once the frame is acked at arrival;
  /// throws LinkDeadError once the retransmit budget is exhausted, or
  /// Error when the cancel flag rose during a retransmit wait.
  void send(std::vector<std::int32_t>& payload);

  /// Take the oldest delivered frame into `out` without waiting (its old
  /// storage is recycled for a later send). False when none is queued.
  [[nodiscard]] bool recv(std::vector<std::int32_t>& out);

  [[nodiscard]] bool dead() const { return stats_.dead; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }

 private:
  struct WireFrame {
    std::uint64_t seq = 0;
    std::uint64_t checksum = 0;
    std::vector<std::int32_t> payload;
  };

  /// One transmission attempt: price the wire cycles, pass the frame
  /// through the fault seam, and — when it arrives — verify the checksum
  /// and ack (moving the payload into the delivery queue) or nack.
  /// Returns true when the frame was delivered.
  bool transmit(WireFrame& frame, bool& nacked);
  /// Sleep until `until`, throwing Error as soon as the cancel flag rises.
  void wait_until(std::chrono::steady_clock::time_point until) const;
  [[noreturn]] void escalate(const std::string& reason);

  LinkConfig config_;
  LinkFaultSite* fault_ = nullptr;
  const std::atomic<bool>* cancel_ = nullptr;

  std::deque<WireFrame> delivered_;
  std::vector<std::int32_t> spare_;  // recycled payload storage
  std::uint64_t next_seq_ = 0;
  LinkStats stats_;
  std::string dead_reason_;
  Rng backoff_rng_;
  std::chrono::steady_clock::time_point wire_epoch_;
};

/// One partition cut a StreamEngine reroutes over a MaxRing link: the
/// edge out of node `after_node` leaves through a LinkPump in frames of
/// `frame_values` values. Built by the LinkedEngine.
struct LinkCut {
  int after_node = -1;
  std::size_t frame_values = 256;
  LinkConfig config;
  LinkFaultSite* fault = nullptr;
};

/// The task that carries a cut edge across its MaxRing link: pops the
/// boundary ring into frames of `frame_values` (an image's last frame
/// takes its tail, so frames never straddle images), sends each over the
/// link, receives the frame it just delivered and pushes it through its
/// output port into the ingress rings across the cut, holding it across
/// kBlocked while a ring is full. A cut right before a BnAct ships the
/// raw values; the port writes that BnAct's codes. On a healthy link a
/// step never waits on another task.
class LinkPump final : public Kernel {
 public:
  LinkPump(const LinkCut& cut, std::size_t image_values, Stream& in,
           PortRings out, const std::atomic<bool>& cancel);
  StepResult step() override;
  void reset() override;
  void bind_ready(ReadyHook* hook, int task) override;

  [[nodiscard]] const LinkStats& stats() const { return link_.stats(); }

 private:
  MaxRingLink link_;
  Stream& in_;
  OutStage out_;
  std::size_t frame_values_;
  std::size_t image_values_;
  std::vector<std::int32_t> frame_;      // frame being filled
  std::size_t fill_ = 0;
  std::size_t image_pos_ = 0;            // values of this image framed
  std::vector<std::int32_t> delivered_;  // frame being pushed out
  StarveEpisode in_starve_;
};

}  // namespace qnn
