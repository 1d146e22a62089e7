#include "dataflow/link.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace qnn {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::uint64_t link_frame_checksum(std::uint64_t seq,
                                  std::span<const std::int32_t> payload) {
  // Every step h -> (h ^ x) * P (P odd) is a bijection in h and in x, so a
  // change to any one word changes its lane's final state, and the chain
  // of such steps that folds the lanes, `seq` and the length changes with
  // it.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::size_t kLanes = 4;  // independent multiply chains
  std::uint64_t lane[kLanes] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  const std::size_t n = payload.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = (lane[l] ^ static_cast<std::uint32_t>(payload[i + l])) *
                kPrime;
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lane[l] = (lane[l] ^ static_cast<std::uint32_t>(payload[i])) * kPrime;
  }
  std::uint64_t h = (kBasis ^ seq) * kPrime;
  h = (h ^ static_cast<std::uint64_t>(n)) * kPrime;
  for (const std::uint64_t v : lane) h = (h ^ v) * kPrime;
  return h;
}

// ---------------------------------------------------------------- MaxRingLink

MaxRingLink::MaxRingLink(LinkConfig config)
    : config_(std::move(config)),
      backoff_rng_(config_.backoff_seed),
      wire_epoch_(Clock::now()) {
  QNN_CHECK(config_.max_retransmits >= 0,
            "MaxRingLink: max_retransmits must be >= 0");
  QNN_CHECK(config_.ack_timeout_us > 0,
            "MaxRingLink: ack_timeout_us must be > 0");
}

void MaxRingLink::reset() {
  delivered_.clear();
  next_seq_ = 0;
  stats_ = LinkStats{};
  dead_reason_.clear();
  backoff_rng_ = Rng(config_.backoff_seed);
  wire_epoch_ = Clock::now();
}

void MaxRingLink::wait_until(Clock::time_point until) const {
  for (;;) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      throw Error("MaxRing link '" + config_.name + "' cancelled");
    }
    const auto now = Clock::now();
    if (now >= until) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(until - now, std::chrono::milliseconds(1)));
  }
}

void MaxRingLink::escalate(const std::string& reason) {
  stats_.dead = true;
  dead_reason_ = reason;
  throw LinkDeadError("MaxRing link '" + config_.name +
                      "' escalated: " + reason);
}

bool MaxRingLink::transmit(WireFrame& frame, bool& nacked) {
  ++stats_.transmissions;
  // Every attempt occupies the wire whether or not it arrives — a frame
  // eaten by an outage still burned its cycles.
  stats_.wire_cycles += link_frame_cycles(
      std::max<std::uint64_t>(frame.payload.size(), 1), config_.bits,
      config_.link_bits_per_cycle);
  const LinkFaultSite::Fate fate =
      fault_ != nullptr ? fault_->filter(Clock::now())
                        : LinkFaultSite::Fate::kDeliver;
  switch (fate) {
    case LinkFaultSite::Fate::kDropDead:
    case LinkFaultSite::Fate::kDropOutage:
      ++stats_.outage_drops;
      return false;  // the wire ate it; the ack watchdog will notice
    case LinkFaultSite::Fate::kCorrupt: {
      // The receiver sees a damaged copy; the sender keeps the original
      // for the retransmission.
      std::vector<std::int32_t> arrived = frame.payload;
      std::uint64_t checksum = frame.checksum;
      if (arrived.empty()) {
        checksum ^= 1;
      } else {
        arrived[arrived.size() / 2] ^= 1;
      }
      if (checksum != link_frame_checksum(frame.seq, arrived)) {
        ++stats_.checksum_drops;
        nacked = true;  // immediate retransmit instead of an ack timeout
        return false;
      }
      break;  // undetected damage is impossible for a one-bit flip
    }
    case LinkFaultSite::Fate::kDeliver:
      // Arrival at the receiving link layer: verify before acking.
      if (frame.checksum != link_frame_checksum(frame.seq, frame.payload)) {
        ++stats_.checksum_drops;
        nacked = true;
        return false;
      }
      break;
  }
  // Acked at arrival: no retransmission can follow, so the sender's copy
  // moves into the delivery queue instead of being duplicated.
  ++stats_.frames_delivered;
  delivered_.push_back(std::move(frame));
  return true;
}

void MaxRingLink::send(std::vector<std::int32_t>& payload) {
  if (stats_.dead) {
    throw LinkDeadError("MaxRing link '" + config_.name +
                        "' is dead: " + dead_reason_);
  }
  WireFrame frame;
  frame.seq = next_seq_++;
  frame.payload.swap(payload);
  payload.swap(spare_);
  frame.checksum = link_frame_checksum(frame.seq, frame.payload);
  ++stats_.frames_sent;
  std::int64_t backoff_us = config_.retransmit_backoff_us;
  for (int attempt = 0;; ++attempt) {
    bool nacked = false;
    const bool delivered = transmit(frame, nacked);
    if (config_.pace && config_.clock_hz > 0) {
      // Sleep off any lead the wire model has over the wall clock, so a
      // fast in-process copy cannot outrun the priced 4 Gbps link.
      const auto wire_ns = static_cast<std::int64_t>(
          1e9 * static_cast<double>(stats_.wire_cycles) / config_.clock_hz);
      const auto target = wire_epoch_ + std::chrono::nanoseconds(wire_ns);
      if (target > Clock::now() + std::chrono::microseconds(100)) {
        wait_until(target);
      }
    }
    if (delivered) return;
    if (!nacked) {
      // Lost on the wire: no ack will come, so the watchdog runs out.
      wait_until(Clock::now() +
                 std::chrono::microseconds(config_.ack_timeout_us));
      ++stats_.timeouts;
    }
    if (attempt == config_.max_retransmits) break;
    ++stats_.retransmits;
    // Jittered exponential backoff: uniform in [b/2, 3b/2] so parallel
    // senders recovering from the same outage do not retry in lockstep.
    const std::int64_t jittered =
        backoff_us / 2 +
        static_cast<std::int64_t>(backoff_rng_.next_below(
            static_cast<std::uint64_t>(std::max<std::int64_t>(backoff_us, 1)) +
            1));
    backoff_us = std::min<std::int64_t>(backoff_us * 2, 100000);
    wait_until(Clock::now() + std::chrono::microseconds(jittered));
  }
  // Escalation: the watchdog exhausted its budget.
  escalate("no ack for frame " + std::to_string(frame.seq) + " after " +
           std::to_string(config_.max_retransmits) + " retransmits");
}

bool MaxRingLink::recv(std::vector<std::int32_t>& out) {
  if (delivered_.empty()) return false;
  // Frames in the queue were checksum-verified and acked at arrival.
  out.swap(delivered_.front().payload);
  spare_ = std::move(delivered_.front().payload);
  delivered_.pop_front();
  return true;
}

// ------------------------------------------------------------------- LinkPump

LinkPump::LinkPump(const LinkCut& cut, std::size_t image_values, Stream& in,
                   PortRings out, const std::atomic<bool>& cancel)
    : Kernel(cut.config.name),
      link_(cut.config),
      in_(in),
      out_(std::move(out)),
      frame_values_(std::max<std::size_t>(cut.frame_values, 1)),
      image_values_(image_values) {
  QNN_CHECK(image_values_ > 0, name() + ": empty boundary tensor");
  link_.set_fault(cut.fault);
  link_.set_cancel(&cancel);
}

void LinkPump::reset() {
  link_.reset();
  fill_ = 0;
  image_pos_ = 0;
  delivered_.clear();
  out_.clear();
  in_starve_ = {};
}

void LinkPump::bind_ready(ReadyHook* hook, int task) {
  in_.bind_consumer(hook, task);
  out_.bind(hook, task);
}

StepResult LinkPump::step() {
  bool progressed = false;
  for (;;) {
    // The delivered frame goes out straight from its link buffer.
    if (!out_.flush(delivered_)) {
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    delivered_.clear();
    // Frames never straddle images: an image's last frame carries its
    // tail, so each link ships ceil(image / frame) frames per image.
    const std::size_t want =
        std::min(frame_values_, image_values_ - image_pos_);
    if (fill_ == 0) frame_.resize(want);
    const std::size_t n = in_.try_pop_burst(
        std::span<std::int32_t>(frame_).subspan(fill_, want - fill_));
    if (n == 0) {
      if (in_.drained()) {
        QNN_CHECK(fill_ == 0 && image_pos_ == 0,
                  name() + ": boundary stream closed mid-image");
        out_.close();
        return StepResult::kDone;
      }
      in_starve_.starved(in_);
      return progressed ? StepResult::kProgress : StepResult::kBlocked;
    }
    in_starve_.fed();
    progressed = true;
    fill_ += n;
    if (fill_ < want) continue;
    link_.send(frame_);
    QNN_CHECK(link_.recv(delivered_),
              name() + ": acked frame missing from the delivery queue");
    fill_ = 0;
    image_pos_ += want;
    if (image_pos_ == image_values_) image_pos_ = 0;
  }
}

}  // namespace qnn
