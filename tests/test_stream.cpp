#include "dataflow/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <vector>

namespace qnn {
namespace {

/// Scalar transfers: the degenerate burst of one.
bool try_push(Stream& s, std::int32_t v) {
  return s.try_push_burst({&v, 1}) == 1;
}
bool try_pop(Stream& s, std::int32_t& v) {
  return s.try_pop_burst({&v, 1}) == 1;
}

TEST(Stream, FifoOrderSingleThread) {
  Stream s(16, 8, "t");
  for (std::int32_t i = 0; i < 10; ++i) ASSERT_TRUE(try_push(s, i));
  s.close();
  std::int32_t v;
  for (std::int32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(try_pop(s, v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(try_pop(s, v));
  EXPECT_TRUE(s.drained());
}

TEST(Stream, CloseWithPendingValuesDrains) {
  Stream s(8, 8, "t");
  ASSERT_TRUE(try_push(s, 1));
  ASSERT_TRUE(try_push(s, 2));
  s.close();
  std::int32_t v;
  EXPECT_FALSE(s.drained());  // closed, but values are still pending
  EXPECT_TRUE(try_pop(s, v));
  EXPECT_TRUE(try_pop(s, v));
  EXPECT_FALSE(try_pop(s, v));
  EXPECT_TRUE(s.drained());
  EXPECT_FALSE(try_pop(s, v));  // stays closed
}

// Producer and consumer spin on the non-blocking API from two threads; run
// under -DQNN_SANITIZE=thread this races the ring's acquire/release pairs.
TEST(Stream, ProducerConsumerLargeVolume) {
  Stream s(64, 16, "pc");
  const std::int64_t n = 200000;
  std::int64_t consumer_sum = 0;
  std::thread consumer([&] {
    std::int32_t v;
    std::int32_t expect = 0;
    for (;;) {
      if (try_pop(s, v)) {
        ASSERT_EQ(v, expect++);  // order preserved under contention
        consumer_sum += v;
      } else if (s.drained()) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::int32_t i = 0; i < n; ++i) {
    while (!try_push(s, i)) std::this_thread::yield();
  }
  s.close();
  consumer.join();
  EXPECT_EQ(consumer_sum, n * (n - 1) / 2);
  EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(n));
}

TEST(Stream, MetadataAccessors) {
  Stream s(10, 16, "meta");
  EXPECT_EQ(s.bits(), 16);
  EXPECT_EQ(s.name(), "meta");
  EXPECT_FALSE(s.closed());
  s.close();
  EXPECT_TRUE(s.closed());
}

TEST(Stream, RejectsBadConfig) {
  EXPECT_THROW(Stream(0, 8, "x"), Error);
  EXPECT_THROW(Stream(4, 0, "x"), Error);
  EXPECT_THROW(Stream(4, 64, "x"), Error);
}

TEST(Stream, ResetReArmsAfterAbandonedRun) {
  // Regression: reset() used to QNN_CHECK(head_ == tail_), so a stream
  // holding values from an aborted run poisoned the engine permanently.
  Stream s(8, 8, "reset");
  ASSERT_TRUE(try_push(s, 1));
  ASSERT_TRUE(try_push(s, 2));
  s.close();
  s.reset();
  EXPECT_FALSE(s.closed());
  EXPECT_EQ(s.pushed(), 0u);
  EXPECT_EQ(s.transactions(), 0u);
  EXPECT_EQ(s.push_stalls(), 0u);
  ASSERT_TRUE(try_push(s, 7));
  s.close();
  std::int32_t v = 0;
  EXPECT_TRUE(try_pop(s, v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(try_pop(s, v));
}

TEST(StreamBurst, BurstRoundTripKeepsOrder) {
  Stream s(64, 8, "burst");
  std::vector<std::int32_t> in(40);
  std::iota(in.begin(), in.end(), 100);
  ASSERT_EQ(s.try_push_burst(in), in.size());
  s.close();
  std::vector<std::int32_t> out(64);
  const std::size_t n = s.try_pop_burst(out);
  EXPECT_EQ(n, in.size());
  EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
  EXPECT_EQ(s.try_pop_burst(out), 0u);
  EXPECT_TRUE(s.drained());
}

TEST(StreamBurst, TransactionsCountRingTransfersNotValues) {
  Stream s(64, 8, "tx");
  std::vector<std::int32_t> vs(10);
  std::iota(vs.begin(), vs.end(), 0);
  ASSERT_EQ(s.try_push_burst(vs), 10u);  // fits: one ring transaction
  EXPECT_EQ(s.pushed(), 10u);
  EXPECT_EQ(s.transactions(), 1u);
  ASSERT_TRUE(try_push(s, 42));  // scalar = degenerate burst of one
  EXPECT_EQ(s.pushed(), 11u);
  EXPECT_EQ(s.transactions(), 2u);
}

TEST(StreamBurst, TryPushRespectsCapacityAndReportsPartial) {
  Stream s(8, 8, "cap");
  std::vector<std::int32_t> vs(12);
  std::iota(vs.begin(), vs.end(), 0);
  EXPECT_EQ(s.try_push_burst(vs), 8u);  // capacity honored exactly
  EXPECT_EQ(s.try_push_burst(std::span<const std::int32_t>(vs).subspan(8)),
            0u);
  std::vector<std::int32_t> out(3);
  EXPECT_EQ(s.try_pop_burst(out), 3u);
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(s.try_push_burst(std::span<const std::int32_t>(vs).subspan(8)),
            3u);  // freed space, wrap-around segment
}

// Property test: any interleaving of scalar and burst push/pop of random
// sizes is FIFO across capacities, including tiny rings that wrap
// thousands of times.
TEST(StreamBurst, InterleavedScalarAndBurstPreserveFifoOrder) {
  std::mt19937 rng(0xB0057u);
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 8u, 17u, 64u}) {
    Stream s(cap, 8, "prop");
    const std::int32_t total = 4000;
    std::int32_t next_in = 0;   // next value to produce
    std::int32_t next_out = 0;  // next value expected by the consumer
    std::vector<std::int32_t> chunk;
    std::vector<std::int32_t> out(2 * cap + 8);
    while (next_out < total) {
      const std::size_t used = static_cast<std::size_t>(next_in - next_out);
      // Producer action: scalar push when there is room, else a burst of
      // random size (possibly exceeding free space — partial transfer).
      if (next_in < total) {
        if (rng() % 3 == 0 && used < cap) {
          ASSERT_TRUE(try_push(s, next_in++));
        } else {
          chunk.clear();
          const std::size_t want = rng() % 7;
          for (std::size_t i = 0;
               i < want && next_in + static_cast<std::int32_t>(i) < total;
               ++i) {
            chunk.push_back(next_in + static_cast<std::int32_t>(i));
          }
          next_in +=
              static_cast<std::int32_t>(s.try_push_burst(chunk));
        }
      }
      // Consumer action: scalar pop when a value is ready, else a burst.
      if (rng() % 3 == 0 && next_in > next_out) {
        std::int32_t v = -1;
        ASSERT_TRUE(try_pop(s, v));
        ASSERT_EQ(v, next_out++) << "cap " << cap;
      } else {
        const std::size_t want = rng() % (out.size() - 1) + 1;
        const std::size_t n =
            s.try_pop_burst(std::span<std::int32_t>(out).first(want));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], next_out++) << "cap " << cap;
        }
      }
    }
    EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(total));
    EXPECT_LE(s.transactions(), s.pushed());
  }
}

// Two-thread stress: producer and consumer move bursts of varying size
// through a small ring concurrently, spinning on partial transfers. Run
// under -DQNN_SANITIZE=thread this validates the acquire/release pairing of
// the burst fast path.
TEST(StreamBurst, TwoThreadBurstStressKeepsSequence) {
  Stream s(37, 16, "stress");
  const std::int32_t total = 200000;
  std::thread consumer([&] {
    std::vector<std::int32_t> buf(61);
    std::int32_t expect = 0;
    std::size_t want = 1;
    for (;;) {
      const std::size_t n =
          s.try_pop_burst(std::span<std::int32_t>(buf).first(want));
      if (n == 0) {
        if (s.drained()) break;
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[i], expect++);
      }
      want = want % buf.size() + 1;
    }
    EXPECT_EQ(expect, total);
  });
  std::vector<std::int32_t> vs(total);
  std::iota(vs.begin(), vs.end(), 0);
  std::span<const std::int32_t> rest(vs);
  std::size_t len = 1;
  while (!rest.empty()) {
    const std::size_t n =
        s.try_push_burst(rest.first(std::min(len, rest.size())));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    rest = rest.subspan(n);
    len = len % 97 + 1;
  }
  s.close();
  consumer.join();
  EXPECT_EQ(s.pushed(), static_cast<std::uint64_t>(total));
  EXPECT_LT(s.transactions(), s.pushed());  // bursts actually coalesced
}

// Satellite regression: reset() must return the *counters* to the
// freshly constructed state too, so RunStats of a rerun after cancel()
// never report the aborted run's traffic.
TEST(Stream, ResetClearsTrafficAndStallCounters) {
  Stream s(4, 8, "counters");
  std::int32_t buf[4] = {};
  const std::int32_t vs[] = {1, 2, 3};
  ASSERT_EQ(s.try_push_burst(vs), 3u);
  ASSERT_EQ(s.try_pop_burst({buf, 2}), 2u);
  s.note_push_stall();
  s.note_pop_stall();
  ASSERT_GT(s.pushed(), 0u);
  ASSERT_GT(s.transactions(), 0u);

  s.reset();
  EXPECT_EQ(s.pushed(), 0u);
  EXPECT_EQ(s.transactions(), 0u);
  EXPECT_EQ(s.push_stalls(), 0u);
  EXPECT_EQ(s.pop_stalls(), 0u);
  EXPECT_FALSE(s.closed());
}

// ---- readiness seam (ReadyHook) -----------------------------------------

/// Records every wake; readiness-protocol semantics (spurious tolerance,
/// per-transaction firing) are documented on ReadyHook in stream.h.
class RecordingHook final : public ReadyHook {
 public:
  void wake(int task) override { wakes_.push_back(task); }
  [[nodiscard]] const std::vector<int>& wakes() const { return wakes_; }
  void clear() { wakes_.clear(); }

 private:
  std::vector<int> wakes_;
};

TEST(StreamReadiness, PushWakesConsumerPopWakesProducer) {
  Stream s(8, 8, "ready");
  RecordingHook hook;
  s.bind_consumer(&hook, 7);
  s.bind_producer(&hook, 3);

  // Every successful push transaction wakes the consumer — level-based,
  // not just the empty->nonempty edge (see ReadyHook's lost-wakeup note).
  const std::int32_t two[] = {1, 2};
  const std::int32_t one[] = {3};
  ASSERT_EQ(s.try_push_burst(two), 2u);
  ASSERT_EQ(s.try_push_burst(one), 1u);
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7, 7}));

  hook.clear();
  std::int32_t buf[4] = {};
  ASSERT_EQ(s.try_pop_burst({buf, 2}), 2u);
  EXPECT_EQ(hook.wakes(), (std::vector<int>{3}));
}

TEST(StreamReadiness, FailedTransactionsDoNotWake) {
  Stream s(2, 8, "ready_fail");
  RecordingHook hook;
  s.bind_consumer(&hook, 1);
  s.bind_producer(&hook, 2);

  const std::int32_t two[] = {1, 2};
  const std::int32_t one[] = {3};
  ASSERT_EQ(s.try_push_burst(two), 2u);  // fills the ring
  hook.clear();
  ASSERT_EQ(s.try_push_burst(one), 0u);  // full: no transaction, no wake
  std::int32_t buf[1];
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 1u);
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 1u);
  hook.clear();
  ASSERT_EQ(s.try_pop_burst({buf, 1}), 0u);  // empty: no wake either
  EXPECT_TRUE(hook.wakes().empty());
}

TEST(StreamReadiness, CloseWakesConsumerSoDrainedIsObserved) {
  Stream s(4, 8, "ready_close");
  RecordingHook hook;
  s.bind_consumer(&hook, 5);
  s.close();
  // A consumer blocked on an empty stream learns about end-of-stream only
  // through this wake: no further push will ever arrive.
  EXPECT_EQ(hook.wakes(), (std::vector<int>{5}));
}

TEST(StreamReadiness, UnbindSilencesTheSeam) {
  Stream s(4, 8, "ready_unbind");
  RecordingHook hook;
  s.bind_consumer(&hook, 1);
  s.bind_producer(&hook, 2);
  s.bind_consumer(nullptr, -1);
  s.bind_producer(nullptr, -1);
  const std::int32_t one[] = {1};
  ASSERT_EQ(s.try_push_burst(one), 1u);
  std::int32_t v = 0;
  ASSERT_EQ(s.try_pop_burst({&v, 1}), 1u);
  s.close();
  EXPECT_TRUE(hook.wakes().empty());
}

// Satellite regression: the engine resets every stream between runs while
// the ready-queue executor's hook bindings are still in place (bound once
// before workers start, cleared after they join). reset() must neither
// drop the binding nor leave the ring in a state where the next run's
// first transaction fails to fire the wake — either defect turns the rerun
// after cancel() into a lost wakeup against a parked worker.
TEST(StreamReadiness, ResetKeepsHookBindingsAndWakeContractArmed) {
  Stream s(4, 8, "reset_hooked");
  RecordingHook hook;
  s.bind_consumer(&hook, 7);
  s.bind_producer(&hook, 3);

  // Abandoned run: values stranded in flight, stream closed.
  const std::int32_t vs[] = {1, 2, 3};
  ASSERT_EQ(s.try_push_burst(vs), 3u);
  s.close();
  hook.clear();

  s.reset();
  EXPECT_FALSE(s.closed());
  EXPECT_TRUE(hook.wakes().empty());  // reset itself is not a transaction

  // Next run: the very first push still wakes the consumer task...
  ASSERT_TRUE(try_push(s, 42));
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7}));
  hook.clear();
  // ...the stale values are gone (FIFO re-armed, not merely reopened)...
  std::int32_t v = 0;
  ASSERT_TRUE(try_pop(s, v));
  EXPECT_EQ(v, 42);
  // ...and the pop woke the producer side, close wakes the consumer.
  EXPECT_EQ(hook.wakes(), (std::vector<int>{3}));
  hook.clear();
  s.close();
  EXPECT_EQ(hook.wakes(), (std::vector<int>{7}));
}

// ------------------------------------------ exact-capacity rings (no pow2)
//
// A ring allocates exactly `capacity` slots and maps free-running position
// p to slot p mod capacity, so non-power-of-two depths must behave exactly
// like any other: full at capacity, wrap mid-burst in order, fault filter
// and reset unaffected by where the wrap falls.

/// Pushes `n` consecutive values starting at `first`; returns how many fit.
std::size_t push_seq(Stream& s, std::int32_t first, std::size_t n) {
  std::vector<std::int32_t> vs(n);
  std::iota(vs.begin(), vs.end(), first);
  return s.try_push_burst(vs);
}

TEST(StreamRing, NonPowerOfTwoCapacityAcceptsExactlyCapacity) {
  for (const std::size_t cap : {7u, 13u}) {
    Stream s(cap, 8, "exact");
    EXPECT_EQ(push_seq(s, 0, cap + 5), cap) << cap;
    EXPECT_EQ(push_seq(s, 100, 1), 0u) << cap;  // full means full
    std::int32_t v = -1;
    ASSERT_TRUE(try_pop(s, v));
    EXPECT_EQ(v, 0);
    EXPECT_EQ(push_seq(s, 100, 3), 1u) << cap;  // exactly one slot freed
    std::vector<std::int32_t> out(cap + 1);
    ASSERT_EQ(s.try_pop_burst(out), cap);
    for (std::size_t i = 0; i + 1 < cap; ++i) {
      EXPECT_EQ(out[i], static_cast<std::int32_t>(i + 1)) << cap;
    }
    EXPECT_EQ(out[cap - 1], 100) << cap;
    EXPECT_FALSE(try_pop(s, v)) << cap;
  }
}

TEST(StreamRing, BurstsStraddlingTheWrapComeOutInOrder) {
  for (const std::size_t cap : {7u, 13u}) {
    Stream s(cap, 8, "wrap");
    std::int32_t next_in = 0;
    std::int32_t next_out = 0;
    std::size_t straddled = 0;
    // Every burst size against every ring offset: most pushes and pops
    // cross the end of the buffer somewhere in the middle.
    for (std::size_t round = 0; round < 4 * cap * cap; ++round) {
      const std::size_t want = round % cap + 1;
      next_in += static_cast<std::int32_t>(push_seq(s, next_in, want));
      std::size_t segments = 0;
      const std::size_t n = s.try_pop_with(
          (round * 5) % cap + 1, [&](auto seg) {
            ++segments;
            for (const auto v : seg) {
              ASSERT_EQ(static_cast<std::int32_t>(v), next_out++) << cap;
            }
          });
      EXPECT_LE(segments, 2u);
      if (segments == 2) ++straddled;
      EXPECT_EQ(segments == 0, n == 0);
    }
    EXPECT_GT(straddled, cap) << "the sweep must exercise the wrap";
    std::vector<std::int32_t> out(cap);
    const std::size_t rest = s.try_pop_burst(out);
    for (std::size_t i = 0; i < rest; ++i) EXPECT_EQ(out[i], next_out++);
    EXPECT_EQ(next_out, next_in);
  }
}

TEST(StreamRing, ArmedBitFlipHitsItsValueAcrossTheWrap) {
  // Ring of 7 advanced to slot 5: a 6-value burst lands in slots 5, 6, 0,
  // 1, 2, 3. Target each value of the burst in turn — before, at and
  // after the wrap — and check exactly that one comes out flipped.
  for (std::uint64_t target = 0; target < 6; ++target) {
    Stream s(7, 8, "flip");
    ASSERT_EQ(push_seq(s, 0, 5), 5u);
    std::vector<std::int32_t> out(7);
    ASSERT_EQ(s.try_pop_burst(out), 5u);

    std::atomic<std::uint64_t> fired{0};
    StreamFaultSite site;
    site.armed = true;
    site.flip_at = target;
    site.flip_mask = 0x40;
    site.fired = &fired;
    s.set_fault(&site);
    ASSERT_EQ(push_seq(s, 10, 6), 6u);
    ASSERT_EQ(s.try_pop_burst(out), 6u);
    for (std::uint64_t i = 0; i < 6; ++i) {
      const std::int32_t clean = 10 + static_cast<std::int32_t>(i);
      EXPECT_EQ(out[i], i == target ? clean ^ 0x40 : clean)
          << "target " << target << " value " << i;
    }
    EXPECT_EQ(fired.load(), 1u);
    EXPECT_EQ(site.values, 6u);
  }
}

TEST(StreamRing, ResetMidRingStartsFreshAtFullCapacity) {
  Stream s(13, 8, "reset_mid");
  ASSERT_EQ(push_seq(s, 0, 9), 9u);
  std::vector<std::int32_t> out(13);
  ASSERT_EQ(s.try_pop_burst(std::span<std::int32_t>(out).first(4)), 4u);
  s.reset();  // head and tail both mid-ring, five values stranded
  std::int32_t v = 0;
  EXPECT_FALSE(try_pop(s, v));
  EXPECT_EQ(push_seq(s, 50, 20), 13u);  // the whole ring is free again
  ASSERT_EQ(s.try_pop_burst(out), 13u);
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(out[i], 50 + static_cast<std::int32_t>(i));
  }
  s.close();
  EXPECT_TRUE(s.drained());
}

// ------------------------------------------------- rings at declared width
//
// A ring stores each value in the element its declared width selects
// (int8 / int16 / int32) and hands kernels int32 back: every value in
// [-2^bits, 2^bits) must survive the round trip exactly, at every SIMD
// level, whether the burst wraps or not and whichever pop API reads it.

/// Restores env/auto SIMD dispatch when a test that forces levels ends.
struct LevelGuard {
  ~LevelGuard() { simd::set_level(std::nullopt); }
};

TEST(StreamWidth, StorageElementFollowsTheDeclaredBits) {
  const std::pair<int, std::size_t> rule[] = {
      {1, 1}, {2, 1}, {7, 1}, {8, 2}, {15, 2}, {16, 4}, {31, 4}, {32, 4}};
  for (const auto& [bits, bytes] : rule) {
    EXPECT_EQ(Stream::element_bytes_for(bits), bytes) << bits;
    EXPECT_EQ(Stream(4, bits, "w").element_bytes(), bytes) << bits;
  }
}

/// `n` values alternating between the two ends of [-2^bits, 2^bits), with
/// a counter in between so that order is checked too.
std::vector<std::int32_t> boundary_values(int bits, std::size_t n) {
  const std::int64_t lo = -(std::int64_t{1} << bits);
  const std::int64_t hi = (std::int64_t{1} << bits) - 1;
  std::vector<std::int32_t> vs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = i % 3 == 0   ? lo
                           : i % 3 == 1 ? hi
                                        : static_cast<std::int64_t>(i) % hi;
    vs[i] = static_cast<std::int32_t>(v);
  }
  return vs;
}

TEST(StreamWidth, BoundaryValuesRoundTripAcrossTheWrapAtEveryLevel) {
  // Ring of 101 advanced to slot 60: an 80-value burst lands in slots
  // 60..100 and 0..38, long enough for every vector loop and its tail.
  const LevelGuard guard;
  constexpr std::size_t kCap = 101;
  constexpr std::size_t kBurst = 80;
  for (const simd::Level level : simd::available_levels()) {
    simd::set_level(level);
    for (const int bits : {1, 7, 8, 15, 16, 31}) {
      const std::vector<std::int32_t> vs = boundary_values(bits, kBurst);
      for (int api = 0; api < 2; ++api) {
        Stream s(kCap, bits, "edge");
        ASSERT_EQ(push_seq(s, 0, 60), 60u);
        std::vector<std::int32_t> out(kCap);
        ASSERT_EQ(s.try_pop_burst(out), 60u);
        ASSERT_EQ(s.try_push_burst(vs), kBurst);
        std::vector<std::int32_t> got;
        std::size_t segments = 0;
        if (api == 0) {
          // try_pop_burst, in two bursts, the second across the wrap.
          got.resize(kBurst);
          ASSERT_EQ(s.try_pop_burst(std::span(got).first(30)), 30u);
          ASSERT_EQ(s.try_pop_burst(std::span(got).subspan(30)), 50u);
        } else {
          // try_pop_with, visited at the ring's own element type.
          EXPECT_EQ(s.try_pop_with(kBurst,
                                   [&](auto seg) {
                                     ++segments;
                                     EXPECT_EQ(sizeof(seg[0]),
                                               s.element_bytes());
                                     got.insert(got.end(), seg.begin(),
                                                seg.end());
                                   }),
                    kBurst);
        }
        EXPECT_EQ(segments, api == 0 ? 0u : 2u);
        EXPECT_EQ(got, vs) << simd::level_name(level) << " bits " << bits
                           << " api " << api;
      }
    }
  }
}

TEST(StreamWidth, FlipOutsideTheElementStillChangesThePoppedValue) {
  // Bit 12 lies outside an int8 element: the flip folds to bit 12 mod 8
  // there. Inside int16 and int32 elements it stays bit 12. Each width
  // also takes a mask inside the element unchanged.
  for (const int bits : {2, 8, 16}) {
    for (const std::int32_t mask : {std::int32_t{1} << 12, 0x40}) {
      Stream s(4, bits, "flip");
      std::atomic<std::uint64_t> fired{0};
      StreamFaultSite site;
      site.armed = true;
      site.flip_at = 1;
      site.flip_mask = mask;
      site.fired = &fired;
      s.set_fault(&site);
      const std::vector<std::int32_t> vs = {3, 3, 3};
      ASSERT_EQ(s.try_push_burst(vs), 3u);
      std::vector<std::int32_t> out(3);
      ASSERT_EQ(s.try_pop_burst(out), 3u);
      const int width = 8 * static_cast<int>(s.element_bytes());
      const std::int32_t flip = StreamFaultSite::flip_within(mask, width);
      EXPECT_EQ(out[0], 3);
      EXPECT_NE(out[1], 3) << "bits " << bits << " mask " << mask;
      EXPECT_EQ(out[1], 3 ^ flip) << "bits " << bits << " mask " << mask;
      EXPECT_EQ(out[2], 3);
      EXPECT_EQ(fired.load(), 1u);
    }
  }
  EXPECT_EQ(StreamFaultSite::flip_within(1 << 12, 8), 1 << 4);
  EXPECT_EQ(StreamFaultSite::flip_within(1 << 12, 16), 1 << 12);
  EXPECT_EQ(StreamFaultSite::flip_within(0x101, 8), 0x01);
  EXPECT_EQ(StreamFaultSite::flip_within(1 << 30, 32), 1 << 30);
}

TEST(StreamWidth, DebugBuildsRejectAValueTheElementCannotHold) {
  if (!Stream::kChecksNarrowing) {
    GTEST_SKIP() << "the narrowing check is compiled into Debug and "
                    "sanitizer builds only";
  }
  for (const int bits : {7, 15}) {
    Stream s(4, bits, "narrow");
    const std::int32_t room = std::int32_t{1} << bits;
    const std::vector<std::int32_t> fits = {room - 1, -room};
    EXPECT_EQ(s.try_push_burst(fits), 2u);
    const std::vector<std::int32_t> over = {room};
    EXPECT_THROW((void)s.try_push_burst(over), Error) << bits;
    const std::vector<std::int32_t> under = {-room - 1};
    EXPECT_THROW((void)s.try_push_burst(under), Error) << bits;
  }
}

}  // namespace
}  // namespace qnn
