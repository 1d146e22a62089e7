// Multi-DFE partitioning (§III-B6).
//
// The kernel chain is cut into contiguous segments, one per DFE, connected
// in the daisy-chain (MaxRing) order of the Maxeler MPC-X node. A cut is
// legal anywhere: activation streams and 16-bit skip streams alike cross
// the link, serialized value by value (the paper's link arithmetic: one
// 2-bit value per 105 MHz clock needs 210 Mbps, far below the multi-Gbps
// MaxRing), so splitting costs almost nothing as long as every crossing
// stream's aggregate rate stays below link capacity.
//
// Two planners are provided:
//  * partition()          — greedy first-fit in chain order
//  * partition_optimal()  — DP over contiguous segments minimizing the DFE
//                           count, tie-broken by the peak utilization
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fpga/resource_model.h"
#include "sim/cycle_model.h"

namespace qnn {

struct PartitionConfig {
  FpgaDevice device = stratix_v_5sgsd8();
  ResourceCosts costs{};
  /// Maximum fraction of each resource class usable per DFE (place-and-
  /// route headroom).
  double fill = 0.85;
  /// DFEs available in the node (MPC-X: 8 MAX4 DFEs).
  int max_dfes = 8;
  /// DFE-to-DFE link rate ("can be set to rates of up to several Gbps").
  double link_gbps = 4.0;
  /// Fabric clock used to convert cycles to seconds.
  double clock_hz = 105e6;
  /// Link word width (bits per link clock) used to price MaxRing framing;
  /// matches SimConfig::link_bits_per_cycle (4 Gbps / 105 MHz ~ 38).
  int link_bits_per_cycle = 38;
  /// Planned per-edge bursts carried across cuts (the session layer fills
  /// this from the plan/ FIFO plan, PlannedStream::burst). A crossing
  /// stream with a planned burst is priced as framed transfers — each
  /// frame rounded up to whole link words — matching the sim/ MaxRing
  /// serializer; without one the raw payload rate is used (legacy).
  std::vector<SimConfig::EdgeBurst> link_bursts;
  /// Per-link health derating in [0, 1], indexed by MaxRing link ordinal
  /// (link k connects DFE k to k+1). Missing entries mean 1.0 (healthy);
  /// 0 marks a dead link, making any cut over it infeasible. The
  /// LinkedEngine's failover zeroes the entry of a link that died.
  std::vector<double> link_health;

  /// Effective capacity of link `link` after health derating.
  [[nodiscard]] double link_capacity_mbps(std::size_t link) const {
    const double health =
        link < link_health.size()
            ? std::clamp(link_health[link], 0.0, 1.0)
            : 1.0;
    return link_gbps * 1000.0 * health;
  }
};

/// One crossing stream at a cut.
struct CrossingStream {
  std::string name;
  std::int64_t values_per_image = 0;
  int bits = 0;
  /// Planned burst (values per MaxRing frame) carried across the cut from
  /// the plan/ FIFO plan; 0 = no plan (priced as raw payload).
  std::size_t burst = 0;

  /// Raw payload rate, ignoring link framing.
  [[nodiscard]] double mbps(double images_per_second) const {
    return static_cast<double>(values_per_image) * bits *
           images_per_second / 1e6;
  }

  /// Wire rate including MaxRing framing: values ship in frames of
  /// `burst` values, each frame rounded up to whole `link_bits_per_cycle`
  /// words (the sim/ serializer's cost). With no planned burst this
  /// degenerates to the raw payload rate — the legacy pricing.
  [[nodiscard]] double wire_mbps(double images_per_second,
                                 int link_bits_per_cycle) const {
    if (burst == 0 || link_bits_per_cycle <= 0 || values_per_image <= 0) {
      return mbps(images_per_second);
    }
    const auto b = static_cast<std::int64_t>(burst);
    const std::int64_t w = link_bits_per_cycle;
    const std::int64_t full_frames = values_per_image / b;
    const std::int64_t rem_values = values_per_image % b;
    auto frame_bits = [&](std::int64_t values) {
      return (values * bits + w - 1) / w * w;  // ceil to whole link words
    };
    const std::int64_t wire_bits =
        full_frames * frame_bits(b) +
        (rem_values > 0 ? frame_bits(rem_values) : 0);
    return static_cast<double>(wire_bits) * images_per_second / 1e6;
  }
};

/// The link between DFE k and DFE k+1.
struct CutInfo {
  int after_node = -1;  // cut lies between after_node and after_node + 1
  std::vector<CrossingStream> streams;
  double required_mbps = 0.0;
  bool feasible = true;
};

struct DfeAssignment {
  int first_node = 0;
  int last_node = 0;  // inclusive
  double luts = 0.0;
  double ffs = 0.0;
  int bram_blocks = 0;
  double utilization = 0.0;  // binding resource fraction of the device
};

struct PartitionResult {
  std::vector<DfeAssignment> dfes;
  std::vector<CutInfo> cuts;  // size = dfes.size() - 1
  double images_per_second = 0.0;
  /// Slowdown from link serialization: 1.0 when every cut is feasible,
  /// otherwise the worst required/capacity ratio.
  double link_slowdown = 1.0;

  [[nodiscard]] int num_dfes() const {
    return static_cast<int>(dfes.size());
  }
  [[nodiscard]] bool feasible() const {
    for (const auto& c : cuts) {
      if (!c.feasible) return false;
    }
    return true;
  }
  [[nodiscard]] double max_utilization() const;
};

/// Streams crossing a cut placed after `after_node`, with per-image
/// volume. When `bursts` is supplied, each stream is annotated with its
/// planned per-edge burst (CrossingStream::burst) so link pricing can use
/// the framed wire rate.
[[nodiscard]] std::vector<CrossingStream> crossing_streams(
    const Pipeline& pipeline, int after_node,
    const std::vector<SimConfig::EdgeBurst>* bursts = nullptr);

/// Greedy first-fit chain partition.
[[nodiscard]] PartitionResult partition(const Pipeline& pipeline,
                                        const PartitionConfig& config = {});

/// Optimal chain partition: fewest DFEs, then lowest peak utilization.
[[nodiscard]] PartitionResult partition_optimal(
    const Pipeline& pipeline, const PartitionConfig& config = {});

}  // namespace qnn
