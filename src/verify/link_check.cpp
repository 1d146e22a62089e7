#include "verify/link_check.h"

#include <string>

#include "io/table.h"

namespace qnn {

void check_link_plan(const Pipeline& pipeline,
                     const std::vector<int>& cut_after_nodes,
                     const PartitionConfig& config, Report& report) {
  const int n = pipeline.size();
  int prev = -1;
  for (std::size_t k = 0; k < cut_after_nodes.size(); ++k) {
    const int after = cut_after_nodes[k];
    const std::string where = "link" + std::to_string(k);
    if (after <= prev || after >= n - 1) {
      report.error(diag::kBadSegments, after, where,
                   "cut after node " + std::to_string(after) +
                       " is out of order or out of range");
      prev = after;
      continue;
    }
    prev = after;
    const std::vector<CrossingStream> crossing =
        crossing_streams(pipeline, after);
    if (crossing.size() != 1) {
      report.error(diag::kCutCrossesSkip, after, where,
                   "cut after '" + pipeline.node(after).name + "' is crossed "
                       "by " + std::to_string(crossing.size()) +
                       " stream(s); a MaxRing link carries exactly one");
      continue;
    }
    const double capacity = config.link_capacity_mbps(k);
    if (capacity <= 0.0) {
      report.error(diag::kDeadLinkCut, after, where,
                   "cut after '" + pipeline.node(after).name +
                       "' rides a dead link (health 0); the plan must be "
                       "repartitioned around it");
      continue;
    }
    report.info(diag::kDeadLinkCut, after, where,
                "link alive: capacity " + Table::num(capacity, 1) + " Mbps");
  }
}

}  // namespace qnn
