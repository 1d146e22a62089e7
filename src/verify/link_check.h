// Static proof obligations for a *live* MaxRing link plan.
//
// The D40x checks (partition_check) prove a placement the estimator chose;
// these D42x checks prove an explicit cut list the LinkedEngine is about
// to execute — including the degraded cuts its failover ladder proposes
// after a link death. A degraded plan must be proved before it arms:
//
//   QNN-D420  a cut rides a link whose health is 0 (dead): running it
//             would wedge on the first frame, so the plan is refused and
//             the ladder falls through to the next rung.
//   QNN-D422  the cut is crossed by more than one stream (a skip edge
//             spans it): the in-process MaxRing carries exactly one
//             framed stream per link, so such cuts are refused.
//
// Wire rate is not re-proved here: the D401 partition check prices it
// when a placement is chosen, and a cut needs ~210 Mbps (2 bit/pixel at
// 105 MHz, §III-B6), far below the MaxRing capacity. Discharged
// obligations are recorded as kInfo findings, so the report shows *why* a
// degraded plan is safe, not just that it is.
#pragma once

#include <vector>

#include "nn/pipeline.h"
#include "partition/partitioner.h"
#include "verify/report.h"

namespace qnn {

/// Prove the explicit cut list `cut_after_nodes` (link k = the cut after
/// cut_after_nodes[k]) against `config`'s link capacities and health.
void check_link_plan(const Pipeline& pipeline,
                     const std::vector<int>& cut_after_nodes,
                     const PartitionConfig& config, Report& report);

}  // namespace qnn
