// Structured diagnostics for the static dataflow-graph analyzer.
//
// Every finding carries a *stable* code (QNN-Dxxx) so tests and CI can
// assert on exact failure classes instead of message substrings. Codes are
// grouped by the analysis that produces them:
//
//   QNN-D0xx  graph structure   (edges, dead ends, reachability, forks)
//   QNN-D1xx  shape / bit-width propagation
//   QNN-D2xx  parameter banks   (weight caches, thresholds, quantizers)
//   QNN-D3xx  deadlock / FIFO capacity
//   QNN-D4xx  multi-DFE partition feasibility (MaxRing links, resources)
//   QNN-D5xx  retired (backend capability checks; the limits they
//             duplicated are enforced by D105, expand() and the Stream and
//             line-buffer constructors) — never reused
//   QNN-D6xx  protocol model checking (src/mc) + compiled-plan consistency
//
// Severity semantics:
//   kError    the graph would hang, crash, or stream poisoned values at
//             run time — construction must be refused.
//   kWarning  legal but suspicious or performance-degrading; the engine
//             compensates (e.g. by clamping the burst size).
//   kInfo     proof obligations that were discharged, recorded so the
//             report shows *why* a graph is safe, not just that it is.
#pragma once

#include <string>
#include <vector>

namespace qnn {

enum class Severity { kInfo, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);

/// Stable diagnostic codes. Never renumber; retire codes instead.
namespace diag {
// --- structure ---------------------------------------------------------
inline constexpr const char* kBadEdge = "QNN-D001";         // edge breaks
                                                            // topological order
inline constexpr const char* kDeadEnd = "QNN-D002";         // output never
                                                            // consumed
inline constexpr const char* kUnreachable = "QNN-D003";     // never reaches
                                                            // network output
inline constexpr const char* kMissingSkip = "QNN-D004";     // Add without a
                                                            // skip edge
inline constexpr const char* kStraySkip = "QNN-D005";       // skip edge on a
                                                            // non-Add node
inline constexpr const char* kDegenerateFork = "QNN-D006";  // one producer on
                                                            // both Add ports
// --- shape / bit-width propagation -------------------------------------
inline constexpr const char* kShapeMismatch = "QNN-D101";
inline constexpr const char* kBadWindow = "QNN-D102";     // window geometry
inline constexpr const char* kBitsMismatch = "QNN-D103";  // stream width !=
                                                          // producer width
inline constexpr const char* kBitsOverflow = "QNN-D104";  // width too narrow
                                                          // for the value range
inline constexpr const char* kBitsRange = "QNN-D105";     // width outside what
                                                          // streams support
// --- parameter banks ----------------------------------------------------
inline constexpr const char* kParamBank = "QNN-D201";      // bank count/index
inline constexpr const char* kWeightShape = "QNN-D202";    // weight cache
                                                           // shape mismatch
inline constexpr const char* kThresholdChannels = "QNN-D203";
inline constexpr const char* kQuantizerBits = "QNN-D204";  // activation planes
                                                           // vs quantizer
// --- deadlock / capacity ------------------------------------------------
inline constexpr const char* kSkipCapacity = "QNN-D301";  // skip FIFO below
                                                          // the lag bound
inline constexpr const char* kBurstClamp = "QNN-D302";    // burst > FIFO
                                                          // capacity (clamped)
inline constexpr const char* kShallowFifo = "QNN-D303";   // capacity below one
                                                          // input row
inline constexpr const char* kUnprovable = "QNN-D304";    // lag bound not
                                                          // derivable
inline constexpr const char* kPlanMismatch = "QNN-D305";  // CompiledPlan
                                                          // fingerprint vs
                                                          // pipeline hash
// --- partition feasibility ----------------------------------------------
inline constexpr const char* kLinkOversubscribed = "QNN-D401";
inline constexpr const char* kDfeOverfill = "QNN-D402";
inline constexpr const char* kTooManyDfes = "QNN-D403";
inline constexpr const char* kBadSegments = "QNN-D404";
// --- live link plans (verify/link_check.h): proved before a LinkedEngine
// --- arms a (possibly degraded, post-failover) partition cut ------------
inline constexpr const char* kDeadLinkCut = "QNN-D420";       // cut rides a
                                                              // health-0 link
inline constexpr const char* kCutCrossesSkip = "QNN-D422";    // cut crossed by
                                                              // more than the
                                                              // one main edge
// --- protocol model checking (src/mc) -----------------------------------
inline constexpr const char* kProtoDeadlock = "QNN-D601";     // lost wakeup /
                                                              // deadlock trace
inline constexpr const char* kProtoDoubleRun = "QNN-D602";    // task stepped
                                                              // concurrently
inline constexpr const char* kProtoLinearize = "QNN-D603";    // FIFO/counter
                                                              // integrity
inline constexpr const char* kProtoBudget = "QNN-D604";       // exploration
                                                              // budget exhausted
inline constexpr const char* kProtoExplored = "QNN-D605";     // exploration
                                                              // stats (proof
                                                              // note)
// --- compiled-plan consistency (verify/plan_check.h) --------------------
inline constexpr const char* kPinOverlap = "QNN-D610";     // replica pools pin
                                                           // onto the same core
inline constexpr const char* kMachineDrift = "QNN-D611";   // cached plan built
                                                           // on another machine
inline constexpr const char* kBurstFifoSkew = "QNN-D612";  // link burst exceeds
                                                           // planned capacity
}  // namespace diag

/// One analyzer finding.
struct Diagnostic {
  std::string code;          // stable QNN-Dxxx identifier
  Severity severity = Severity::kError;
  int node = -1;             // pipeline node index, -1 = whole graph / input
  std::string where;         // node or stream name ("" = whole graph)
  std::string message;

  /// "QNN-D002 [error] conv_1: output stream is never consumed ..."
  [[nodiscard]] std::string str() const;
};

/// Ordered collection of findings from one analyzer run.
class Report {
 public:
  void add(Severity severity, const char* code, int node, std::string where,
           std::string message);
  void info(const char* code, int node, std::string where,
            std::string message) {
    add(Severity::kInfo, code, node, std::move(where), std::move(message));
  }
  void warn(const char* code, int node, std::string where,
            std::string message) {
    add(Severity::kWarning, code, node, std::move(where), std::move(message));
  }
  void error(const char* code, int node, std::string where,
             std::string message) {
    add(Severity::kError, code, node, std::move(where), std::move(message));
  }

  /// True when no error-severity finding is present (warnings/info allowed).
  [[nodiscard]] bool ok() const { return errors_ == 0; }
  [[nodiscard]] int errors() const { return errors_; }
  [[nodiscard]] int warnings() const { return warnings_; }

  /// Number of findings carrying `code`.
  [[nodiscard]] int count(const char* code) const;
  /// True when at least one finding carries `code`.
  [[nodiscard]] bool has(const char* code) const { return count(code) > 0; }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }

  /// Render every finding at or above `min_severity`, one per line.
  [[nodiscard]] std::string str(Severity min_severity = Severity::kInfo) const;
  /// Machine-readable rendering of the whole report (qnn_verify --json):
  /// {"ok": ..., "errors": N, "warnings": N, "diagnostics": [{code,
  /// severity, node, where, message}, ...]}.
  [[nodiscard]] std::string json() const;
  /// One-line verdict: "FAIL: 2 error(s), 1 warning(s)" / "PASS ...".
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Diagnostic> diags_;
  int errors_ = 0;
  int warnings_ = 0;
};

}  // namespace qnn
