// Closed-form results of paper Section 4, as executable formulas.
//
// These back three things: (1) the Table 1 reproduction, (2) the
// `closed:<name>` bounds of the spec grammar's expect.* lines (the paper
// figures under examples/specs/paper/), and (3) property tests asserting
// the optimality derivations (e.g. that cvs = ∛(2N) really minimizes the
// Optimal-MD objective over the integer neighborhood).
#pragma once

#include <cstddef>
#include <string>

namespace avmon::analysis {

/// Probability that one full protocol period (N coarse-view fetches) checks
/// a given node pair at least once: 1 - e^(-cvs²/N)  (Section 4.1).
double pairCheckProbabilityPerRound(std::size_t cvs, std::size_t n);

/// Expected discovery time in protocol periods: E[D] <= 1/(1-e^(-cvs²/N)).
double expectedDiscoveryRounds(std::size_t cvs, std::size_t n);

/// The asymptotic simplification E[D] ≈ N/cvs² (valid for cvs = o(√N)).
double expectedDiscoveryRoundsApprox(std::size_t cvs, std::size_t n);

/// JOIN spread time bound: O(log cvs) rounds (Section 4.1). Returns
/// log2(cvs), the bound's leading term.
double joinSpreadRounds(std::size_t cvs);

/// Expected number of duplicate JOIN receivers per period: <= 2·cvs²/N,
/// which is o(1) when cvs = o(√N).
double expectedDuplicateJoins(std::size_t cvs, std::size_t n);

/// Rounds T* after which a dead coarse-view entry is deleted w.h.p. 1-1/N:
/// T* = cvs · ln(N) (Section 4.1, "Effect of Dead Nodes").
double deadEntryDeletionRounds(std::size_t cvs, std::size_t n);

/// The Optimal-MD objective f(cvs) = cvs + 1/(1-e^(-cvs²/N)) (Section 4.2).
double objectiveMD(std::size_t cvs, std::size_t n);

/// The Optimal-MDC objective g(cvs) = cvs + cvs² + 1/(1-e^(-cvs²/N)).
double objectiveMDC(std::size_t cvs, std::size_t n);

/// Optimal coarse-view sizes (Section 4.2): ∛(2N), ⁴√N, ⁴√N.
std::size_t cvsOptimalMD(std::size_t n);
std::size_t cvsOptimalMDC(std::size_t n);
std::size_t cvsOptimalDC(std::size_t n);

/// Probability that at least one of the K monitors of a node is up, for
/// system-wide average availability a: 1 - (1-a)^K  (Section 4.3).
double probSomeMonitorUp(unsigned k, double availability);

/// K needed so every node w.h.p. keeps >= l monitors: K = (l+1)·log(N)
/// (Section 4.3, "l out of K" policies).
unsigned kForLOutOfK(std::size_t n, unsigned l);

/// Probability that none of C colluders of a node lands in its pinging
/// set: (1 - K/N)^C  (Section 4.3, collusion resilience).
double probNoColluderInPS(std::size_t n, unsigned k, std::size_t colluders);

/// System-wide version: probability no colludee-colluder pair (D total
/// relationships) appears in any PS: (1 - K/N)^D.
double probSystemCollusionFree(std::size_t n, unsigned k,
                               std::size_t totalColludingPairs);

/// Expected memory entries per node, |CV| + |PS| + |TS| = cvs + 2K: a full
/// coarse view plus K monitors and K targets (Section 5.2, Figure 9).
double expectedMemoryEntries(std::size_t cvs, unsigned k);

/// Consistency-condition checks per node per protocol period: 2·cvs²
/// (Section 5.2, Figure 7).
double checksPerPeriod(std::size_t cvs);

/// The run a closed form is evaluated at: its effective N and its resolved
/// cvs, K and protocol period.
struct ClosedFormPoint {
  std::size_t n = 0;
  std::size_t cvs = 0;
  unsigned k = 0;
  double periodSeconds = 0.0;
};

/// One `closed:<name>` bound: a formula above, in the unit of the metric it
/// is compared with.
struct ClosedForm {
  const char* name;
  double (*eval)(const ClosedFormPoint& point);
};

/// The closed form called `name`, or nullptr.
const ClosedForm* findClosedForm(const std::string& name);

/// Every closed-form name, comma-separated (for error messages).
std::string closedFormNames();

}  // namespace avmon::analysis
