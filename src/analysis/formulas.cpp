#include "analysis/formulas.hpp"

#include <algorithm>
#include <cmath>

namespace avmon::analysis {

double pairCheckProbabilityPerRound(std::size_t cvs, std::size_t n) {
  const double c = static_cast<double>(cvs);
  const double nn = static_cast<double>(n);
  return 1.0 - std::exp(-(c * c) / nn);
}

double expectedDiscoveryRounds(std::size_t cvs, std::size_t n) {
  return 1.0 / pairCheckProbabilityPerRound(cvs, n);
}

double expectedDiscoveryRoundsApprox(std::size_t cvs, std::size_t n) {
  const double c = static_cast<double>(cvs);
  return static_cast<double>(n) / (c * c);
}

double joinSpreadRounds(std::size_t cvs) {
  return std::log2(std::max<std::size_t>(2, cvs));
}

double expectedDuplicateJoins(std::size_t cvs, std::size_t n) {
  const double c = static_cast<double>(cvs);
  return 2.0 * c * c / static_cast<double>(n);
}

double deadEntryDeletionRounds(std::size_t cvs, std::size_t n) {
  return static_cast<double>(cvs) * std::log(static_cast<double>(n));
}

double objectiveMD(std::size_t cvs, std::size_t n) {
  return static_cast<double>(cvs) + expectedDiscoveryRounds(cvs, n);
}

double objectiveMDC(std::size_t cvs, std::size_t n) {
  const double c = static_cast<double>(cvs);
  return c + c * c + expectedDiscoveryRounds(cvs, n);
}

std::size_t cvsOptimalMD(std::size_t n) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(std::cbrt(2.0 * static_cast<double>(n)))));
}

std::size_t cvsOptimalMDC(std::size_t n) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(std::pow(static_cast<double>(n), 0.25))));
}

std::size_t cvsOptimalDC(std::size_t n) { return cvsOptimalMDC(n); }

double probSomeMonitorUp(unsigned k, double availability) {
  return 1.0 - std::pow(1.0 - availability, static_cast<double>(k));
}

unsigned kForLOutOfK(std::size_t n, unsigned l) {
  const double k = (static_cast<double>(l) + 1.0) *
                   std::log2(static_cast<double>(std::max<std::size_t>(2, n)));
  return std::max(1u, static_cast<unsigned>(std::llround(k)));
}

double probNoColluderInPS(std::size_t n, unsigned k, std::size_t colluders) {
  const double ratio =
      static_cast<double>(k) / static_cast<double>(n);
  return std::pow(1.0 - ratio, static_cast<double>(colluders));
}

double probSystemCollusionFree(std::size_t n, unsigned k,
                               std::size_t totalColludingPairs) {
  return probNoColluderInPS(n, k, totalColludingPairs);
}

double expectedMemoryEntries(std::size_t cvs, unsigned k) {
  return static_cast<double>(cvs) + 2.0 * static_cast<double>(k);
}

double checksPerPeriod(std::size_t cvs) {
  const double c = static_cast<double>(cvs);
  return 2.0 * c * c;
}

namespace {

constexpr ClosedForm kClosedForms[] = {
    {"memory_entries",
     [](const ClosedFormPoint& p) { return expectedMemoryEntries(p.cvs, p.k); }},
    {"checks_per_s",
     [](const ClosedFormPoint& p) {
       return checksPerPeriod(p.cvs) / p.periodSeconds;
     }},
    {"discovery_s",
     [](const ClosedFormPoint& p) {
       return expectedDiscoveryRounds(p.cvs, p.n) * p.periodSeconds;
     }},
};

}  // namespace

const ClosedForm* findClosedForm(const std::string& name) {
  for (const ClosedForm& form : kClosedForms) {
    if (name == form.name) return &form;
  }
  return nullptr;
}

std::string closedFormNames() {
  std::string out;
  for (const ClosedForm& form : kClosedForms) {
    out += (out.empty() ? "" : ", ") + std::string(form.name);
  }
  return out;
}

}  // namespace avmon::analysis
