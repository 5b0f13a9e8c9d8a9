#include "src/core/out_degree_model.h"

#include "src/core/h_function.h"
#include "src/util/status.h"

namespace trilist {

std::vector<int64_t> DegreesByLabel(
    const std::vector<int64_t>& ascending_degrees,
    const Permutation& theta) {
  TRILIST_DCHECK(theta.size() == ascending_degrees.size());
  std::vector<int64_t> by_label(ascending_degrees.size());
  for (size_t pos = 0; pos < ascending_degrees.size(); ++pos) {
    by_label[theta(pos)] = ascending_degrees[pos];
  }
  return by_label;
}

std::vector<double> ExpectedOutDegrees(
    const std::vector<int64_t>& degrees_by_label, const WeightFn& w) {
  const size_t n = degrees_by_label.size();
  double total_weight = 0.0;
  for (int64_t d : degrees_by_label) {
    total_weight += w(static_cast<double>(d));
  }
  std::vector<double> expected(n, 0.0);
  double prefix = 0.0;  // sum_{j<i} w(d_j) in label order
  for (size_t i = 0; i < n; ++i) {
    const auto d = static_cast<double>(degrees_by_label[i]);
    const double denom = total_weight - w(d);
    expected[i] = denom > 0.0 ? d * prefix / denom : 0.0;
    prefix += w(d);
  }
  return expected;
}

std::vector<double> ExpectedSmallerNeighborFractions(
    const std::vector<int64_t>& degrees_by_label, const WeightFn& w) {
  std::vector<double> q = ExpectedOutDegrees(degrees_by_label, w);
  for (size_t i = 0; i < q.size(); ++i) {
    const auto d = static_cast<double>(degrees_by_label[i]);
    q[i] = d > 0.0 ? q[i] / d : 0.0;
  }
  return q;
}

namespace {

/// The six distinct h shapes of Table 4: the primitive classes T1, T2, T3
/// at their CostClass index, then the SEI local + remote sums.
constexpr size_t kNumShapes = 6;

size_t ShapeOf(Method m) {
  const auto local = static_cast<size_t>(LocalCostClass(m));
  if (MethodFamily(m) != Family::kScanningEdgeIterator) return local;
  const auto remote = static_cast<size_t>(RemoteCostClass(m));
  TRILIST_DCHECK(local != remote);
  return 2 + local + remote;  // T1+T2 -> 3, T1+T3 -> 4, T2+T3 -> 5
}

}  // namespace

MethodCosts SequenceConditionalCosts(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    const WeightFn& w) {
  MethodCosts costs{};
  const std::vector<int64_t> by_label =
      DegreesByLabel(ascending_degrees, theta);
  const size_t n = by_label.size();
  if (n == 0) return costs;
  double total_weight = 0.0;
  for (int64_t d : by_label) {
    total_weight += w(static_cast<double>(d));
  }
  // q is ExpectedSmallerNeighborFractions' expression, evaluated inline;
  // each shape's h is EvalH's local + remote sum, so every entry rounds
  // exactly like a per-method loop.
  std::array<double, kNumShapes> sums{};
  double prefix = 0.0;  // sum_{j<i} w(d_j) in label order
  for (size_t i = 0; i < n; ++i) {
    const auto d = static_cast<double>(by_label[i]);
    const double denom = total_weight - w(d);
    const double expected = denom > 0.0 ? d * prefix / denom : 0.0;
    const double q = d > 0.0 ? expected / d : 0.0;
    prefix += w(d);
    const double g = GFunction(d);
    const double t1 = EvalClassH(CostClass::kT1, q);
    const double t2 = EvalClassH(CostClass::kT2, q);
    const double t3 = EvalClassH(CostClass::kT3, q);
    sums[0] += g * t1;
    sums[1] += g * t2;
    sums[2] += g * t3;
    sums[3] += g * (t1 + t2);
    sums[4] += g * (t1 + t3);
    sums[5] += g * (t2 + t3);
  }
  for (const Method m : AllMethods()) {
    costs[static_cast<size_t>(m)] =
        sums[ShapeOf(m)] / static_cast<double>(n);
  }
  return costs;
}

void AppendRun(std::vector<DegreeRun>* runs, int64_t degree, size_t count) {
  if (count == 0) return;
  if (!runs->empty() && runs->back().degree == degree) {
    runs->back().count += count;
  } else {
    runs->push_back({degree, count});
  }
}

size_t RunsLength(const std::vector<DegreeRun>& runs) {
  size_t n = 0;
  for (const DegreeRun& run : runs) n += run.count;
  return n;
}

std::vector<DegreeRun> CompressRuns(const std::vector<int64_t>& sequence) {
  std::vector<DegreeRun> runs;
  for (const int64_t d : sequence) AppendRun(&runs, d, 1);
  return runs;
}

MethodCosts RunConditionalCosts(const std::vector<DegreeRun>& runs_by_label,
                                const WeightFn& w) {
  MethodCosts costs{};
  double n = 0.0;
  double total_weight = 0.0;
  for (const DegreeRun& run : runs_by_label) {
    const auto len = static_cast<double>(run.count);
    n += len;
    total_weight += len * w(static_cast<double>(run.degree));
  }
  if (n == 0.0) return costs;
  std::array<double, kNumShapes> sums{};
  double prefix = 0.0;  // weight of every label before the run
  for (const DegreeRun& run : runs_by_label) {
    const auto d = static_cast<double>(run.degree);
    const auto len = static_cast<double>(run.count);
    const double wd = w(d);
    const double denom = total_weight - wd;
    // Per-class sums of h(q_k) over the run's labels k = 0..len-1.
    double t1 = 0.0;
    double t2 = 0.0;
    double t3 = 0.5 * len;  // q = 0: zero degree or no other weight
    if (d > 0.0 && denom > 0.0) {
      // q_k = (prefix + k wd) / denom and 1 - q_k = (denom - prefix -
      // k wd) / denom, both taken about the run's midpoint so no sum
      // cancels: mean q, mean 1 - q, and Σ (q_k - mean)^2 from Σk^2.
      const double mid = 0.5 * wd * (len - 1.0);
      const double mean = (prefix + mid) / denom;
      const double mean_rest = (denom - prefix - mid) / denom;
      const double slope = wd / denom;
      const double spread = slope * slope * len * (len * len - 1.0) / 12.0;
      t1 = 0.5 * (len * mean * mean + spread);    // Σ q^2 / 2
      t2 = len * mean * mean_rest - spread;       // Σ q (1 - q)
      t3 = 0.5 * (len * mean_rest * mean_rest + spread);  // Σ (1-q)^2 / 2
    }
    prefix += len * wd;
    const double g = GFunction(d);
    sums[0] += g * t1;
    sums[1] += g * t2;
    sums[2] += g * t3;
    sums[3] += g * (t1 + t2);
    sums[4] += g * (t1 + t3);
    sums[5] += g * (t2 + t3);
  }
  for (const Method m : AllMethods()) {
    costs[static_cast<size_t>(m)] = sums[ShapeOf(m)] / n;
  }
  return costs;
}

double SequenceConditionalCost(
    const std::vector<int64_t>& ascending_degrees, const Permutation& theta,
    Method m, const WeightFn& w) {
  return SequenceConditionalCosts(ascending_degrees, theta,
                                  w)[static_cast<size_t>(m)];
}

}  // namespace trilist
