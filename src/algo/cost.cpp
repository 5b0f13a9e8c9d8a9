#include "src/algo/cost.h"

#include "src/util/status.h"

namespace trilist {

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> kAll = {
      Method::kT1, Method::kT2, Method::kT3, Method::kT4, Method::kT5,
      Method::kT6, Method::kE1, Method::kE2, Method::kE3, Method::kE4,
      Method::kE5, Method::kE6, Method::kL1, Method::kL2, Method::kL3,
      Method::kL4, Method::kL5, Method::kL6,
  };
  return kAll;
}

const std::vector<Method>& FundamentalMethods() {
  static const std::vector<Method> kFundamental = {
      Method::kT1, Method::kT2, Method::kE1, Method::kE4};
  return kFundamental;
}

const char* MethodName(Method m) {
  switch (m) {
    case Method::kT1: return "T1";
    case Method::kT2: return "T2";
    case Method::kT3: return "T3";
    case Method::kT4: return "T4";
    case Method::kT5: return "T5";
    case Method::kT6: return "T6";
    case Method::kE1: return "E1";
    case Method::kE2: return "E2";
    case Method::kE3: return "E3";
    case Method::kE4: return "E4";
    case Method::kE5: return "E5";
    case Method::kE6: return "E6";
    case Method::kL1: return "L1";
    case Method::kL2: return "L2";
    case Method::kL3: return "L3";
    case Method::kL4: return "L4";
    case Method::kL5: return "L5";
    case Method::kL6: return "L6";
  }
  return "?";
}

Family MethodFamily(Method m) {
  switch (m) {
    case Method::kT1: case Method::kT2: case Method::kT3:
    case Method::kT4: case Method::kT5: case Method::kT6:
      return Family::kVertexIterator;
    case Method::kE1: case Method::kE2: case Method::kE3:
    case Method::kE4: case Method::kE5: case Method::kE6:
      return Family::kScanningEdgeIterator;
    default:
      return Family::kLookupEdgeIterator;
  }
}

CostClass LocalCostClass(Method m) {
  switch (m) {
    // Vertex iterators: the candidate-tuple class (T4-T6 mirror T1-T3).
    case Method::kT1: case Method::kT4: return CostClass::kT1;
    case Method::kT2: case Method::kT5: return CostClass::kT2;
    case Method::kT3: case Method::kT6: return CostClass::kT3;
    // SEI local classes, Table 1 row 1.
    case Method::kE1: return CostClass::kT1;
    case Method::kE2: return CostClass::kT2;
    case Method::kE3: return CostClass::kT3;
    case Method::kE4: return CostClass::kT1;
    case Method::kE5: return CostClass::kT2;
    case Method::kE6: return CostClass::kT3;
    // LEI lookup classes, Table 2.
    case Method::kL1: return CostClass::kT2;
    case Method::kL2: return CostClass::kT1;
    case Method::kL3: return CostClass::kT2;
    case Method::kL4: return CostClass::kT3;
    case Method::kL5: return CostClass::kT3;
    case Method::kL6: return CostClass::kT1;
  }
  return CostClass::kT1;
}

CostClass RemoteCostClass(Method m) {
  switch (m) {
    // SEI remote classes, Table 1 row 2.
    case Method::kE1: return CostClass::kT2;
    case Method::kE2: return CostClass::kT1;
    case Method::kE3: return CostClass::kT2;
    case Method::kE4: return CostClass::kT3;
    case Method::kE5: return CostClass::kT3;
    case Method::kE6: return CostClass::kT1;
    default:
      return LocalCostClass(m);
  }
}

bool NeedsRemoteBinarySearch(Method m) {
  return m == Method::kE5 || m == Method::kE6 || m == Method::kL5 ||
         m == Method::kL6;
}

namespace {

int64_t ClassTerm(CostClass c, int64_t x, int64_t y) {
  switch (c) {
    case CostClass::kT1: return x * (x - 1) / 2;
    case CostClass::kT2: return x * y;
    case CostClass::kT3: return y * (y - 1) / 2;
  }
  return 0;
}

}  // namespace

double CostClassTotal(const std::vector<int64_t>& x,
                      const std::vector<int64_t>& y, CostClass c) {
  TRILIST_DCHECK(x.size() == y.size());
  int64_t total = 0;
  for (size_t i = 0; i < x.size(); ++i) total += ClassTerm(c, x[i], y[i]);
  return static_cast<double>(total);
}

int64_t NodeCost(Method m, int64_t out, int64_t in) {
  const int64_t local = ClassTerm(LocalCostClass(m), out, in);
  if (MethodFamily(m) != Family::kScanningEdgeIterator) return local;
  return local + ClassTerm(RemoteCostClass(m), out, in);
}

double MethodCostTotal(const OrientedGraph& g, Method m) {
  int64_t total = 0;
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const auto v = static_cast<NodeId>(i);
    total += NodeCost(m, g.OutDegree(v), g.InDegree(v));
  }
  return static_cast<double>(total);
}

}  // namespace trilist
