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

// Tables 1-2 from the pattern table: a vertex iterator pays its local
// class in candidate checks, a scanning edge iterator local + remote in
// scans, a lookup edge iterator its remote class in lookups.

namespace {

/// Cost class of a pattern's local candidates: pairs within N+(o) (T1) or
/// N-(o) (T3), or the whole other list per outer position (T2).
CostClass LocalClass(const SearchPattern& p) {
  if (p.local == LocalPart::kOther) return CostClass::kT2;
  return p.outer_out ? CostClass::kT1 : CostClass::kT3;
}

/// Cost class of a pattern's remote list, charged to w: the whole list
/// per arc into w (T2), or pairs within N+(w) (T1) / N-(w) (T3) when it
/// is cut against o.
CostClass RemoteClass(const SearchPattern& p) {
  if (p.restriction == Restriction::kNone) return CostClass::kT2;
  return p.remote_out ? CostClass::kT1 : CostClass::kT3;
}

}  // namespace

CostClass LocalCostClass(Method m) {
  const SearchPattern& p = PatternOf(m);
  return MethodFamily(m) == Family::kLookupEdgeIterator ? RemoteClass(p)
                                                         : LocalClass(p);
}

CostClass RemoteCostClass(Method m) {
  return MethodFamily(m) == Family::kScanningEdgeIterator
             ? RemoteClass(PatternOf(m))
             : LocalCostClass(m);
}

bool NeedsRemoteBinarySearch(Method m) {
  return MethodFamily(m) != Family::kVertexIterator &&
         PatternOf(m).restriction == Restriction::kAbove;
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
