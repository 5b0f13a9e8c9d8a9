#include "src/obs/degree_profile.h"

#include <cmath>
#include <sstream>

#include "src/core/h_function.h"
#include "src/util/table_printer.h"

namespace trilist::obs {

int DegreeBucketIndex(int64_t d) {
  if (d <= 0) return 0;
  int bucket = 1;
  while (d > 1) {
    d >>= 1;
    ++bucket;
  }
  return bucket;
}

int64_t BucketMinDegree(int bucket) {
  if (bucket <= 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int64_t BucketMaxDegree(int bucket) {
  if (bucket <= 0) return 0;
  return (int64_t{1} << bucket) - 1;
}

double DegreeBucket::Residual() const {
  if (predicted_ops <= 0) {
    return predicted_ops == 0 && measured_ops == 0
               ? 0.0
               : static_cast<double>(measured_ops);
  }
  return (static_cast<double>(measured_ops) - predicted_ops) / predicted_ops;
}

double DegreeProfile::TotalResidual() const {
  if (total_predicted <= 0) return 0.0;
  return (static_cast<double>(total_measured) - total_predicted) /
         total_predicted;
}

DegreeProfile BuildDegreeProfile(Method m, const OrientedGraph& g) {
  DegreeProfile profile;
  profile.method = m;
  const size_t n = g.num_nodes();
  for (size_t i = 0; i < n; ++i) {
    const auto v = static_cast<NodeId>(i);
    const int64_t d = g.TotalDegree(v);
    const int bucket = DegreeBucketIndex(d);
    if (static_cast<size_t>(bucket) >= profile.buckets.size()) {
      const size_t old = profile.buckets.size();
      profile.buckets.resize(static_cast<size_t>(bucket) + 1);
      for (size_t b = old; b < profile.buckets.size(); ++b) {
        profile.buckets[b].bucket = static_cast<int>(b);
        profile.buckets[b].d_min = BucketMinDegree(static_cast<int>(b));
        profile.buckets[b].d_max = BucketMaxDegree(static_cast<int>(b));
      }
    }
    DegreeBucket& slot = profile.buckets[static_cast<size_t>(bucket)];
    const int64_t measured = NodeCost(m, g.OutDegree(v), g.InDegree(v));
    ++slot.nodes;
    slot.measured_ops += measured;
    profile.total_measured += measured;
    // The model's per-node cost: g(d) h_M(q) with the realized
    // q = X / d. Nodes with d < 2 have g(d) = 0 and never any work.
    if (d >= 2) {
      const double q =
          static_cast<double>(g.OutDegree(v)) / static_cast<double>(d);
      const double predicted =
          GFunction(static_cast<double>(d)) * EvalH(m, q);
      slot.predicted_ops += predicted;
      profile.total_predicted += predicted;
    }
  }
  return profile;
}

void AppendDegreeProfileJson(const DegreeProfile& profile, JsonWriter* w) {
  w->BeginObject();
  w->Field("method", MethodName(profile.method));
  w->Field("total_measured_ops", profile.total_measured);
  w->FieldDouble("total_predicted_ops", profile.total_predicted, 3);
  w->FieldDouble("total_residual", profile.TotalResidual(), 6);
  w->Key("buckets");
  w->BeginArray();
  for (const DegreeBucket& b : profile.buckets) {
    w->BeginObject();
    w->Field("bucket", b.bucket);
    w->Field("d_min", b.d_min);
    w->Field("d_max", b.d_max);
    w->Field("nodes", b.nodes);
    w->Field("measured_ops", b.measured_ops);
    w->FieldDouble("predicted_ops", b.predicted_ops, 3);
    w->FieldDouble("residual", b.Residual(), 6);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string DegreeProfileTable(const DegreeProfile& profile) {
  TablePrinter table({"bucket", "degrees", "nodes", "measured",
                      "g(d)h(q)", "residual"});
  for (const DegreeBucket& b : profile.buckets) {
    std::ostringstream range;
    if (b.bucket == 0) {
      range << "0";
    } else if (b.d_min == b.d_max) {
      range << b.d_min;
    } else {
      range << b.d_min << "-" << b.d_max;
    }
    table.AddRow({std::to_string(b.bucket), range.str(),
                  FormatCount(static_cast<uint64_t>(b.nodes)),
                  FormatCount(static_cast<uint64_t>(b.measured_ops)),
                  FormatNumber(b.predicted_ops, 1),
                  FormatPercent(100.0 * b.Residual(), 2)});
  }
  std::ostringstream out;
  out << "degree profile for " << MethodName(profile.method) << "\n"
      << table.ToString()
      << "total: measured="
      << FormatCount(static_cast<uint64_t>(profile.total_measured))
      << " predicted=" << FormatNumber(profile.total_predicted, 1)
      << " residual=" << FormatPercent(100.0 * profile.TotalResidual(), 2)
      << "\n";
  return out.str();
}

}  // namespace trilist::obs
