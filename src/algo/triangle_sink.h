#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/graph.h"

/// \file triangle_sink.h
/// Consumers of listed triangles. Every listing algorithm emits each
/// triangle exactly once, as (x, y, z) with x < y < z in *label* space
/// (the global order O of Section 2.1); OriginalOf() on the oriented graph
/// converts back to input IDs when needed.

namespace trilist {

/// A triangle in label space, x < y < z.
struct Triangle {
  NodeId x;
  NodeId y;
  NodeId z;

  friend bool operator==(const Triangle&, const Triangle&) = default;
  friend auto operator<=>(const Triangle&, const Triangle&) = default;
};

/// \brief Abstract triangle consumer.
class TriangleSink {
 public:
  virtual ~TriangleSink() = default;
  /// Receives one triangle; precondition x < y < z.
  virtual void Consume(NodeId x, NodeId y, NodeId z) = 0;
};

/// Counts triangles without storing them. Final, so the parallel engine
/// can recognise it: its chunks skip per-triangle emission for a
/// CountingSink, which is credited once with the exact total via Add().
class CountingSink final : public TriangleSink {
 public:
  void Consume(NodeId, NodeId, NodeId) override { ++count_; }
  /// Credits `triangles` triangles at once.
  void Add(uint64_t triangles) { count_ += triangles; }
  /// Number of triangles consumed.
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Stores all triangles (tests and small graphs only).
class CollectingSink : public TriangleSink {
 public:
  void Consume(NodeId x, NodeId y, NodeId z) override {
    triangles_.push_back({x, y, z});
  }
  /// Collected triangles in emission order.
  const std::vector<Triangle>& triangles() const { return triangles_; }
  /// Sorted copy, for set comparison across methods.
  std::vector<Triangle> Sorted() const;

 private:
  std::vector<Triangle> triangles_;
};

/// Adapts a lambda.
class CallbackSink : public TriangleSink {
 public:
  /// \param fn invoked once per triangle.
  explicit CallbackSink(std::function<void(NodeId, NodeId, NodeId)> fn)
      : fn_(std::move(fn)) {}
  void Consume(NodeId x, NodeId y, NodeId z) override { fn_(x, y, z); }

 private:
  std::function<void(NodeId, NodeId, NodeId)> fn_;
};

}  // namespace trilist
