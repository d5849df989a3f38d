// Static timing analysis: graph and longest-path engine.
//
// A directed acyclic timing graph: nodes are pins/nets, edges carry fixed
// delays (precomputed from the NLDM library by the netlist builder). Sources
// are register clk-to-q launch points, sinks are register D pins carrying a
// setup adjustment. The critical path is the max over sinks of
// (launch + Σ edge delays + setup), recovered with its node sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace psnt::sta {

using NodeId = std::uint32_t;

struct CriticalPath {
  Picoseconds arrival{0.0};  // includes source launch and sink setup
  std::vector<std::string> nodes;
};

class TimingGraph {
 public:
  NodeId add_node(std::string name);
  void add_edge(NodeId from, NodeId to, Picoseconds delay);

  // Marks a node as a launch point (path start) with the given clk-to-q.
  void set_source(NodeId node, Picoseconds launch);
  // Marks a node as a capture point (path end) with the given setup time.
  void set_sink(NodeId node, Picoseconds setup);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_; }
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  // Longest path over all source→sink pairs. Throws on cycles or if no
  // source reaches a sink.
  [[nodiscard]] CriticalPath critical_path() const;

  // Arrival time at a specific node (max over paths from any source);
  // negative infinity semantics reported as nullopt-like -1 arrival.
  [[nodiscard]] std::vector<double> arrival_times_ps() const;

 private:
  struct Node {
    std::string name;
    double launch_ps = -1.0;  // >=0 when a source
    double setup_ps = -1.0;   // >=0 when a sink
    std::vector<std::pair<NodeId, double>> fanout;  // (to, delay ps)
    std::uint32_t fanin = 0;
  };

  std::vector<Node> nodes_;
  std::size_t edges_ = 0;
};

}  // namespace psnt::sta
