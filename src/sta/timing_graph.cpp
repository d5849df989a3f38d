#include "sta/timing_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/error.h"

namespace psnt::sta {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

NodeId TimingGraph::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name), -1.0, -1.0, {}, 0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void TimingGraph::add_edge(NodeId from, NodeId to, Picoseconds delay) {
  PSNT_CHECK(from < nodes_.size() && to < nodes_.size(), "bad edge endpoint");
  PSNT_CHECK(delay.value() >= 0.0, "negative edge delay");
  nodes_[from].fanout.emplace_back(to, delay.value());
  ++nodes_[to].fanin;
  ++edges_;
}

void TimingGraph::set_source(NodeId node, Picoseconds launch) {
  PSNT_CHECK(node < nodes_.size(), "bad node id");
  PSNT_CHECK(launch.value() >= 0.0, "negative launch time");
  nodes_[node].launch_ps = launch.value();
}

void TimingGraph::set_sink(NodeId node, Picoseconds setup) {
  PSNT_CHECK(node < nodes_.size(), "bad node id");
  PSNT_CHECK(setup.value() >= 0.0, "negative setup time");
  nodes_[node].setup_ps = setup.value();
}

const std::string& TimingGraph::node_name(NodeId id) const {
  PSNT_CHECK(id < nodes_.size(), "bad node id");
  return nodes_[id].name;
}

std::vector<double> TimingGraph::arrival_times_ps() const {
  std::vector<double> arrival(nodes_.size(), kNegInf);
  std::vector<std::uint32_t> fanin(nodes_.size());
  std::queue<NodeId> ready;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    fanin[i] = nodes_[i].fanin;
    if (nodes_[i].launch_ps >= 0.0) arrival[i] = nodes_[i].launch_ps;
    if (fanin[i] == 0) ready.push(i);
  }

  std::size_t visited = 0;
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop();
    ++visited;
    for (const auto& [v, delay] : nodes_[u].fanout) {
      if (arrival[u] > kNegInf) {
        arrival[v] = std::max(arrival[v], arrival[u] + delay);
      }
      if (--fanin[v] == 0) ready.push(v);
    }
  }
  PSNT_CHECK(visited == nodes_.size(), "timing graph contains a cycle");
  return arrival;
}

CriticalPath TimingGraph::critical_path() const {
  const std::vector<double> arrival = arrival_times_ps();

  // Find the worst sink including its setup adjustment.
  NodeId worst = 0;
  double worst_cost = kNegInf;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].setup_ps < 0.0 || arrival[i] == kNegInf) continue;
    const double cost = arrival[i] + nodes_[i].setup_ps;
    if (cost > worst_cost) {
      worst_cost = cost;
      worst = i;
    }
  }
  PSNT_CHECK(worst_cost > kNegInf, "no source reaches any sink");

  // Recover the path by walking predecessors that realise the arrival.
  // Build a reverse adjacency on the fly (graphs here are small).
  std::vector<std::vector<std::pair<NodeId, double>>> fanin_edges(
      nodes_.size());
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (const auto& [v, delay] : nodes_[u].fanout) {
      fanin_edges[v].emplace_back(u, delay);
    }
  }

  std::vector<std::string> path;
  NodeId cur = worst;
  path.push_back(nodes_[cur].name);
  while (nodes_[cur].launch_ps < 0.0 ||
         arrival[cur] != nodes_[cur].launch_ps) {
    bool found = false;
    for (const auto& [u, delay] : fanin_edges[cur]) {
      if (arrival[u] > kNegInf &&
          std::abs(arrival[u] + delay - arrival[cur]) < 1e-9) {
        cur = u;
        path.push_back(nodes_[cur].name);
        found = true;
        break;
      }
    }
    PSNT_CHECK(found, "failed to recover the critical path");
  }
  std::reverse(path.begin(), path.end());

  CriticalPath result;
  result.arrival = Picoseconds{worst_cost};
  result.nodes = std::move(path);
  return result;
}

}  // namespace psnt::sta
