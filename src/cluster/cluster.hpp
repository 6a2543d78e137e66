// Cluster: the set of nodes plus the shared flow network.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.hpp"
#include "common/ids.hpp"
#include "simkit/flow_network.hpp"
#include "simkit/simulation.hpp"

namespace moon::cluster {

class Cluster {
 public:
  explicit Cluster(sim::Simulation& sim,
                   sim::FairnessModel model = sim::FairnessModel::kMaxMin);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  NodeId add_node(const NodeConfig& config);

  /// Adds `n` identical nodes; returns their ids.
  std::vector<NodeId> add_nodes(std::size_t n, const NodeConfig& config);

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::vector<NodeId> all_nodes() const;
  [[nodiscard]] std::vector<NodeId> volatile_nodes() const;
  [[nodiscard]] std::vector<NodeId> dedicated_nodes() const;

  [[nodiscard]] std::size_t available_count() const;

  [[nodiscard]] sim::FlowNetwork& network() { return net_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

 private:
  sim::Simulation& sim_;
  sim::FlowNetwork net_;
  std::vector<std::unique_ptr<Node>> nodes_;  // index == id value
};

}  // namespace moon::cluster
