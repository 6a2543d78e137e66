#include "cluster/cluster.hpp"

#include <stdexcept>

namespace moon::cluster {

Cluster::Cluster(sim::Simulation& sim, sim::FairnessModel model)
    : sim_(sim), net_(sim, model) {}

NodeId Cluster::add_node(const NodeConfig& config) {
  const NodeId id{nodes_.size()};
  nodes_.push_back(std::make_unique<Node>(sim_, net_, id, config));
  return id;
}

std::vector<NodeId> Cluster::add_nodes(std::size_t n, const NodeConfig& config) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(add_node(config));
  return ids;
}

Node& Cluster::node(NodeId id) {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::out_of_range("Cluster: unknown node");
  }
  return *nodes_[id.value()];
}

const Node& Cluster::node(NodeId id) const {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::out_of_range("Cluster: unknown node");
  }
  return *nodes_[id.value()];
}

std::vector<NodeId> Cluster::all_nodes() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& n : nodes_) ids.push_back(n->id());
  return ids;
}

std::vector<NodeId> Cluster::volatile_nodes() const {
  std::vector<NodeId> ids;
  for (const auto& n : nodes_) {
    if (!n->dedicated()) ids.push_back(n->id());
  }
  return ids;
}

std::vector<NodeId> Cluster::dedicated_nodes() const {
  std::vector<NodeId> ids;
  for (const auto& n : nodes_) {
    if (n->dedicated()) ids.push_back(n->id());
  }
  return ids;
}

std::size_t Cluster::available_count() const {
  std::size_t up = 0;
  for (const auto& n : nodes_) {
    if (n->available()) ++up;
  }
  return up;
}

}  // namespace moon::cluster
