#include "platform/topology.h"

#include <map>
#include <set>

#include "common/check.h"

namespace streamlib::platform {

const char* GroupingKindName(GroupingKind kind) {
  switch (kind) {
    case GroupingKind::kShuffle: return "shuffle";
    case GroupingKind::kFields: return "fields";
    case GroupingKind::kGlobal: return "global";
    case GroupingKind::kBroadcast: return "broadcast";
  }
  return "unknown";
}

size_t Topology::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < components_.size(); i++) {
    if (components_[i].name == name) return i;
  }
  STREAMLIB_CHECK_MSG(false, "unknown component '%s'", name.c_str());
  return 0;
}

void Topology::ReplaceSpouts(const SpoutFactory& factory) {
  for (ComponentSpec& spec : components_) {
    if (spec.is_spout) spec.spout_factory = factory;
  }
}

TopologyBuilder& TopologyBuilder::AddSpout(const std::string& name,
                                           SpoutFactory factory,
                                           uint32_t parallelism) {
  ComponentSpec spec;
  spec.name = name;
  spec.is_spout = true;
  spec.parallelism = parallelism;
  spec.spout_factory = std::move(factory);
  components_.push_back(std::move(spec));
  return *this;
}

TopologyBuilder& TopologyBuilder::AddBolt(const std::string& name,
                                          BoltFactory factory,
                                          uint32_t parallelism,
                                          std::vector<Subscription> inputs) {
  ComponentSpec spec;
  spec.name = name;
  spec.is_spout = false;
  spec.parallelism = parallelism;
  spec.bolt_factory = std::move(factory);
  spec.inputs = std::move(inputs);
  components_.push_back(std::move(spec));
  return *this;
}

Result<Topology> TopologyBuilder::Build() {
  // Validate names and references.
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < components_.size(); i++) {
    const ComponentSpec& c = components_[i];
    if (c.name.empty()) return Status::InvalidArgument("empty component name");
    if (c.parallelism == 0) {
      return Status::InvalidArgument("component '" + c.name +
                                     "' has parallelism 0");
    }
    if (!index.emplace(c.name, i).second) {
      return Status::InvalidArgument("duplicate component '" + c.name + "'");
    }
    if (c.is_spout && !c.inputs.empty()) {
      return Status::InvalidArgument("spout '" + c.name + "' has inputs");
    }
    if (!c.is_spout && c.inputs.empty()) {
      return Status::InvalidArgument("bolt '" + c.name + "' has no inputs");
    }
  }
  for (const ComponentSpec& c : components_) {
    for (const Subscription& sub : c.inputs) {
      if (index.find(sub.source) == index.end()) {
        return Status::InvalidArgument("bolt '" + c.name +
                                       "' subscribes to unknown '" +
                                       sub.source + "'");
      }
    }
  }

  // Kahn topological sort (also rejects cycles).
  std::vector<size_t> in_degree(components_.size(), 0);
  for (const ComponentSpec& c : components_) {
    (void)c;
  }
  for (size_t i = 0; i < components_.size(); i++) {
    in_degree[i] = components_[i].inputs.size();
  }
  std::vector<size_t> order;
  std::set<size_t> ready;
  for (size_t i = 0; i < components_.size(); i++) {
    if (in_degree[i] == 0) ready.insert(i);
  }
  while (!ready.empty()) {
    const size_t i = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(i);
    for (size_t j = 0; j < components_.size(); j++) {
      for (const Subscription& sub : components_[j].inputs) {
        if (index[sub.source] == i) {
          if (--in_degree[j] == 0) ready.insert(j);
        }
      }
    }
  }
  if (order.size() != components_.size()) {
    return Status::InvalidArgument("topology contains a cycle");
  }

  Topology topology;
  topology.components_.reserve(components_.size());
  for (size_t i : order) topology.components_.push_back(components_[i]);
  return topology;
}

}  // namespace streamlib::platform
