#ifndef IMPLIANCE_VIRT_RESOURCE_GROUP_H_
#define IMPLIANCE_VIRT_RESOURCE_GROUP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node.h"

namespace impliance::virt {

// A group of tightly-coupled nodes assigned the role of cluster, grid, or
// data storage service (Section 3.4). Groups form a hierarchy: leaves hold
// actual resources, interior groups aggregate for macro-level scheduling.
class ResourceGroup {
 public:
  struct Resource {
    uint32_t id = 0;
    cluster::NodeKind kind = cluster::NodeKind::kData;
    bool in_use = false;
  };

  explicit ResourceGroup(std::string name) : name_(std::move(name)) {}

  ResourceGroup(const ResourceGroup&) = delete;
  ResourceGroup& operator=(const ResourceGroup&) = delete;

  const std::string& name() const { return name_; }
  ResourceGroup* parent() const { return parent_; }
  bool is_leaf() const { return children_.empty(); }

  ResourceGroup* AddChild(std::string name);
  const std::vector<std::unique_ptr<ResourceGroup>>& children() const {
    return children_;
  }

  // Leaf-only resource management.
  void AddResource(uint32_t id, cluster::NodeKind kind);

  // Takes a free local resource (marks it in-use); nullopt if none free.
  std::optional<uint32_t> AllocateLocal(cluster::NodeKind kind);
  // Releases an in-use local resource back to free.
  bool Release(uint32_t id);
  // Detaches a FREE resource so it can be transferred to another group.
  std::optional<Resource> Donate(cluster::NodeKind kind);
  void Receive(Resource resource);

  // Counts over this subtree.
  size_t CountFree(cluster::NodeKind kind) const;
  size_t CountTotal(cluster::NodeKind kind) const;

  // Every leaf group in this subtree, depth-first.
  std::vector<ResourceGroup*> Leaves();

 private:
  std::string name_;
  ResourceGroup* parent_ = nullptr;
  std::vector<std::unique_ptr<ResourceGroup>> children_;
  std::vector<Resource> resources_;  // leaf only
};

}  // namespace impliance::virt

#endif  // IMPLIANCE_VIRT_RESOURCE_GROUP_H_
