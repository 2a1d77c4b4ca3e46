#include "virt/resource_group.h"

#include <algorithm>

#include "common/logging.h"

namespace impliance::virt {

ResourceGroup* ResourceGroup::AddChild(std::string name) {
  IMPLIANCE_CHECK(resources_.empty())
      << "group " << name_ << " holds resources; cannot become interior";
  children_.push_back(std::make_unique<ResourceGroup>(std::move(name)));
  children_.back()->parent_ = this;
  return children_.back().get();
}

void ResourceGroup::AddResource(uint32_t id, cluster::NodeKind kind) {
  IMPLIANCE_CHECK(is_leaf()) << "resources live in leaf groups only";
  resources_.push_back(Resource{id, kind, false});
}

std::optional<uint32_t> ResourceGroup::AllocateLocal(cluster::NodeKind kind) {
  for (Resource& resource : resources_) {
    if (resource.kind == kind && !resource.in_use) {
      resource.in_use = true;
      return resource.id;
    }
  }
  return std::nullopt;
}

bool ResourceGroup::Release(uint32_t id) {
  for (Resource& resource : resources_) {
    if (resource.id == id && resource.in_use) {
      resource.in_use = false;
      return true;
    }
  }
  return false;
}

std::optional<ResourceGroup::Resource> ResourceGroup::Donate(
    cluster::NodeKind kind) {
  for (size_t i = 0; i < resources_.size(); ++i) {
    if (resources_[i].kind == kind && !resources_[i].in_use) {
      Resource donated = resources_[i];
      resources_.erase(resources_.begin() + i);
      return donated;
    }
  }
  return std::nullopt;
}

void ResourceGroup::Receive(Resource resource) {
  IMPLIANCE_CHECK(is_leaf());
  resource.in_use = false;
  resources_.push_back(resource);
}

size_t ResourceGroup::CountFree(cluster::NodeKind kind) const {
  size_t count = 0;
  for (const Resource& resource : resources_) {
    if (resource.kind == kind && !resource.in_use) ++count;
  }
  for (const auto& child : children_) count += child->CountFree(kind);
  return count;
}

size_t ResourceGroup::CountTotal(cluster::NodeKind kind) const {
  size_t count = 0;
  for (const Resource& resource : resources_) {
    if (resource.kind == kind) ++count;
  }
  for (const auto& child : children_) count += child->CountTotal(kind);
  return count;
}

std::vector<ResourceGroup*> ResourceGroup::Leaves() {
  std::vector<ResourceGroup*> leaves;
  if (is_leaf()) {
    leaves.push_back(this);
    return leaves;
  }
  for (const auto& child : children_) {
    std::vector<ResourceGroup*> sub = child->Leaves();
    leaves.insert(leaves.end(), sub.begin(), sub.end());
  }
  return leaves;
}

}  // namespace impliance::virt
