#ifndef IMPLIANCE_VIRT_BROKER_H_
#define IMPLIANCE_VIRT_BROKER_H_

#include <cstdint>
#include <optional>

#include "virt/resource_group.h"

namespace impliance::virt {

// Brokers "facilitate the transfer of resources between groups": when a
// group loses a resource it contacts a broker to acquire one from a group
// willing to relinquish it (Section 3.4).
//
// Two search strategies, ablated in experiment E8:
//   kFlat         — one global broker scans every leaf group.
//   kHierarchical — search the requester's siblings first, escalating one
//                   level at a time; locality keeps the number of groups
//                   inspected small as the hierarchy grows.
class Broker {
 public:
  enum class Mode { kFlat, kHierarchical };

  struct Stats {
    uint64_t requests = 0;
    uint64_t satisfied = 0;
    uint64_t groups_inspected = 0;  // management-message proxy
    uint64_t escalations = 0;       // hierarchical only
  };

  Broker(ResourceGroup* root, Mode mode) : root_(root), mode_(mode) {}

  // Finds a donor leaf group with a free resource of `kind` and transfers
  // it into `requester`. Returns the resource id, or nullopt if the whole
  // hierarchy is out of spares.
  std::optional<uint32_t> Acquire(ResourceGroup* requester,
                                  cluster::NodeKind kind);

  const Stats& stats() const { return stats_; }

 private:
  std::optional<uint32_t> AcquireFlat(ResourceGroup* requester,
                                      cluster::NodeKind kind);
  std::optional<uint32_t> AcquireHierarchical(ResourceGroup* requester,
                                              cluster::NodeKind kind);
  // Transfers a free resource from any leaf under `scope` (excluding
  // `requester`) into `requester`; counts inspected groups.
  std::optional<uint32_t> TransferWithin(ResourceGroup* scope,
                                         ResourceGroup* requester,
                                         cluster::NodeKind kind);

  ResourceGroup* root_;
  Mode mode_;
  Stats stats_;
};

}  // namespace impliance::virt

#endif  // IMPLIANCE_VIRT_BROKER_H_
