#ifndef IMPLIANCE_CLUSTER_SCHEDULER_H_
#define IMPLIANCE_CLUSTER_SCHEDULER_H_

#include <cstddef>
#include <vector>

#include "cluster/node.h"

namespace impliance::cluster {

// Operator placement (Section 3.3): "the scheduler assigns operators to
// compute nodes based on which operators execute more efficiently ... and
// the availability of resources within the system." Section 3.4 adds the
// load-balancing half: predicate application belongs on storage nodes for
// early reduction, but "at other times the storage nodes may be too busy
// serving data ... and so moving more work to grid nodes will be
// preferred."
//
// The rules are deliberately simple (the appliance knows its operators):
//   scan/filter        -> data nodes (pushdown) while they have slack,
//                         else grid nodes (ship + filter there);
//   join/sort/aggregate-> grid nodes;
//   consistent update  -> cluster nodes.
class Scheduler {
 public:
  enum class OperatorClass {
    kScanFilter,
    kJoinSortAggregate,
    kConsistentUpdate,
  };

  struct LoadSnapshot {
    // Mean queued tasks per alive node of the kind.
    double data_queue_depth = 0;
    double grid_queue_depth = 0;
  };

  struct Decision {
    NodeKind kind = NodeKind::kData;
    bool pushdown = true;  // meaningful for kScanFilter only
  };

  // Data nodes count as "too busy" when their mean queue exceeds the
  // grid's by this many tasks.
  static constexpr double kBusyMargin = 2.0;

  Decision Place(OperatorClass op, const LoadSnapshot& load) const;

  // Degree of parallelism for one query's morsel-parallel segment, given
  // `max_workers` execution slots. Same philosophy as Place(): a rule over
  // the live load picture, not a cost model. A loaded grid (queued
  // background tasks per worker) linearly squeezes the per-query DOP down
  // to 1 so intra-query parallelism never starves concurrent queries.
  size_t ChooseDop(size_t max_workers, const LoadSnapshot& load) const;

  // ------------------------------------------------- Rebalancing policy

  // Per-node serving load: documents this node currently owns (first
  // valid holder) per the directory snapshot.
  struct NodeLoad {
    NodeId node = 0;
    size_t owned_docs = 0;
  };

  // One migration decision for the autonomic balancer: move load from
  // `hot` to `cold`. move=false means the cluster is balanced enough to
  // leave alone.
  struct MoveChoice {
    bool move = false;
    NodeId hot = 0;
    NodeId cold = 0;
    // How many documents the hot node carries beyond the mean — the
    // balancer picks the migration whose size best fits this gap (the
    // swap_defragmentator idea: never overshoot into a new hot spot).
    size_t excess = 0;
  };

  // Policy kernel for one balancer step, a pure rule over the live load
  // picture like Place(): act only when the hottest node exceeds
  // tolerance * mean owned documents AND the hot/cold gap is at least 2
  // (a 1-document gap is noise — moving it just renames the hot node).
  // `loads` must cover exactly the alive data nodes.
  MoveChoice PickMove(const std::vector<NodeLoad>& loads,
                      double tolerance) const;
};

}  // namespace impliance::cluster

#endif  // IMPLIANCE_CLUSTER_SCHEDULER_H_
