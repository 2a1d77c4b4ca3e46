#include "cluster/scheduler.h"

namespace impliance::cluster {

Scheduler::Decision Scheduler::Place(OperatorClass op,
                                     const LoadSnapshot& load) const {
  Decision decision;
  switch (op) {
    case OperatorClass::kScanFilter:
      decision.kind = NodeKind::kData;
      decision.pushdown = true;
      // Overloaded storage: fall back to shipping raw data to the grid.
      if (load.data_queue_depth > load.grid_queue_depth + kBusyMargin) {
        decision.kind = NodeKind::kGrid;
        decision.pushdown = false;
      }
      return decision;
    case OperatorClass::kJoinSortAggregate:
      decision.kind = NodeKind::kGrid;
      decision.pushdown = false;
      return decision;
    case OperatorClass::kConsistentUpdate:
      decision.kind = NodeKind::kCluster;
      decision.pushdown = false;
      return decision;
  }
  return decision;
}

size_t Scheduler::ChooseDop(size_t max_workers,
                            const LoadSnapshot& load) const {
  if (max_workers <= 1) return 1;
  // Each unit of mean grid queue depth is one worker's worth of pending
  // work; give it back. kBusyMargin tasks of slack are free (same tolerance
  // Place() grants the data nodes).
  double loaded = load.grid_queue_depth - kBusyMargin;
  if (loaded < 0) loaded = 0;
  const double free_workers = static_cast<double>(max_workers) - loaded;
  if (free_workers <= 1.0) return 1;
  return static_cast<size_t>(free_workers);
}

Scheduler::MoveChoice Scheduler::PickMove(const std::vector<NodeLoad>& loads,
                                          double tolerance) const {
  MoveChoice choice;
  if (loads.size() < 2) return choice;
  size_t total = 0;
  size_t hot_index = 0;
  size_t cold_index = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    total += loads[i].owned_docs;
    if (loads[i].owned_docs > loads[hot_index].owned_docs) hot_index = i;
    if (loads[i].owned_docs < loads[cold_index].owned_docs) cold_index = i;
  }
  const double mean = static_cast<double>(total) / loads.size();
  const size_t hot_docs = loads[hot_index].owned_docs;
  const size_t cold_docs = loads[cold_index].owned_docs;
  if (static_cast<double>(hot_docs) <= tolerance * mean) return choice;
  if (hot_docs < cold_docs + 2) return choice;
  choice.move = true;
  choice.hot = loads[hot_index].node;
  choice.cold = loads[cold_index].node;
  choice.excess = hot_docs - static_cast<size_t>(mean);
  return choice;
}

}  // namespace impliance::cluster
