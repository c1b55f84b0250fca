#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "src/harness.h"

namespace perfbench {

/// Per-layer costs measured by calling each module's public functions
/// directly, on the workload's own tables and on the plans of its own
/// queries:
///   exec     FilterSelection on the pushed-down predicates, HashJoinCore
///            Build/ProbeBatch, GroupedAggState Consume/Seal, SortOperator
///   llap     LlapCacheProvider::ReadChunk on resident and on invalidated
///            chunks (a private cache, so the server's stays untouched)
///   storage  CofReader::Open/ReadColumnChunk, AcidWriter, AcidReader,
///            and the delta directories of the main table
///   exec     SpillChunkWriter/SpillChunkReader throughput
///   metastore OpenTxn + AllocateWriteId + CommitTxn on the live server
/// Keys are per-layer metric names. Stops adding operator samples once
/// `budget_s` seconds have passed. Run after the traced phase: it allocates
/// write ids on the main table.
std::map<std::string, double> MeasureLayers(Instance* instance, double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
