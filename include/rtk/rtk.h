// Umbrella header for the rtk library: reverse top-k RWR search
// (reproduction of Yu, Mamoulis & Su, "Reverse Top-k Search using Random
// Walk with Restart", PVLDB 7(5), 2014).
//
// Typical usage:
//
//   #include "rtk/rtk.h"
//
//   rtk::Rng rng(42);
//   auto graph = rtk::Rmat(14, 200000, &rng);                 // or LoadEdgeList
//   auto engine = rtk::ReverseTopkEngine::Build(std::move(*graph), {});
//   rtk::QueryStats stats;
//   auto result = (*engine)->Query(/*q=*/7, /*k=*/10, &stats); // node ids
//
// Individual modules (BCA, PMPN, index builder, baselines, workload
// generators) are available through their own headers under src/.

#ifndef RTK_RTK_H_
#define RTK_RTK_H_

#include "apps/popularity.h"  // IWYU pragma: export
#include "apps/spamrank.h"    // IWYU pragma: export
#include "common/cancellation.h"  // IWYU pragma: export
#include "common/result.h"    // IWYU pragma: export
#include "common/rng.h"       // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export
#include "core/batch_query.h"   // IWYU pragma: export
#include "core/brute_force.h"   // IWYU pragma: export
#include "core/engine.h"        // IWYU pragma: export
#include "core/online_query.h"  // IWYU pragma: export
#include "core/upper_bound.h"   // IWYU pragma: export
#include "dynamic/graph_updates.h"   // IWYU pragma: export
#include "exec/proximity_backends.h"  // IWYU pragma: export
#include "exec/proximity_stage.h"  // IWYU pragma: export
#include "exec/prune_stage.h"      // IWYU pragma: export
#include "exec/query_pipeline.h"   // IWYU pragma: export
#include "exec/refine_stage.h"     // IWYU pragma: export
#include "graph/generators.h"   // IWYU pragma: export
#include "graph/graph.h"        // IWYU pragma: export
#include "graph/graph_analysis.h"  // IWYU pragma: export
#include "graph/graph_builder.h"  // IWYU pragma: export
#include "graph/graph_io.h"       // IWYU pragma: export
#include "graph/toy_graphs.h"     // IWYU pragma: export
#include "index/index_io.h"       // IWYU pragma: export
#include "index/index_storage.h"  // IWYU pragma: export
#include "obs/metrics.h"  // IWYU pragma: export
#include "obs/trace.h"    // IWYU pragma: export
#include "rwr/dense_solver.h"     // IWYU pragma: export
#include "rwr/linear_solvers.h"   // IWYU pragma: export
#include "rwr/local_push.h"       // IWYU pragma: export
#include "rwr/monte_carlo.h"      // IWYU pragma: export
#include "rwr/pagerank.h"         // IWYU pragma: export
#include "rwr/pmpn.h"             // IWYU pragma: export
#include "rwr/power_method.h"     // IWYU pragma: export
#include "serving/admission_queue.h"  // IWYU pragma: export
#include "serving/index_snapshot.h"  // IWYU pragma: export
#include "serving/query_cache.h"     // IWYU pragma: export
#include "serving/refinement_log.h"  // IWYU pragma: export
#include "serving/request.h"         // IWYU pragma: export
#include "serving/serving_engine.h"  // IWYU pragma: export
#include "topk/kdash.h"           // IWYU pragma: export
#include "topk/topk_search.h"     // IWYU pragma: export
#include "workload/query_workload.h"  // IWYU pragma: export

#endif  // RTK_RTK_H_
