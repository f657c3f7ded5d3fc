// rtk_cli — command-line driver for the reverse top-k engine.
//
// Subcommands:
//   build-index <edge_list> <index_out> [K] [B]   build + persist an index
//   query <edge_list> <index> <q> <k> [threads]   run one reverse top-k query
//                                                 (threads != 1: staged
//                                                 pipeline fans out;
//                                                 --backend selects the
//                                                 stage-1 estimator)
//   stats <edge_list> <index>                     print index statistics
//   index-info <index>                            inspect an index file:
//                                                 format version, shard
//                                                 layout, sizes (no graph
//                                                 needed)
//   topk <edge_list> <u> <k>                      forward top-k (exact)
//   pagerank <edge_list> [count]                  top PageRank nodes
//   contrib <edge_list> <q> [count]               top contributors to q (PMPN)
//   analyze <edge_list>                           degree/SCC/power-law report
//   generate <kind> <out> [scale]                 emit a synthetic edge list
//                                                 (kind: rmat | ba | er | ws)
//   serve-bench <edge_list> <index> [k] [queries] [threads]
//                                                 concurrent ServingEngine vs
//                                                 mutex-serialized baseline
//                                                 (--mutation-rate N races a
//                                                 live edge-update stream
//                                                 against the queries;
//                                                 --adaptive on turns on the
//                                                 AIMD approximation-budget
//                                                 controller and prints its
//                                                 final state)
//
// Node ids refer to the edge list after dense relabeling in first-appearance
// order (the loader's default), matching what build-index used.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "core/engine.h"
#include "exec/proximity_backends.h"
#include "graph/generators.h"
#include "graph/graph_analysis.h"
#include "graph/graph_io.h"
#include "index/index_io.h"
#include "rwr/pagerank.h"
#include "rwr/pmpn.h"
#include "rwr/power_method.h"
#include "serving/serving_engine.h"
#include "topk/topk_search.h"
#include "workload/query_workload.h"

namespace {

using namespace rtk;

// --backend <name> (or --backend=<name>), extracted before positional
// parsing. Empty = the default exact PMPN pipeline.
std::string g_backend;

// --metrics <path>: serve-bench writes the engine's final metrics snapshot
// (Prometheus text exposition) here. Empty = don't write.
std::string g_metrics_path;

// --max-batch <n> / --batch-window <seconds>: serve-bench batch former
// settings (ServingOptions::max_batch / batch_window). max_batch <= 1
// (the default) leaves batching off.
size_t g_max_batch = 1;
double g_batch_window = 0.0;

// --storage-tier heap|mmap: memory tier for index loads (query, stats,
// index-info, serve-bench). mmap opens a sharded (v2 or v3) file in
// O(directory) time and faults shard bytes on demand; results are
// identical.
std::string g_storage_tier = "heap";

// --mutation-rate <updates/s>: serve-bench races a background edge-update
// stream against the query workload via ServingEngine::ApplyUpdates — the
// live-mutation mixed read/write mode. 0 (the default) = no mutations.
double g_mutation_rate = 0.0;

// --adaptive on|off: self-tuning approximation. For `query`, on forces
// partial escalation + bound-targeted epsilon and off disables partial
// escalation (full-row escalation only); for `serve-bench`, on enables the
// per-backend AIMD budget controller (final controller state is printed
// after the run). Empty = the engine defaults (partial escalation on,
// controller off).
std::string g_adaptive;

// --read-only: serve-bench serves approximate hits-only requests with no
// index write-back and skips the mutex-serialized baseline. With the mmap
// tier, every scan streams from the map and nothing materializes — the
// anonymous-memory footprint stays near-constant no matter how large the
// index file is (the larger-than-RAM serving mode; CI runs it under
// ulimit -d).
bool g_read_only = false;

bool ParseStorageTier(StorageTier* tier) {
  if (g_storage_tier == "heap") {
    *tier = StorageTier::kHeap;
    return true;
  }
  if (g_storage_tier == "mmap") {
    *tier = StorageTier::kMmap;
    return true;
  }
  return false;
}

// Strips "--backend foo" / "--backend=foo" / "--metrics out.prom" /
// "--max-batch 16" / "--batch-window 0.001" out of argv, compacting it so
// the positional subcommand parsers never see the flags.
int ExtractBackendFlag(int argc, char** argv) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      g_backend = argv[++i];
      continue;
    }
    if (arg.rfind("--backend=", 0) == 0) {
      g_backend = arg.substr(10);
      continue;
    }
    if (arg == "--metrics" && i + 1 < argc) {
      g_metrics_path = argv[++i];
      continue;
    }
    if (arg.rfind("--metrics=", 0) == 0) {
      g_metrics_path = arg.substr(10);
      continue;
    }
    if (arg == "--max-batch" && i + 1 < argc) {
      g_max_batch = static_cast<size_t>(std::atoll(argv[++i]));
      continue;
    }
    if (arg.rfind("--max-batch=", 0) == 0) {
      g_max_batch = static_cast<size_t>(std::atoll(arg.c_str() + 12));
      continue;
    }
    if (arg == "--batch-window" && i + 1 < argc) {
      g_batch_window = std::atof(argv[++i]);
      continue;
    }
    if (arg.rfind("--batch-window=", 0) == 0) {
      g_batch_window = std::atof(arg.c_str() + 15);
      continue;
    }
    if (arg == "--storage-tier" && i + 1 < argc) {
      g_storage_tier = argv[++i];
      continue;
    }
    if (arg.rfind("--storage-tier=", 0) == 0) {
      g_storage_tier = arg.substr(15);
      continue;
    }
    if (arg == "--mutation-rate" && i + 1 < argc) {
      g_mutation_rate = std::atof(argv[++i]);
      continue;
    }
    if (arg.rfind("--mutation-rate=", 0) == 0) {
      g_mutation_rate = std::atof(arg.c_str() + 16);
      continue;
    }
    if (arg == "--adaptive" && i + 1 < argc) {
      g_adaptive = argv[++i];
      continue;
    }
    if (arg.rfind("--adaptive=", 0) == 0) {
      g_adaptive = arg.substr(11);
      continue;
    }
    if (arg == "--read-only") {
      g_read_only = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  return out;
}

std::string RegisteredBackendList() {
  std::string names;
  for (std::string_view name : RegisteredProximityBackendNames()) {
    if (!names.empty()) names += "|";
    names += name;
  }
  return names;
}

int Usage() {
  const std::string backends = RegisteredBackendList();
  std::fprintf(stderr,
               "usage:\n"
               "  rtk_cli build-index <edge_list> <index_out> [K=100] [B=n/50]\n"
               "  rtk_cli query <edge_list> <index> <q> <k> [threads=1] "
               "[--backend <name>] [--adaptive on|off]\n"
               "  rtk_cli stats <edge_list> <index>\n"
               "  rtk_cli index-info <index>\n"
               "  rtk_cli topk <edge_list> <u> <k>\n"
               "  rtk_cli pagerank <edge_list> [count=10]\n"
               "  rtk_cli contrib <edge_list> <q> [count=10]\n"
               "  rtk_cli analyze <edge_list>\n"
               "  rtk_cli generate <rmat|ba|er|ws> <out> [scale=12]\n"
               "  rtk_cli serve-bench <edge_list> <index> [k=10] "
               "[queries=500] [threads=hardware] [--backend <name>]\n"
               "                      [--metrics <out.prom>] "
               "[--max-batch <n>] [--batch-window <seconds>] [--read-only]\n"
               "                      [--adaptive on|off]  (on: feedback-"
               "driven AIMD approximation budgets;\n"
               "                      the final per-backend controller state "
               "is printed after the run)\n"
               "                      [--mutation-rate <updates/s>]  "
               "(races a live ApplyUpdates edge stream\n"
               "                      against the queries; each publish "
               "pins a new graph version)\n"
               "\n"
               "index-loading commands also accept --storage-tier heap|mmap\n"
               "  (mmap: O(directory) open of a sharded v2/v3 file, shard\n"
               "  bytes faulted on demand; identical results to heap).\n"
               "\n"
               "registered proximity backends (--backend): %s\n"
               "  exact results at every choice: approximate backends run\n"
               "  error-certified pruning, settle stragglers with targeted\n"
               "  per-node solves (partial escalation), and escalate to a\n"
               "  full pmpn row only when even that cannot decide.\n",
               backends.c_str());
  return 2;
}

Result<Graph> Load(const std::string& path) { return LoadEdgeList(path); }

// Index-loading commands share the --storage-tier flag through here.
Result<std::unique_ptr<ReverseTopkEngine>> LoadEngine(
    Graph graph, const std::string& index_path) {
  EngineOptions opts;
  if (!ParseStorageTier(&opts.storage_tier)) {
    return Status::InvalidArgument("unknown --storage-tier: " + g_storage_tier +
                                   " (expected heap|mmap)");
  }
  return ReverseTopkEngine::LoadFromFile(std::move(graph), index_path, opts);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

EngineOptions MakeOptions(const Graph& graph, int argc, char** argv,
                          int k_arg, int b_arg) {
  EngineOptions opts;
  opts.capacity_k =
      (argc > k_arg) ? static_cast<uint32_t>(std::atoi(argv[k_arg])) : 100;
  const uint32_t b = (argc > b_arg)
                         ? static_cast<uint32_t>(std::atoi(argv[b_arg]))
                         : graph.num_nodes() / 50 + 1;
  opts.hub_selection.degree_budget_b = b;
  return opts;
}

int CmdBuildIndex(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("loaded %s\n", graph->ToString().c_str());
  EngineOptions opts = MakeOptions(*graph, argc, argv, 4, 5);
  auto engine = ReverseTopkEngine::Build(std::move(*graph), opts);
  if (!engine.ok()) return Fail(engine.status());
  const IndexStats stats = (*engine)->index_stats();
  std::printf("index built in %.2fs: K=%u |H|=%u size=%.2f MiB exact=%llu\n",
              (*engine)->build_report().total_seconds, stats.capacity_k,
              stats.num_hubs, stats.TotalBytes() / 1048576.0,
              static_cast<unsigned long long>(stats.exact_nodes));
  if (auto s = (*engine)->SaveIndex(argv[3]); !s.ok()) return Fail(s);
  std::printf("saved to %s\n", argv[3]);
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 6) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  auto engine = LoadEngine(std::move(*graph), argv[3]);
  if (!engine.ok()) return Fail(engine.status());
  const uint32_t q = static_cast<uint32_t>(std::atoi(argv[4]));
  const uint32_t k = static_cast<uint32_t>(std::atoi(argv[5]));
  QueryOptions query_opts;
  query_opts.k = k;
  query_opts.pmpn = (*engine)->options().solver;
  query_opts.num_threads = (argc > 6) ? std::atoi(argv[6]) : 1;
  query_opts.proximity.name = g_backend;
  if (g_adaptive == "on") {
    query_opts.partial_escalation = true;
    query_opts.bound_targeted_epsilon = true;
  } else if (g_adaptive == "off") {
    query_opts.partial_escalation = false;
  }
  QueryStats stats;
  auto result = (*engine)->QueryWithOptions(q, query_opts, &stats);
  if (!result.ok()) return Fail(result.status());
  std::string escalation;
  if (stats.escalation_mode == EscalationMode::kFull) {
    escalation = ", escalated to pmpn";
  } else if (stats.escalation_mode == EscalationMode::kPartial) {
    escalation = ", partial escalation: " +
                 std::to_string(stats.escalated_nodes) + " nodes settled in " +
                 std::to_string(stats.settle_pushes) + " pushes";
  }
  std::printf("reverse top-%u of node %u: %zu nodes "
              "(cand=%llu hits=%llu refined=%llu, %.1f ms on %d threads: "
              "prox %.1f + prune %.1f + refine %.1f, of which %llu exact "
              "fallbacks %.1f; backend=%s%s)\n",
              k, q, result->size(),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.refined_nodes),
              stats.total_seconds * 1e3, stats.threads_used,
              stats.pmpn_seconds * 1e3, stats.prune_seconds * 1e3,
              stats.refine_seconds * 1e3,
              static_cast<unsigned long long>(stats.exact_fallbacks),
              stats.exact_fallback_seconds * 1e3, stats.backend.c_str(),
              escalation.c_str());
  for (uint32_t u : *result) std::printf("%u\n", u);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  auto engine = LoadEngine(std::move(*graph), argv[3]);
  if (!engine.ok()) return Fail(engine.status());
  const IndexStats s = (*engine)->index_stats();
  std::printf("nodes:        %u\n", s.num_nodes);
  std::printf("capacity K:   %u\n", s.capacity_k);
  std::printf("hubs:         %u\n", s.num_hubs);
  std::printf("exact nodes:  %llu\n",
              static_cast<unsigned long long>(s.exact_nodes));
  std::printf("top-K bytes:  %llu\n",
              static_cast<unsigned long long>(s.topk_bytes));
  std::printf("state bytes:  %llu (%llu states, %llu entries)\n",
              static_cast<unsigned long long>(s.state_bytes),
              static_cast<unsigned long long>(s.stored_states),
              static_cast<unsigned long long>(s.state_entries));
  std::printf("hub bytes:    %llu (stored %llu entries, dropped %llu)\n",
              static_cast<unsigned long long>(s.hub_store_bytes),
              static_cast<unsigned long long>(s.hub_entries_stored),
              static_cast<unsigned long long>(s.hub_entries_dropped));
  std::printf("total:        %.2f MiB\n", s.TotalBytes() / 1048576.0);
  return 0;
}

int CmdIndexInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string path = argv[2];
  auto info = ReadIndexFileInfo(path);
  if (!info.ok()) return Fail(info.status());
  std::printf("file:           %s (%.2f MiB)\n", path.c_str(),
              info->file_bytes / 1048576.0);
  std::printf("format version: %u%s\n", info->format_version,
              info->format_version == 1 ? " (legacy monolithic)" : "");
  std::printf("nodes:          %u\n", info->num_nodes);
  std::printf("capacity K:     %u\n", info->capacity_k);
  std::printf("hubs:           %u (%llu stored entries)\n", info->num_hubs,
              static_cast<unsigned long long>(info->hub_entries));
  if (info->format_version >= 2) {
    std::printf("shard layout:   %u shards x %u nodes\n", info->num_shards,
                info->shard_nodes);
  } else {
    std::printf("shard layout:   none (v1 file; loads into default shards)\n");
  }

  // Full load for the payload-level statistics. The heap tier verifies
  // every checksum eagerly; the mmap tier opens in O(directory) and the
  // residency line below shows 0 resident shards.
  ThreadPool pool(ThreadPool::DefaultThreads());
  LoadIndexOptions load_opts;
  load_opts.pool = &pool;
  if (!ParseStorageTier(&load_opts.tier)) {
    return Fail(Status::InvalidArgument("unknown --storage-tier: " +
                                        g_storage_tier +
                                        " (expected heap|mmap)"));
  }
  auto index = LoadIndex(path, info->num_nodes, load_opts);
  if (!index.ok()) return Fail(index.status());
  const StorageResidency residency = index->residency();
  std::printf("storage tier:   %s (%u / %u shards resident%s)\n",
              residency.tier == StorageTier::kMmap ? "mmap" : "heap",
              residency.resident_shards, residency.total_shards,
              residency.tier == StorageTier::kMmap ? ", cold shards on map"
                                                   : "");
  const IndexStats s = index->ComputeStats();
  std::printf("exact nodes:    %llu / %u\n",
              static_cast<unsigned long long>(s.exact_nodes), s.num_nodes);
  std::printf("top-K bytes:    %llu\n",
              static_cast<unsigned long long>(s.topk_bytes));
  std::printf("state bytes:    %llu (%llu states, %llu entries)\n",
              static_cast<unsigned long long>(s.state_bytes),
              static_cast<unsigned long long>(s.stored_states),
              static_cast<unsigned long long>(s.state_entries));
  std::printf("hub bytes:      %llu (dropped %llu entries by rounding)\n",
              static_cast<unsigned long long>(s.hub_store_bytes),
              static_cast<unsigned long long>(s.hub_entries_dropped));
  std::printf("total:          %.2f MiB\n", s.TotalBytes() / 1048576.0);
  if (!s.shard_bytes.empty()) {
    uint64_t min_b = s.shard_bytes[0], max_b = s.shard_bytes[0], sum = 0;
    for (uint64_t b : s.shard_bytes) {
      min_b = std::min(min_b, b);
      max_b = std::max(max_b, b);
      sum += b;
    }
    std::printf("shard bytes:    min %llu / avg %llu / max %llu\n",
                static_cast<unsigned long long>(min_b),
                static_cast<unsigned long long>(sum / s.shard_bytes.size()),
                static_cast<unsigned long long>(max_b));
  }
  if (!info->shard_offsets.empty()) {
    // Per-shard directory table: file regions straight from the v2 or v3
    // header (no payload read), plus each shard's residency under the
    // loaded tier. With many shards, elide the middle.
    std::printf("shard directory (offset / bytes / checksum / residency):\n");
    const uint32_t shards = info->num_shards;
    constexpr uint32_t kHead = 8, kTail = 4;
    for (uint32_t sh = 0; sh < shards; ++sh) {
      if (shards > kHead + kTail + 1 && sh == kHead) {
        std::printf("  ... %u shards elided ...\n", shards - kHead - kTail);
        sh = shards - kTail - 1;
        continue;
      }
      const auto [first, last] = index->ShardNodeRange(sh);
      std::printf("  shard %4u  nodes [%7u, %7u)  @%-10llu %9llu B"
                  "  %016llx  %s\n",
                  sh, first, last,
                  static_cast<unsigned long long>(info->shard_offsets[sh]),
                  static_cast<unsigned long long>(info->shard_bytes[sh]),
                  static_cast<unsigned long long>(info->shard_checksums[sh]),
                  index->ShardResident(sh) ? "resident" : "cold");
    }
  }
  return 0;
}

int CmdTopk(int argc, char** argv) {
  if (argc < 5) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  TransitionOperator op(*graph);
  const uint32_t u = static_cast<uint32_t>(std::atoi(argv[3]));
  const uint32_t k = static_cast<uint32_t>(std::atoi(argv[4]));
  auto top = ExactTopK(op, u, k);
  if (!top.ok()) return Fail(top.status());
  for (const auto& [node, value] : *top) {
    std::printf("%u\t%.8f\n", node, value);
  }
  return 0;
}

int CmdPagerank(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  TransitionOperator op(*graph);
  auto pr = ComputePageRank(op);
  if (!pr.ok()) return Fail(pr.status());
  const int count = argc > 3 ? std::atoi(argv[3]) : 10;
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(pr->size());
  for (uint32_t u = 0; u < pr->size(); ++u) ranked.push_back({(*pr)[u], u});
  std::sort(ranked.rbegin(), ranked.rend());
  for (int i = 0; i < count && i < static_cast<int>(ranked.size()); ++i) {
    std::printf("%u\t%.8f\n", ranked[i].second, ranked[i].first);
  }
  return 0;
}

int CmdContrib(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  TransitionOperator op(*graph);
  const uint32_t q = static_cast<uint32_t>(std::atoi(argv[3]));
  auto row = ComputeProximityToNode(op, q);
  if (!row.ok()) return Fail(row.status());
  const int count = argc > 4 ? std::atoi(argv[4]) : 10;
  std::vector<std::pair<double, uint32_t>> ranked;
  double total = 0.0;
  for (uint32_t u = 0; u < row->size(); ++u) {
    if (u == q) continue;
    total += (*row)[u];
    if ((*row)[u] > 0.0) ranked.push_back({(*row)[u], u});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("# aggregated external contribution to %u: %.6f "
              "(n*pagerank identity, self excluded)\n", q, total);
  for (int i = 0; i < count && i < static_cast<int>(ranked.size()); ++i) {
    std::printf("%u\t%.8f\n", ranked[i].second, ranked[i].first);
  }
  return 0;
}

int CmdAnalyze(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("graph:          %s\n", graph->ToString().c_str());

  const DegreeStatistics deg = ComputeDegreeStatistics(*graph);
  std::printf("mean degree:    %.2f\n", deg.mean_degree);
  std::printf("out-degree:     min %u max %u\n", deg.min_out, deg.max_out);
  std::printf("in-degree:      min %u max %u (gini %.3f)\n", deg.min_in,
              deg.max_in, deg.in_degree_gini);

  const SccResult scc = StronglyConnectedComponents(*graph);
  std::printf("SCCs:           %u (largest %u = %.1f%% of nodes)\n",
              scc.num_components, scc.largest_size,
              100.0 * scc.largest_size / graph->num_nodes());

  // Theorem 1's beta, estimated from a sample proximity vector (the paper
  // plugs in 0.76 from the literature).
  TransitionOperator op(*graph);
  auto col = ComputeProximityColumn(op, 0);
  if (col.ok()) {
    auto beta = EstimatePowerLawExponent(*col);
    if (beta.ok()) {
      std::printf("proximity beta: %.3f (Theorem 1 power-law exponent; "
                  "paper uses 0.76)\n", *beta);
    }
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string kind = argv[2];
  const uint32_t scale = argc > 4 ? std::atoi(argv[4]) : 12;
  Rng rng(42);
  Result<Graph> graph = Status::InvalidArgument("unknown kind: " + kind);
  const uint32_t n = 1u << scale;
  if (kind == "rmat") {
    graph = Rmat(scale, static_cast<uint64_t>(n) * 10, &rng);
  } else if (kind == "ba") {
    graph = BarabasiAlbert(n, 5, &rng);
  } else if (kind == "er") {
    graph = ErdosRenyi(n, static_cast<uint64_t>(n) * 8, &rng);
  } else if (kind == "ws") {
    graph = WattsStrogatz(n, 6, 0.1, &rng);
  }
  if (!graph.ok()) return Fail(graph.status());
  if (auto s = SaveEdgeList(*graph, argv[3]); !s.ok()) return Fail(s);
  std::printf("wrote %s: %s\n", argv[3], graph->ToString().c_str());
  return 0;
}

int CmdServeBench(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto graph = Load(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  auto engine = LoadEngine(std::move(*graph), argv[3]);
  if (!engine.ok()) return Fail(engine.status());
  const uint32_t k = argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 10;
  const size_t num_queries =
      argc > 5 ? static_cast<size_t>(std::atoll(argv[5])) : 500;
  const int threads = std::max(
      1, argc > 6 ? std::atoi(argv[6])
                  : static_cast<int>(
                        std::max(1u, std::thread::hardware_concurrency())));

  Rng rng(7);
  const std::vector<uint32_t> workload =
      SampleQueries((*engine)->graph(), num_queries,
                    QueryDistribution::kInDegreeBiased, &rng);

  ServingOptions serving_opts;
  serving_opts.num_threads = threads;
  // --backend routes BOTH tiers through the chosen estimator (exact-tier
  // requests stay result-identical via certify-or-escalate); Create()
  // rejects an unknown name.
  serving_opts.exact_tier_backend.name = g_backend;
  serving_opts.approximate_tier_backend.name = g_backend;
  // --max-batch / --batch-window: the fused multi-query batch former
  // (PMPN tiers fuse; other backends' requests run side by side).
  serving_opts.max_batch = g_max_batch;
  serving_opts.batch_window = g_batch_window;
  // --adaptive on: per-backend AIMD budget controller (escalations tighten
  // the approximation budget, certified queries decay it back).
  if (g_adaptive == "on") serving_opts.adaptive = true;
  if (g_adaptive == "off") serving_opts.adaptive = false;
  auto serving = ServingEngine::Create(**engine, serving_opts);
  if (!serving.ok()) return Fail(serving.status());

  // --mutation-rate: a background writer toggles a small set of edges
  // absent from the base graph (insert batch, delete batch, repeat) at the
  // requested updates/s, each ApplyUpdates publish pinning a new graph
  // version while the query workload runs. Insert-then-delete keeps every
  // batch valid indefinitely and returns the graph to its base state.
  std::atomic<bool> mutation_stop{false};
  std::thread mutation_writer;
  if (g_mutation_rate > 0.0) {
    constexpr size_t kBatchEdges = 4;
    std::vector<EdgeUpdate> inserts;
    Rng erng(23);
    const Graph& g = (*engine)->graph();
    while (inserts.size() < kBatchEdges) {
      const auto u = static_cast<uint32_t>(erng.Uniform(g.num_nodes()));
      const auto v = static_cast<uint32_t>(erng.Uniform(g.num_nodes()));
      const auto nbrs = g.OutNeighbors(u);
      if (u == v || std::binary_search(nbrs.begin(), nbrs.end(), v)) continue;
      bool dup = false;
      for (const EdgeUpdate& e : inserts) {
        if (e.src == u && e.dst == v) dup = true;
      }
      if (!dup) inserts.push_back(EdgeUpdate::Insert(u, v));
    }
    std::vector<EdgeUpdate> deletes;
    for (const EdgeUpdate& e : inserts) {
      deletes.push_back(EdgeUpdate::Delete(e.src, e.dst));
    }
    const auto interval = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(std::chrono::duration<double>(
        static_cast<double>(kBatchEdges) / g_mutation_rate));
    mutation_writer = std::thread([&mutation_stop, interval,
                                   serving = serving->get(),
                                   inserts = std::move(inserts),
                                   deletes = std::move(deletes)] {
      bool inserted = false;
      while (!mutation_stop.load(std::memory_order_relaxed)) {
        GraphUpdateBatch batch = inserted ? deletes : inserts;
        if (!serving->ApplyUpdates(std::move(batch)).get().ok()) return;
        inserted = !inserted;
        std::this_thread::sleep_for(interval);
      }
      if (inserted) {
        (void)serving->ApplyUpdates(GraphUpdateBatch(deletes)).get();
      }
    });
  }

  Stopwatch serving_watch;
  std::vector<QueryResponse> batch;
  if (g_read_only) {
    // Hits-only, no write-back: pure streaming prune scans. Over the mmap
    // tier this serves without materializing a single shard.
    std::vector<QueryRequest> requests;
    requests.reserve(workload.size());
    for (uint32_t q : workload) {
      QueryRequest request;
      request.query = q;
      request.k = k;
      request.priority = RequestPriority::kBatch;
      request.tier = AccuracyTier::kApproximateHitsOnly;
      request.update_index = false;
      requests.push_back(std::move(request));
    }
    batch = (*serving)->SubmitBatch(std::move(requests));
  } else {
    batch = (*serving)->QueryBatch(workload, k);
  }
  const double serving_seconds = serving_watch.ElapsedSeconds();
  mutation_stop.store(true, std::memory_order_relaxed);
  if (mutation_writer.joinable()) mutation_writer.join();
  for (const QueryResponse& response : batch) {
    if (!response.ok()) return Fail(response.status);
  }
  const ServingStats sstats = (*serving)->stats();
  // Latency percentiles come from the engine's own request histogram —
  // the same numbers a live scrape would report — instead of a
  // client-side sorted sample vector.
  const MetricsSnapshot metrics = (*serving)->Metrics();
  const HistogramSnapshot* latency =
      metrics.HistogramOf("rtk_serving_request_seconds");
  const HistogramSnapshot empty_latency;
  if (latency == nullptr) latency = &empty_latency;

  // Baseline: the engine's only safe concurrent recipe without the serving
  // layer — every query behind one global mutex. Skipped in --read-only
  // mode: the direct engine path refines (defeating the bounded-memory
  // point of the mode), and the comparison would be hits-only vs exact.
  double mutex_seconds = 0.0;
  if (!g_read_only) {
    std::mutex mu;
    std::vector<std::thread> baseline_threads;
    const size_t per_thread = (workload.size() + threads - 1) / threads;
    Stopwatch mutex_watch;
    for (int t = 0; t < threads; ++t) {
      const size_t begin = std::min(workload.size(), t * per_thread);
      const size_t end = std::min(workload.size(), begin + per_thread);
      baseline_threads.emplace_back([&, begin, end] {
        for (size_t i = begin; i < end; ++i) {
          std::lock_guard<std::mutex> lock(mu);
          auto r = (*engine)->Query(workload[i], k);
          if (!r.ok()) std::abort();
        }
      });
    }
    for (auto& thread : baseline_threads) thread.join();
    mutex_seconds = mutex_watch.ElapsedSeconds();
  }

  const double n = static_cast<double>(workload.size());
  std::printf("workload: %zu queries, k=%u, %d threads%s\n", workload.size(),
              k, threads, g_read_only ? " (read-only, hits-only tier)" : "");
  if (g_read_only) {
    std::printf("serving engine:          %8.1f q/s  (%.3fs)\n",
                n / serving_seconds, serving_seconds);
  } else {
    std::printf("mutex-serialized engine: %8.1f q/s  (%.3fs)\n",
                n / mutex_seconds, mutex_seconds);
    std::printf("serving engine:          %8.1f q/s  (%.3fs)  %.2fx\n",
                n / serving_seconds, serving_seconds,
                mutex_seconds / serving_seconds);
  }
  std::printf("request latency: p50 %.2f ms / p95 %.2f ms / p99 %.2f ms "
              "(queue peak %zu, shed %llu)\n",
              latency->Percentile(50) * 1e3, latency->Percentile(95) * 1e3,
              latency->Percentile(99) * 1e3, sstats.peak_queue_depth,
              static_cast<unsigned long long>(sstats.shed));
  std::printf("cache: %llu hits / %llu lookups; refinement: %llu deltas "
              "recorded, %llu applied over %llu epochs\n",
              static_cast<unsigned long long>(sstats.cache_hits),
              static_cast<unsigned long long>(sstats.cache_hits +
                                              sstats.cache_misses),
              static_cast<unsigned long long>(sstats.deltas_recorded),
              static_cast<unsigned long long>(sstats.deltas_applied),
              static_cast<unsigned long long>(sstats.epochs_published));
  if (g_mutation_rate > 0.0) {
    std::printf("mutation stream: %.0f updates/s offered; %llu batches "
                "(%llu updates) published -> graph version %llu "
                "(%llu repaired / %llu invalidated / %llu rebuilt, "
                "%llu stale refinements dropped)\n",
                g_mutation_rate,
                static_cast<unsigned long long>(sstats.mutation_batches),
                static_cast<unsigned long long>(sstats.mutation_updates),
                static_cast<unsigned long long>(sstats.graph_version),
                static_cast<unsigned long long>(sstats.mutation_repairs),
                static_cast<unsigned long long>(sstats.mutation_invalidations),
                static_cast<unsigned long long>(sstats.mutation_rebuilds),
                static_cast<unsigned long long>(
                    sstats.refinements_dropped_stale));
  }
  std::printf("backend: %s (%llu exact-tier / %llu hits-only requests, "
              "%llu escalations to pmpn)\n",
              g_backend.empty() ? "pmpn" : g_backend.c_str(),
              static_cast<unsigned long long>(sstats.exact_tier_queries),
              static_cast<unsigned long long>(sstats.approximate_tier_queries),
              static_cast<unsigned long long>(sstats.backend_escalations));
  if (serving_opts.adaptive) {
    std::printf("adaptive budgets: %llu resets (mutation publishes clear "
                "learned state)\n",
                static_cast<unsigned long long>(sstats.adaptive_resets));
    for (const BackendBudgetState& budget : sstats.adaptive_budgets) {
      std::printf("  %-12s scale %.2f  (%llu certified, %llu partial / "
                  "%llu full escalations)\n",
                  budget.backend.c_str(), budget.scale,
                  static_cast<unsigned long long>(budget.certified),
                  static_cast<unsigned long long>(budget.partial_escalations),
                  static_cast<unsigned long long>(budget.full_escalations));
    }
    if (sstats.adaptive_budgets.empty()) {
      std::printf("  (no feedback recorded: no adaptive-capable backend "
                  "saw exact-tier traffic)\n");
    }
  }
  std::printf("storage tier: %s (%llu / %llu shards resident, "
              "%llu faults, %llu evictions, %.2f MiB mapped)\n",
              g_storage_tier.c_str(),
              static_cast<unsigned long long>(sstats.resident_shards),
              static_cast<unsigned long long>(sstats.index_shards),
              static_cast<unsigned long long>(sstats.shard_faults),
              static_cast<unsigned long long>(sstats.shard_evictions),
              sstats.mmap_bytes / 1048576.0);
  const std::vector<QueryTrace> slow = (*serving)->SlowQueries();
  if (!slow.empty()) {
    std::printf("slow queries (>= %s): %zu retained\n",
                HumanSeconds(serving_opts.slow_query_threshold_seconds).c_str(),
                slow.size());
    for (const QueryTrace& trace : slow) {
      std::printf("  %s\n", trace.ToString().c_str());
    }
  }
  if (!g_metrics_path.empty()) {
    std::FILE* f = std::fopen(g_metrics_path.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::InvalidArgument("cannot write metrics file: " +
                                          g_metrics_path));
    }
    const std::string text = metrics.ToPrometheusText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("metrics written to %s (%zu bytes)\n", g_metrics_path.c_str(),
                text.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  argc = ExtractBackendFlag(argc, argv);
  if (!g_adaptive.empty() && g_adaptive != "on" && g_adaptive != "off") {
    std::fprintf(stderr, "error: --adaptive takes on|off (got \"%s\")\n",
                 g_adaptive.c_str());
    return Usage();
  }
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "build-index") return CmdBuildIndex(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "index-info") return CmdIndexInfo(argc, argv);
  if (cmd == "topk") return CmdTopk(argc, argv);
  if (cmd == "pagerank") return CmdPagerank(argc, argv);
  if (cmd == "contrib") return CmdContrib(argc, argv);
  if (cmd == "analyze") return CmdAnalyze(argc, argv);
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "serve-bench") return CmdServeBench(argc, argv);
  return Usage();
}
