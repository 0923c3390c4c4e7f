// The three workloads: seeded stream generators, system set-up, timed
// trials, correctness gates and the traced per-layer replays.
//
// Every workload is an open loop in simulated time: submit cycles are
// fixed by the generator whatever the service does. On the host a trial
// is a batch: submit() the whole stream, then run(). The timed window of a
// trial runs from the first submit() to run() returning; everything else
// (copying the stream, building fresh state for stateful runs, checking
// outputs, replaying layers) happens outside it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "pmtree/analysis/cost.hpp"
#include "pmtree/dyn/dynamic_tree.hpp"
#include "pmtree/dyn/incremental.hpp"
#include "pmtree/engine/session.hpp"
#include "pmtree/fault/plan.hpp"
#include "pmtree/mapping/baselines.hpp"
#include "pmtree/mapping/color.hpp"
#include "pmtree/mapping/label_tree.hpp"
#include "pmtree/mem/arena.hpp"
#include "pmtree/serve/batch.hpp"
#include "pmtree/serve/forest.hpp"
#include "pmtree/serve/server.hpp"
#include "pmtree/tree/tree.hpp"
#include "pmtree/util/json.hpp"
#include "pmtree/util/rng.hpp"

namespace perfbench {
namespace {

using namespace pmtree;
using namespace pmtree::serve;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// ---- Workload constants -------------------------------------------------

constexpr std::uint32_t kClients = 16;
constexpr std::uint32_t kModules = 31;

// read-dense: E19's serving configuration on the staged pipeline.
constexpr std::uint32_t kReadDenseLevels = 20;
constexpr std::size_t kReadDenseRequests = 200000;
constexpr std::uint64_t kReadDenseGap = 2;
constexpr unsigned kReadDensePipelineWorkers = 3;
constexpr std::uint64_t kReadDenseSloCycles = 14;

// sparse-rw: E24-shaped writes over a pre-grown dynamic tree, inline loop.
constexpr std::uint32_t kSparseLevels = 20;
constexpr std::uint32_t kSparseColorN = 20;
constexpr std::uint32_t kSparseColorK = 15;
constexpr std::size_t kSparseRequests = 150000;
constexpr std::uint64_t kSparseGap = 16;
constexpr std::size_t kSparseInitialDescents = 1024;
constexpr std::uint32_t kSparseReplicas = 2;
constexpr unsigned kSparseWorkers = 2;
constexpr std::uint64_t kSparseSloCycles = 11;

// tenants-dram: four tenants over one DRAM-resident arena.
constexpr std::uint32_t kDramLevels = 23;
constexpr std::size_t kDramRequests = 150000;
constexpr std::uint64_t kDramGap = 2;
constexpr std::array<std::uint64_t, 4> kWeights{1, 2, 4, 8};
constexpr std::uint32_t kDramReplicas = 8;
constexpr unsigned kDramWorkers = 3;
constexpr std::uint64_t kFaultDeadlineCycles = 256;
constexpr std::uint64_t kDramSloCycles = 15;
constexpr std::uint64_t kFaultSeed = 0xFA17;
constexpr int kDramSetups = 6;

// Hot-spot traffic (tenant 1), shaped like E23.
constexpr std::uint32_t kSubtreeLevel = 4;
constexpr std::uint32_t kHotSubtrees = 8;
constexpr std::size_t kLeavesPerSubtree = 6;
// Tenant 2: half its requests read leaves that share one COLOR module, as
// in E25, so the adaptive selector has a reason to leave COLOR.
constexpr std::size_t kMonochromeLeaves = 512;

constexpr std::size_t kMinTrials = 4;
// Timings spread over a run are reported as the median of this many group
// means (median_of_means).
constexpr std::size_t kSampleGroups = 5;

std::size_t scaled(std::size_t count, double scale) {
  return std::max<std::size_t>(
      200, static_cast<std::size_t>(std::llround(
               static_cast<double>(count) * scale)));
}

// ---- Stream generation --------------------------------------------------

void push_root_path(Node n, std::vector<Node>& out) {
  out.reserve(out.size() + n.level + 1);
  out.push_back(n);
  while (n.level > 0) {
    n = parent(n);
    out.push_back(n);
  }
}

/// The E19 request mix: 70% root-to-leaf paths, 20% sibling pairs, 10%
/// short runs on the second-deepest level.
void e19_nodes(Rng& rng, std::uint32_t levels, std::vector<Node>& out) {
  const std::uint32_t bottom = levels - 1;
  const std::uint64_t kind = rng.below(10);
  if (kind < 7) {
    push_root_path(v(rng.below(pow2(bottom)), bottom), out);
  } else if (kind < 9) {
    const Node n = v(rng.below(pow2(bottom)) & ~std::uint64_t{1}, bottom);
    out.push_back(n);
    out.push_back(sibling(n));
  } else {
    const std::uint32_t level = bottom - 1;
    const std::uint64_t width = rng.between(4, 8);
    const std::uint64_t first = rng.below(pow2(level) - width);
    for (std::uint64_t k = 0; k < width; ++k) out.push_back(v(first + k, level));
  }
}

/// Live set of the generator's model tree with O(1) uniform picks.
class LiveModel {
 public:
  explicit LiveModel(std::uint32_t levels)
      : tree_(levels), where_(CompleteBinaryTree(levels).size(), kAbsent) {
    add(v(0, 0));
  }
  [[nodiscard]] bool live(Node n) const { return tree_.is_live(n); }
  [[nodiscard]] Node pick(Rng& rng) const {
    return live_[rng.below(live_.size())];
  }
  [[nodiscard]] std::size_t size() const { return live_.size(); }
  bool insert(Node n) {
    if (tree_.insert_node(n) != dyn::DynStatus::kOk) return false;
    add(n);
    return true;
  }
  bool erase(Node n) {
    if (tree_.remove_leaf(n) != dyn::DynStatus::kOk) return false;
    const std::uint32_t at = where_[bfs_id(n)];
    where_[bfs_id(live_.back())] = at;
    live_[at] = live_.back();
    live_.pop_back();
    where_[bfs_id(n)] = kAbsent;
    return true;
  }

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  void add(Node n) {
    where_[bfs_id(n)] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(n);
  }
  dyn::DynamicTree tree_;
  std::vector<Node> live_;
  std::vector<std::uint32_t> where_;
};

/// A free child slot reached by a random descent from a random live node.
Node insert_target(const LiveModel& model, Rng& rng, std::uint32_t levels) {
  Node p = model.pick(rng);
  for (;;) {
    if (p.level + 1 >= levels) {
      p = model.pick(rng);
      continue;
    }
    const Node c = rng.chance(1, 2) ? left_child(p) : right_child(p);
    if (!model.live(c)) return c;
    if (!model.live(sibling(c))) return sibling(c);
    p = c;
  }
}

/// A live leaf reached by a random descent from a random live node; the
/// root when the tree is the root alone.
Node erase_target(const LiveModel& model, Rng& rng) {
  Node n = model.pick(rng);
  for (;;) {
    const bool l = model.live(left_child(n));
    const bool r = model.live(right_child(n));
    if (!l && !r) return n;
    n = (l && r) ? (rng.chance(1, 2) ? left_child(n) : right_child(n))
                 : (l ? left_child(n) : right_child(n));
  }
}

/// E23's adversarial hot set: bottom-level leaves of distinct subtrees
/// that all share one base color under `mapping`.
std::vector<std::vector<Node>> hot_leaves(const CompleteBinaryTree& tree,
                                          const TreeMapping& mapping) {
  const std::uint32_t bottom = tree.levels() - 1;
  const auto subtrees = static_cast<std::uint32_t>(pow2(kSubtreeLevel));
  const Color target = mapping.color_of(v(0, bottom));
  std::vector<std::vector<Node>> hot;
  for (std::uint32_t sid = 0; sid < subtrees && hot.size() < kHotSubtrees;
       ++sid) {
    const std::uint64_t first = std::uint64_t{sid} << (bottom - kSubtreeLevel);
    const std::uint64_t count = pow2(bottom - kSubtreeLevel);
    std::vector<Node> leaves;
    for (std::uint64_t k = 0; k < count && leaves.size() < kLeavesPerSubtree;
         ++k) {
      const Node n = v(first + k, bottom);
      if (mapping.color_of(n) == target) leaves.push_back(n);
    }
    if (leaves.size() == kLeavesPerSubtree) hot.push_back(std::move(leaves));
  }
  return hot;
}

/// The first kMonochromeLeaves bottom-level leaves that share one color
/// under `mapping`.
std::vector<Node> monochrome_leaves(const CompleteBinaryTree& tree,
                                    const TreeMapping& mapping) {
  const std::uint32_t bottom = tree.levels() - 1;
  const Color target = mapping.color_of(v(0, bottom));
  std::vector<Node> out;
  for (std::uint64_t i = 0;
       i < pow2(bottom) && out.size() < kMonochromeLeaves; ++i) {
    if (mapping.color_of(v(i, bottom)) == target) out.push_back(v(i, bottom));
  }
  return out;
}

// ---- Trial plumbing -----------------------------------------------------

/// Nodes per request, x10, of the E19 mix, the hot-spot mix and tenant
/// 2's half-monochrome mix.
constexpr std::uint64_t kE19NodesX10 = 7 * kDramLevels + 2 * 2 + 6;
constexpr std::uint64_t kHotNodesX10 = 8 * 3 + 2 * kDramLevels;
constexpr std::uint64_t kMonoNodesX10 = (kE19NodesX10 + 30) / 2;

struct Timed {
  Clock::time_point at{};  ///< when the window opened
  double submit_s = 0;
  double run_s = 0;
};

/// Submits `requests` (moved in, so the copy happens before the window)
/// and runs the server; times both phases.
Timed serve_once(Server& server, std::vector<Request> requests,
                 ServeReport& out) {
  out = ServeReport{};
  const Clock::time_point t0 = Clock::now();
  for (Request& r : requests) server.submit(std::move(r));
  const Clock::time_point t1 = Clock::now();
  out = server.run();
  const Clock::time_point t2 = Clock::now();
  return {t0, seconds_between(t0, t1), seconds_between(t1, t2)};
}

Timed serve_once(Forest& forest, std::vector<std::vector<Request>> streams,
                 ForestReport& out) {
  out = ForestReport{};
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t t = 0; t < streams.size(); ++t) {
    for (Request& r : streams[t]) forest.submit(t, std::move(r));
  }
  const Clock::time_point t1 = Clock::now();
  out = forest.run();
  const Clock::time_point t2 = Clock::now();
  return {t0, seconds_between(t0, t1), seconds_between(t1, t2)};
}

/// The requests in the server's canonical (submit_cycle, client, seq)
/// order — the order of ServeReport::responses and of batch members.
std::vector<const Request*> canonical(const std::vector<Request>& stream) {
  std::vector<const Request*> order;
  order.reserve(stream.size());
  for (const Request& r : stream) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const Request* a, const Request* b) {
                     if (a->submit_cycle != b->submit_cycle) {
                       return a->submit_cycle < b->submit_cycle;
                     }
                     if (a->client != b->client) return a->client < b->client;
                     return a->seq < b->seq;
                   });
  return order;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add(const std::vector<Response>& responses) {
    for (const Response& r : responses) {
      add(r.client);
      add(r.seq);
      add(static_cast<std::uint64_t>(r.status));
      add(r.admitted_cycle);
      add(r.dispatch_cycle);
      add(r.completion_cycle);
      add(r.batch);
      add(r.retries);
    }
  }
  void add(const std::vector<MutationRecord>& log) {
    for (const MutationRecord& m : log) {
      add(m.batch);
      add(m.client);
      add(m.seq);
      add(static_cast<std::uint64_t>(m.kind));
      add(bfs_id(m.target));
      add(static_cast<std::uint64_t>(m.status));
      add(m.applied_cycle);
    }
  }
};

/// Simulated-time facts of one run, over every server or tenant.
struct SimFacts {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;   ///< kShed + kExpired
  std::uint64_t pending = 0;  ///< no verdict: a serve bug
  std::uint64_t over_limit = 0;
  std::uint64_t retries = 0;
  std::vector<double> ok_latency;

  void add(const std::vector<Response>& responses, std::uint64_t limit) {
    submitted += responses.size();
    for (const Response& r : responses) {
      retries += r.retries;
      switch (r.status) {
        case RequestStatus::kOk:
          ++ok;
          ok_latency.push_back(static_cast<double>(r.latency()));
          over_limit += r.latency() > limit ? 1 : 0;
          break;
        case RequestStatus::kShed:
        case RequestStatus::kExpired: ++failed; break;
        case RequestStatus::kPending: ++pending; break;
      }
    }
  }
};

/// Whether the responses line up with the canonical request order.
bool aligned(const std::vector<Response>& responses,
             const std::vector<const Request*>& order) {
  if (responses.size() != order.size()) return false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (responses[i].client != order[i]->client ||
        responses[i].seq != order[i]->seq) {
      return false;
    }
  }
  return true;
}

bool same_responses(const std::vector<Response>& a,
                    const std::vector<Response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Response& x = a[i];
    const Response& y = b[i];
    if (x.client != y.client || x.seq != y.seq || x.status != y.status ||
        x.submit_cycle != y.submit_cycle ||
        x.admitted_cycle != y.admitted_cycle ||
        x.dispatch_cycle != y.dispatch_cycle ||
        x.completion_cycle != y.completion_cycle || x.batch != y.batch ||
        x.retries != y.retries) {
      return false;
    }
  }
  return true;
}

bool same_batches(const std::vector<FormedBatch>& a,
                  const std::vector<FormedBatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].formed_cycle != b[i].formed_cycle ||
        a[i].members != b[i].members || a[i].nodes != b[i].nodes) {
      return false;
    }
  }
  return true;
}

bool same_log(const std::vector<MutationRecord>& a,
              const std::vector<MutationRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const MutationRecord& x = a[i];
    const MutationRecord& y = b[i];
    if (x.batch != y.batch || x.client != y.client || x.seq != y.seq ||
        x.kind != y.kind || x.target != y.target || x.payload != y.payload ||
        x.status != y.status || x.applied_cycle != y.applied_cycle) {
      return false;
    }
  }
  return true;
}

// ---- Traced replays -----------------------------------------------------

/// One server's (or one tenant's) run, as the layer replays see it.
struct Served {
  const TreeMapping* mapping = nullptr;
  const std::vector<const Request*>* requests = nullptr;  ///< canonical
  const std::vector<FormedBatch>* batches = nullptr;
  std::size_t lanes = 1;            ///< batch b runs on lane b.id mod lanes
  engine::EngineOptions engine;     ///< fault plan stripped
  const mem::MemoryBackend* memory = nullptr;
  mem::TouchStats touched;          ///< what the run loaded from `memory`
};

/// Host nanoseconds and work counts of one traced trial's replays.
struct LayerSample {
  std::uint64_t batches = 0;
  std::uint64_t requested_nodes = 0;
  std::uint64_t batch_nodes = 0;
  double coalesce_ns = 0;
  double resolve_ns = 0;
  double conflicts_ns = 0;
  std::uint64_t conflicts_sum = 0;
  std::uint64_t conflicts_max = 0;
  double engine_ns = 0;
  std::uint64_t engine_accesses = 0;
  double mem_ns = 0;
  std::uint64_t mem_nodes = 0;
  std::uint64_t mem_bytes = 0;
  double dyn_ns = 0;
  std::uint64_t dyn_mutations = 0;

  /// The replays that re-run work run() itself does (analysis is a
  /// benchmark-side measurement, not a serve stage).
  [[nodiscard]] double serve_path_ns() const {
    return coalesce_ns + resolve_ns + engine_ns + mem_ns + dyn_ns;
  }
};

double ns_since(Clock::time_point t0) { return 1e9 * seconds_since(t0); }

/// Replays coalesce, color resolution, conflict counting, the engine and
/// the memory touch over the batches one run formed. A coalesce replay
/// that disagrees with the served batch is a correctness failure.
void replay_layers(const Served& s, LayerSample& out,
                   std::vector<std::string>& errors) {
  const std::vector<FormedBatch>& batches = *s.batches;
  const std::vector<const Request*>& requests = *s.requests;

  std::vector<std::vector<Node>> raw(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const std::size_t m : batches[b].members) {
      const std::vector<Node>& nodes = requests[m]->nodes;
      raw[b].insert(raw[b].end(), nodes.begin(), nodes.end());
    }
  }
  Clock::time_point t0 = Clock::now();
  for (std::vector<Node>& union_nodes : raw) {
    (void)BatchFormer::coalesce(union_nodes);
  }
  out.coalesce_ns += ns_since(t0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (raw[b] != batches[b].nodes) {
      errors.push_back("coalesce replay differs from served batch " +
                       std::to_string(batches[b].id));
      break;
    }
  }

  std::vector<Node> nodes;
  std::vector<std::uint64_t> offsets{0};
  for (const FormedBatch& batch : batches) {
    nodes.insert(nodes.end(), batch.nodes.begin(), batch.nodes.end());
    offsets.push_back(nodes.size());
    out.requested_nodes += batch.requested_nodes;
  }
  out.batches += batches.size();
  out.batch_nodes += nodes.size();
  const auto slice = [&](std::size_t b) {
    return std::span<const Node>(nodes.data() + offsets[b],
                                 offsets[b + 1] - offsets[b]);
  };

  std::vector<Color> colors(nodes.size());
  t0 = Clock::now();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    s.mapping->color_of_batch(
        slice(b), std::span<Color>(colors.data() + offsets[b],
                                   offsets[b + 1] - offsets[b]));
  }
  out.resolve_ns += ns_since(t0);

  std::vector<std::uint64_t> conflicts(batches.size());
  t0 = Clock::now();
  conflicts_batch(*s.mapping, nodes, offsets, conflicts);
  out.conflicts_ns += ns_since(t0);
  for (const std::uint64_t c : conflicts) {
    out.conflicts_sum += c;
    out.conflicts_max = std::max(out.conflicts_max, c);
  }

  std::vector<std::vector<std::size_t>> lane_batches(s.lanes);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    lane_batches[batches[b].id % s.lanes].push_back(b);
  }
  std::vector<engine::EngineSession> sessions;
  sessions.reserve(s.lanes);
  for (std::size_t l = 0; l < s.lanes; ++l) {
    sessions.emplace_back(*s.mapping, s.engine);
    std::stable_sort(lane_batches[l].begin(), lane_batches[l].end(),
                     [&](std::size_t a, std::size_t b) {
                       return batches[a].formed_cycle <
                              batches[b].formed_cycle;
                     });
  }
  std::uint64_t completion = 0;
  t0 = Clock::now();
  for (std::size_t l = 0; l < s.lanes; ++l) {
    for (const std::size_t b : lane_batches[l]) {
      sessions[l].feed_resolved(
          std::span<const Color>(colors.data() + offsets[b],
                                 offsets[b + 1] - offsets[b]),
          batches[b].formed_cycle);
    }
    completion = std::max(completion, sessions[l].drain().completion_cycle);
  }
  out.engine_ns += ns_since(t0);
  out.engine_accesses += batches.size();
  if (!batches.empty() && completion == 0) {
    errors.push_back("engine replay completed nothing");
  }

  if (s.memory != nullptr) {
    mem::TouchStats touched;
    t0 = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      touched += s.memory->touch(slice(b));
    }
    out.mem_ns += ns_since(t0);
    out.mem_nodes += touched.nodes;
    out.mem_bytes += touched.bytes;
    if (touched != s.touched) {
      errors.push_back("memory replay read other bytes than the run");
    }
  }
}

/// Ticks that cut at least one batch, over all ticks.
double useful_tick_ratio(const std::vector<const std::vector<FormedBatch>*>&
                             batch_lists,
                         std::uint64_t ticks) {
  std::vector<std::uint64_t> cut;
  for (const auto* batches : batch_lists) {
    for (const FormedBatch& b : *batches) cut.push_back(b.formed_cycle);
  }
  std::sort(cut.begin(), cut.end());
  const auto useful = static_cast<double>(
      std::unique(cut.begin(), cut.end()) - cut.begin());
  return ticks == 0 ? 0.0 : std::min(1.0, useful / static_cast<double>(ticks));
}

double median(std::vector<double> sample) {
  return summarize(std::move(sample)).median;
}

// ---- The shared run skeleton --------------------------------------------

struct SetupTimes {
  Clock::time_point at{};  ///< when the build started
  double total_s = 0;
  double mapping_s = 0;
  double arena_s = 0;
};

/// What one timed trial produced, as the skeleton needs it.
struct TrialRecord {
  Timed timed;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t pending = 0;
  std::uint64_t fingerprint = 0;
  bool traced = false;
  bool after_replay = false;      ///< the previous trial was traced
  LayerSample layers;             ///< valid iff traced
  std::map<std::string, double> per_run;  ///< per-trial layer facts
};

/// What a workload run gathers for finish().
struct Collected {
  Clock::time_point origin = Clock::now();
  std::vector<Probe> probes;  ///< host-speed probes, `at` from origin
  std::vector<SetupTimes> setups;
  std::vector<TrialRecord> trials;
  SimFacts sim;                   ///< of the warm-up trial
  std::uint64_t final_cycle = 0;  ///< of the warm-up trial
  std::uint64_t fingerprint = 0;  ///< of the warm-up trial
  std::uint64_t requests = 0;     ///< submitted per trial
  std::uint64_t slo_limit = 0;
  std::map<std::string, double> layer_facts;  ///< deterministic per-layer

  void probe() {
    const double at = seconds_since(origin);
    probes.push_back({at, host_probe_seconds()});
  }
  /// The host's slowness at `t`: the bracketing probe time over the
  /// reference probe time (above 1 on a slower host than the reference).
  [[nodiscard]] double slowness(Clock::time_point t) const {
    return bracketing_probe(probes, seconds_between(origin, t)) /
           kProbeReferenceSeconds;
  }
};

/// One run's outputs over every server or tenant, as the skeleton reads
/// them.
struct RunView {
  std::vector<const std::vector<Response>*> responses;
  std::vector<const std::vector<FormedBatch>*> batches;
  std::vector<const engine::EngineResult*> engines;
  std::uint64_t ticks = 0;
  std::uint64_t final_cycle = 0;
};

RunView view(const ServeReport& r) {
  RunView v{{&r.responses}, {&r.batches}, {}, r.ticks, r.final_cycle};
  for (const engine::EngineResult& e : r.replicas) v.engines.push_back(&e);
  return v;
}

RunView view(const ForestReport& r) {
  RunView v;
  v.ticks = r.ticks;
  v.final_cycle = r.final_cycle;
  for (const TenantReport& t : r.tenants) {
    v.responses.push_back(&t.responses);
    v.batches.push_back(&t.batches);
    for (const engine::EngineResult& e : t.lanes) v.engines.push_back(&e);
  }
  return v;
}

/// Hash of a run's responses and final cycle. `extra` folds state beyond
/// the responses (mutation log, arena checksums) into it.
std::uint64_t fingerprint(const RunView& v, std::uint64_t extra) {
  Fnv fnv;
  for (const auto* responses : v.responses) fnv.add(*responses);
  fnv.add(v.final_cycle);
  fnv.add(extra);
  return fnv.h;
}

/// Records the warm-up run's simulated facts, its fingerprint (every timed
/// trial must reproduce it) and the deterministic per-layer counts every
/// workload reports.
void note_warm_run(Collected& c, const RunView& v, std::size_t requests,
                   std::uint64_t extra) {
  for (const auto* responses : v.responses) c.sim.add(*responses, c.slo_limit);
  c.final_cycle = v.final_cycle;
  c.fingerprint = fingerprint(v, extra);
  c.requests = requests;
  const auto n = static_cast<double>(requests);
  c.layer_facts["serve.ticks_per_req"] = static_cast<double>(v.ticks) / n;
  c.layer_facts["serve.useful_tick_ratio"] =
      useful_tick_ratio(v.batches, v.ticks);
  double imbalance = 0;
  double depth = 0;
  double rerouted = 0;
  double stalled = 0;
  for (const engine::EngineResult* e : v.engines) {
    imbalance = std::max(imbalance, e->load_imbalance());
    depth = std::max(depth, static_cast<double>(e->max_queue_depth()));
    rerouted += static_cast<double>(e->rerouted_requests);
    stalled += static_cast<double>(e->stalled_cycles);
  }
  c.layer_facts["engine.load_imbalance"] = imbalance;
  c.layer_facts["engine.max_queue_depth"] = depth;
  c.layer_facts["fault.retry_ratio"] = static_cast<double>(c.sim.retries) / n;
  c.layer_facts["fault.rerouted_requests"] = rerouted;
  c.layer_facts["fault.stalled_cycles"] = stalled;
}

/// The skeleton's record of one timed trial; `extra` as for fingerprint().
TrialRecord record_trial(const RunView& v, const Timed& timed,
                         std::size_t requests, bool traced,
                         std::uint64_t extra) {
  TrialRecord t;
  t.timed = timed;
  t.traced = traced;
  t.submitted = requests;
  SimFacts facts;
  for (const auto* responses : v.responses) facts.add(*responses, 0);
  t.ok = facts.ok;
  t.pending = facts.pending + (requests - facts.submitted);
  t.fingerprint = fingerprint(v, extra);
  return t;
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// Runs trials until `seconds` have passed (at least kMinTrials), with a
/// host-speed probe before the first and after each, so every trial and
/// every set-up inside one is bracketed by two probes. With tracing, odd
/// trials are traced: their layer replays run after their timed window,
/// so they land before the next trial's.
template <typename TrialFn>
void measure(const Options& options, Collected& c, TrialFn&& trial) {
  const Clock::time_point start = Clock::now();
  c.probe();
  while (c.trials.size() < kMinTrials ||
         seconds_since(start) < options.seconds) {
    const bool traced = options.trace && c.trials.size() % 2 == 1;
    const bool after_replay = !c.trials.empty() && c.trials.back().traced;
    c.trials.push_back(trial(traced));
    c.trials.back().after_replay = after_replay;
    c.probe();
  }
}

Json summary_json(const Summary& s) {
  Json j = Json::object();
  j.set("median", Json(s.median));
  j.set("tail_label", Json(s.tail_label));
  j.set("tail", Json(s.tail));
  j.set("samples", Json(std::uint64_t{s.samples}));
  return j;
}

/// Assembles the Outcome: gates, attempted/failed, and either the
/// end-to-end or the per-layer metrics.
Outcome finish(const Options& options, Collected& c,
               std::vector<std::string> errors) {
  Outcome out;
  // Host-speed-normalized goodput: each trial's rate times the host's
  // slowness around it (see kProbeReferenceSeconds).
  std::vector<double> goodput;
  std::vector<double> after_replay_goodput;
  std::vector<double> raw_goodput;
  std::vector<double> wall;
  std::vector<double> submit_ns;
  for (std::size_t i = 0; i < c.trials.size(); ++i) {
    const TrialRecord& t = c.trials[i];
    out.attempted += t.submitted;
    out.failed += t.pending;
    const double window = t.timed.submit_s + t.timed.run_s;
    const double rate = static_cast<double>(t.ok) / window;
    (t.after_replay ? after_replay_goodput : goodput)
        .push_back(rate * c.slowness(t.timed.at));
    if (!t.after_replay) raw_goodput.push_back(rate);
    wall.push_back(window);
    submit_ns.push_back(1e9 * t.timed.submit_s /
                        static_cast<double>(t.submitted));
    if (t.fingerprint != c.fingerprint) {
      errors.push_back("trial " + std::to_string(i) +
                       " differs from the warm-up trial");
    }
  }
  if (c.sim.pending != 0 || c.sim.submitted != c.requests) {
    errors.push_back("requests left without a verdict");
  }
  if (c.sim.ok == 0) errors.push_back("no request completed");

  std::vector<double> setup_total;  // normalized like goodput
  std::vector<double> raw_setup;
  std::vector<double> setup_mapping;
  std::vector<double> setup_arena;
  for (const SetupTimes& s : c.setups) {
    setup_total.push_back(s.total_s / c.slowness(s.at));
    raw_setup.push_back(s.total_s);
    setup_mapping.push_back(s.mapping_s);
    setup_arena.push_back(s.arena_s);
  }

  const Summary latency = summarize(c.sim.ok_latency);
  std::vector<double> sorted_latency = c.sim.ok_latency;
  std::sort(sorted_latency.begin(), sorted_latency.end());
  const double submitted = static_cast<double>(c.sim.submitted);

  std::map<std::string, double> values;
  if (!options.trace) {
    values["goodput_rps"] = median_of_means(goodput, kSampleGroups);
    values["sim_latency_p50_cyc"] =
        sorted_latency.empty() ? 0 : grouped_quantile(sorted_latency, 0.5);
    values["sim_latency_p99_cyc"] =
        sorted_latency.empty() ? 0 : grouped_quantile(sorted_latency, 0.99);
    values["sim_rpkc"] =
        1000.0 * static_cast<double>(c.sim.ok) /
        static_cast<double>(std::max<std::uint64_t>(1, c.final_cycle));
    // Add-one estimate: a run without failures reads 1/(n+1), not 0, and
    // its first shed or expired request doubles the figure.
    values["fail_ratio"] =
        static_cast<double>(c.sim.failed + 1) / (submitted + 1);
    values["slo_miss_ratio"] =
        static_cast<double>(c.sim.failed + c.sim.over_limit) / submitted;
    values["setup_s"] = median_of_means(setup_total, kSampleGroups);
    values["peak_rss_mib"] = static_cast<double>(peak_rss_kib()) / 1024.0;
  } else {
    std::map<std::string, std::vector<double>> per_trial;
    for (const TrialRecord& t : c.trials) {
      if (!t.traced) continue;
      const LayerSample& l = t.layers;
      const auto per = [](double ns, std::uint64_t n) {
        return n == 0 ? 0.0 : ns / static_cast<double>(n);
      };
      auto& p = per_trial;
      p["serve.submit_ns_per_req"].push_back(
          1e9 * t.timed.submit_s / static_cast<double>(t.submitted));
      p["serve.coalesce_ns_per_batch"].push_back(per(l.coalesce_ns, l.batches));
      p["mapping.resolve_ns_per_node"].push_back(
          per(l.resolve_ns, l.batch_nodes));
      p["analysis.ns_per_batch"].push_back(per(l.conflicts_ns, l.batches));
      p["engine.ns_per_access"].push_back(
          per(l.engine_ns, l.engine_accesses));
      if (l.mem_nodes != 0) {
        p["mem.ns_per_node"].push_back(per(l.mem_ns, l.mem_nodes));
        p["mem.gib_per_s"].push_back(static_cast<double>(l.mem_bytes) /
                                     (l.mem_ns * 1e-9) /
                                     (1024.0 * 1024.0 * 1024.0));
      }
      if (l.dyn_mutations != 0) {
        p["dyn.apply_ns_per_mutation"].push_back(
            per(l.dyn_ns, l.dyn_mutations));
      }
      p["trace.replay_sum_over_run"].push_back(l.serve_path_ns() /
                                               (1e9 * t.timed.run_s));
      for (const auto& [name, value] : t.per_run) p[name].push_back(value);
    }
    for (auto& [name, sample] : per_trial) values[name] = median(sample);
    const LayerSample* any = nullptr;
    for (const TrialRecord& t : c.trials) {
      if (t.traced) any = &t.layers;
    }
    if (any != nullptr) {
      values["serve.batch_nodes_mean"] =
          any->batches == 0 ? 0.0
                            : static_cast<double>(any->batch_nodes) /
                                  static_cast<double>(any->batches);
      values["serve.dedup_ratio"] =
          any->requested_nodes == 0
              ? 0.0
              : static_cast<double>(any->batch_nodes) /
                    static_cast<double>(any->requested_nodes);
      values["analysis.conflicts_per_batch_mean"] =
          any->batches == 0 ? 0.0
                            : static_cast<double>(any->conflicts_sum) /
                                  static_cast<double>(any->batches);
      values["analysis.conflicts_per_batch_max"] =
          static_cast<double>(any->conflicts_max);
    }
    for (const auto& [name, value] : c.layer_facts) values[name] = value;
    values["setup.mapping_build_s"] = median(setup_mapping);
    if (c.setups.front().arena_s > 0) {
      values["setup.arena_fill_s"] = median(setup_arena);
    }
    values["trace.overhead_ratio"] =
        after_replay_goodput.empty()
            ? 0.0
            : median(after_replay_goodput) / median(goodput);
  }

  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) errors.push_back(name + " is not finite");
  }

  const auto& catalog =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : catalog) {
    const auto it = values.find(spec.name);
    out.metrics.emplace_back(spec.name, it == values.end() ? 0.0 : it->second);
  }

  Json details = Json::object();
  details.set("workload", Json(options.workload));
  details.set("seed", Json(options.seed));
  details.set("trace", Json(options.trace));
  details.set("host", host_record());
  details.set("trials", Json(std::uint64_t{c.trials.size()}));
  details.set("requests_per_trial", Json(c.sim.submitted));
  details.set("trial_wall_s", summary_json(summarize(wall)));
  details.set("goodput_rps", summary_json(summarize(goodput)));
  details.set("raw_goodput_rps", summary_json(summarize(raw_goodput)));
  if (options.trace) {
    details.set("after_replay_goodput_rps",
                summary_json(summarize(after_replay_goodput)));
  }
  details.set("submit_ns_per_req", summary_json(summarize(submit_ns)));
  details.set("setup_s", summary_json(summarize(setup_total)));
  details.set("raw_setup_s", summary_json(summarize(raw_setup)));
  std::vector<double> probe_s;
  for (const Probe& p : c.probes) probe_s.push_back(p.seconds);
  details.set("probe_s", summary_json(summarize(probe_s)));
  details.set("probe_reference_s", Json(kProbeReferenceSeconds));
  details.set("sim_latency_cyc", summary_json(latency));
  if (!sorted_latency.empty()) {
    Json q = Json::object();
    static constexpr std::array<std::pair<const char*, double>, 5> kLadder{
        {{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99},
         {"p99.9", 0.999}}};
    for (const auto& [label, p] : kLadder) {
      q.set(label, Json(quantile(sorted_latency, p)));
    }
    details.set("sim_latency_quantiles_cyc", std::move(q));
  }
  details.set("slo_limit_cyc", Json(c.slo_limit));
  details.set("ok", Json(c.sim.ok));
  details.set("shed_or_expired", Json(c.sim.failed));
  details.set("over_slo_limit", Json(c.sim.over_limit));
  Json jerrors = Json::array();
  for (const std::string& e : errors) jerrors.push_back(Json(e));
  details.set("errors", std::move(jerrors));
  out.details = details.dump();

  out.errors = std::move(errors);
  out.correct = out.errors.empty();
  return out;
}

// ---- read-dense ---------------------------------------------------------

ServerOptions read_dense_options(unsigned pipeline_workers) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = 1;
  opts.workers = 1;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.pipeline.workers = pipeline_workers;
  return opts;
}

/// Forces a mapping's lazily built retrieval tables, so set-up pays for
/// them rather than the first trial.
void prime(const TreeMapping& mapping, std::uint32_t levels) {
  std::vector<Node> path;
  push_root_path(v(0, levels - 1), path);
  std::vector<Color> colors(path.size());
  mapping.color_of_batch(path, colors);
}

std::map<std::string, double> stage_ns(const ServeReport& report) {
  std::map<std::string, double> out;
  const Json* pipeline = report.metrics.find("pipeline");
  const Json* stages = pipeline == nullptr ? nullptr : pipeline->find("stage_ns");
  if (stages == nullptr) return out;
  for (const auto& [name, value] : stages->members()) {
    out[name] = value.as_number();
  }
  return out;
}

Outcome run_read_dense(const Options& options) {
  Collected c;
  c.probe();
  c.slo_limit = kReadDenseSloCycles;
  std::vector<std::string> errors;
  const CompleteBinaryTree tree(kReadDenseLevels);

  // The trials share one long-lived server (its pipeline stays warm), so
  // each trial's set-up sample builds and drops a twin of it.
  std::unique_ptr<ColorMapping> color;
  std::unique_ptr<Server> server;
  const auto build = [&](std::unique_ptr<ColorMapping>& m,
                         std::unique_ptr<Server>& srv) {
    SetupTimes t;
    const Clock::time_point t0 = Clock::now();
    t.at = t0;
    m = std::make_unique<ColorMapping>(
        make_optimal_color_mapping(tree, kModules));
    prime(*m, kReadDenseLevels);
    t.mapping_s = seconds_since(t0);
    srv = std::make_unique<Server>(
        *m, read_dense_options(kReadDensePipelineWorkers));
    t.total_s = seconds_since(t0);
    return t;
  };
  c.setups.push_back(build(color, server));

  const std::vector<Request> stream = read_dense_stream(
      options.seed, scaled(kReadDenseRequests, options.scale));
  const std::vector<const Request*> order = canonical(stream);

  // Warm-up trial; its report is the reference the gates compare against.
  ServeReport warm;
  (void)serve_once(*server, stream, warm);
  std::map<std::string, double> last_stages = stage_ns(warm);
  {
    Server oracle(*color, read_dense_options(0));
    ServeReport reference;
    (void)serve_once(oracle, stream, reference);
    if (!same_responses(warm.responses, reference.responses) ||
        !same_batches(warm.batches, reference.batches) ||
        warm.final_cycle != reference.final_cycle) {
      errors.push_back("pipeline responses differ from the inline oracle");
    }
  }
  if (!aligned(warm.responses, order)) {
    errors.push_back("responses are not in canonical request order");
  }
  note_warm_run(c, view(warm), stream.size(), 0);
  warm = ServeReport{};

  const ServerOptions served_options =
      read_dense_options(kReadDensePipelineWorkers);
  measure(options, c, [&](bool traced) {
    {
      std::unique_ptr<ColorMapping> m;
      std::unique_ptr<Server> srv;
      c.setups.push_back(build(m, srv));
    }
    ServeReport report;
    const Timed timed = serve_once(*server, stream, report);
    TrialRecord t =
        record_trial(view(report), timed, stream.size(), traced, 0);
    const std::map<std::string, double> stages = stage_ns(report);
    if (traced) {
      Served s;
      s.mapping = color.get();
      s.requests = &order;
      s.batches = &report.batches;
      s.lanes = served_options.replicas;
      s.engine = served_options.engine;
      replay_layers(s, t.layers, errors);
      for (const auto& [name, ns] : stages) {
        t.per_run["serve.pipeline." + name + "_ns_per_req"] =
            (ns - last_stages[name]) / static_cast<double>(stream.size());
      }
    }
    last_stages = stages;
    return t;
  });
  return finish(options, c, std::move(errors));
}

// ---- sparse-rw ----------------------------------------------------------

struct SparseSystem {
  std::unique_ptr<dyn::IncrementalColorer> colorer;
  std::unique_ptr<dyn::DynamicTree> tree;
  std::unique_ptr<Server> server;
};

ServerOptions sparse_options(SparseSystem& sys, unsigned workers) {
  ServerOptions opts;
  opts.tick_cycles = 4;
  opts.replicas = kSparseReplicas;
  opts.workers = workers;
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.pipeline.workers = 0;
  opts.dyn.tree = sys.tree.get();
  opts.dyn.colorer = sys.colorer.get();
  return opts;
}

dyn::IncrementalColorer sparse_colorer() {
  return dyn::IncrementalColorer::color(CompleteBinaryTree(kSparseLevels),
                                        kSparseColorN, kSparseColorK);
}

SparseSystem build_sparse(const std::vector<Node>& initial, unsigned workers,
                          SetupTimes* times) {
  SparseSystem sys;
  const Clock::time_point t0 = Clock::now();
  sys.colorer = std::make_unique<dyn::IncrementalColorer>(sparse_colorer());
  sys.colorer->touch(std::span<const Node>(initial.data(), initial.size()));
  const double mapping_s = seconds_since(t0);
  sys.tree = std::make_unique<dyn::DynamicTree>(kSparseLevels);
  for (const Node n : initial) (void)sys.tree->insert_node(n);
  sys.server = std::make_unique<Server>(*sys.colorer,
                                        sparse_options(sys, workers));
  if (times != nullptr) {
    times->at = t0;
    times->mapping_s = mapping_s;
    times->total_s = seconds_since(t0);
  }
  return sys;
}

Outcome run_sparse_rw(const Options& options) {
  Collected c;
  c.probe();
  c.slo_limit = kSparseSloCycles;
  std::vector<std::string> errors;

  const SparseRwStream generated =
      sparse_rw_stream(options.seed, scaled(kSparseRequests, options.scale));
  const std::vector<Request>& stream = generated.requests;
  const std::vector<const Request*> order = canonical(stream);
  // The initial shape is an input like the stream; building the tree and
  // coloring it from that shape is what set-up measures. Runs mutate the
  // tree, so every trial serves a freshly built system.
  SetupTimes first;
  SparseSystem warm_sys =
      build_sparse(generated.initial, kSparseWorkers, &first);
  c.setups.push_back(first);
  ServeReport warm;
  (void)serve_once(*warm_sys.server, stream, warm);
  {
    // Final live-set colors against a from-scratch COLOR over the envelope.
    const std::vector<Node> live = warm_sys.tree->live_nodes();
    std::vector<Color> got(live.size());
    warm_sys.colorer->color_of_batch(live, got);
    const ColorMapping reference(CompleteBinaryTree(kSparseLevels),
                                 kSparseColorN, kSparseColorK);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (got[i] != reference.color_of(live[i])) {
        errors.push_back("live-set colors differ from a from-scratch COLOR");
        break;
      }
    }
    // The mutation log (and responses) against a 1-worker replay.
    SparseSystem one = build_sparse(generated.initial, 1, nullptr);
    ServeReport replay;
    (void)serve_once(*one.server, stream, replay);
    if (!same_log(warm.mutations, replay.mutations) ||
        !same_responses(warm.responses, replay.responses)) {
      errors.push_back("mutation log differs from a 1-worker replay");
    }
  }
  if (!aligned(warm.responses, order)) {
    errors.push_back("responses are not in canonical request order");
  }
  const std::vector<Node> warm_live = warm_sys.tree->live_nodes();
  Fnv warm_log;
  warm_log.add(warm.mutations);
  note_warm_run(c, view(warm), stream.size(), warm_log.h);
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  for (const MutationRecord& m : warm.mutations) {
    applied += m.status == dyn::DynStatus::kOk ? 1 : 0;
    rejected += m.status != dyn::DynStatus::kOk &&
                        m.status != dyn::DynStatus::kDuplicate
                    ? 1
                    : 0;
  }
  c.layer_facts["dyn.applied"] = static_cast<double>(applied);
  c.layer_facts["dyn.rejected"] = static_cast<double>(rejected);
  c.layer_facts["dyn.nodes_colored"] =
      static_cast<double>(warm_sys.colorer->nodes_colored());
  warm_sys = SparseSystem{};
  warm = ServeReport{};

  SparseSystem sys;
  measure(options, c, [&](bool traced) {
    sys.server.reset();  // it refers to the tree and colorer
    sys = SparseSystem{};
    SetupTimes setup;
    sys = build_sparse(generated.initial, kSparseWorkers, &setup);
    c.setups.push_back(setup);
    ServeReport report;
    const Timed timed = serve_once(*sys.server, stream, report);
    Fnv log;
    log.add(report.mutations);
    TrialRecord t =
        record_trial(view(report), timed, stream.size(), traced, log.h);
    if (traced) {
      Served s;
      s.mapping = sys.colorer.get();
      s.requests = &order;
      s.batches = &report.batches;
      s.lanes = kSparseReplicas;
      s.engine = sparse_options(sys, kSparseWorkers).engine;
      replay_layers(s, t.layers, errors);

      // The mutation log onto a fresh tree and colorer.
      SparseSystem fresh = build_sparse(generated.initial, 1, nullptr);
      std::uint64_t mismatched = 0;
      const Clock::time_point t0 = Clock::now();
      for (const MutationRecord& m : report.mutations) {
        if (m.status == dyn::DynStatus::kDuplicate) continue;
        dyn::DynStatus status;
        if (m.kind == RequestKind::kInsert) {
          status = fresh.tree->insert_node(m.target);
          if (status == dyn::DynStatus::kOk) fresh.colorer->touch(m.target);
        } else {
          status = fresh.tree->remove_leaf(m.target);
        }
        mismatched += status != m.status ? 1 : 0;
        ++t.layers.dyn_mutations;
      }
      t.layers.dyn_ns += ns_since(t0);
      if (mismatched != 0 || fresh.tree->live_nodes() != warm_live) {
        errors.push_back("mutation-log replay does not reproduce the run");
      }
    }
    return t;
  });
  return finish(options, c, std::move(errors));
}

// ---- tenants-dram -------------------------------------------------------

struct DramSystem {
  std::unique_ptr<ColorMapping> color;
  std::unique_ptr<LabelTreeMapping> label;
  std::unique_ptr<ModuloMapping> modulo;
  std::unique_ptr<mem::MemoryBackend> backend;
  fault::FaultPlan plan;
  std::unique_ptr<Forest> forest;
};

/// A fixed fault scenario: part of the system under test, like the
/// mappings, so only the traffic varies with the seed. Many short
/// slowdowns spread over the whole stream make t3's expiries the sum of
/// many episodes, so their count moves little from seed to seed.
fault::FaultPlan dram_fault_plan() {
  fault::FaultPlan::RandomOptions opts;
  opts.seed = kFaultSeed;
  opts.modules = kModules;
  opts.fail_fraction = 0.1;
  opts.fail_window = 4096;
  opts.slowdown_count = 2048;
  opts.slowdown_window = kDramGap * kDramRequests;
  opts.slowdown_max_length = 256;
  opts.slowdown_max_period = 4;
  return fault::FaultPlan::random(opts);
}

TenantOptions dram_tenant(const DramSystem& sys, std::uint32_t t) {
  TenantOptions opts;
  opts.name = std::string(1, 't');
  opts.name += std::to_string(t);
  opts.weight = kWeights[t];
  opts.rate = static_cast<double>(kWeights[t]);
  opts.admission.queue_bound = 128;
  opts.admission.overflow = OverflowPolicy::kShed;
  opts.batch.max_batch_nodes = 96;
  opts.batch.max_wait_cycles = 8;
  opts.engine.sampling = engine::EngineOptions::DepthSampling::kOff;
  opts.memory = sys.backend.get();
  switch (t) {
    case 1:
      opts.migration.epoch_batches = 8;
      opts.migration.top_k = kHotSubtrees;
      opts.migration.subtree_level = kSubtreeLevel;
      break;
    case 2:
      opts.adaptive.epoch_batches = 8;
      opts.adaptive.candidates = {sys.color.get(), sys.label.get(),
                                  sys.modulo.get()};
      break;
    case 3:
      opts.engine.faults = &sys.plan;
      opts.retry.max_retries = 2;
      opts.retry.attempt_timeout_cycles = 12;
      opts.retry.backoff_base_cycles = 8;
      opts.retry.backoff_cap_cycles = 128;
      break;
    default: break;
  }
  return opts;
}

void build_dram(DramSystem& sys, SetupTimes& times) {
  const CompleteBinaryTree tree(kDramLevels);
  const Clock::time_point t0 = Clock::now();
  times.at = t0;
  sys.color = std::make_unique<ColorMapping>(
      make_optimal_color_mapping(tree, kModules));
  sys.label = std::make_unique<LabelTreeMapping>(tree, kModules);
  sys.modulo = std::make_unique<ModuloMapping>(tree, kModules);
  prime(*sys.color, kDramLevels);
  prime(*sys.label, kDramLevels);
  prime(*sys.modulo, kDramLevels);
  times.mapping_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  sys.backend = std::make_unique<mem::MemoryBackend>(*sys.color);
  times.arena_s = seconds_since(t1);
  sys.plan = dram_fault_plan();
  ForestOptions fopts;
  fopts.tick_cycles = 4;
  fopts.replicas = kDramReplicas;
  fopts.workers = kDramWorkers;
  fopts.global_queue_bound = 256;
  sys.forest = std::make_unique<Forest>(fopts);
  for (std::uint32_t t = 0; t < kWeights.size(); ++t) {
    (void)sys.forest->add_tenant(*sys.color, dram_tenant(sys, t));
  }
  times.total_s = seconds_since(t0);
}

const Json* tenant_section(const TenantReport& t, const char* section,
                           const char* field) {
  const Json* s = t.metrics.find(section);
  return s == nullptr ? nullptr : s->find(field);
}

Outcome run_tenants_dram(const Options& options) {
  Collected c;
  c.probe();
  c.slo_limit = kDramSloCycles;
  std::vector<std::string> errors;

  // The trials share one forest, long-lived like a serving process, that
  // is rebuilt kDramSetups - 1 times at even steps through the run, so the
  // set-up samples span the run like the trials do. Each build first hands
  // the previous system's memory back to the kernel, so every build pays
  // for faulting its arena in, as a process's first build does.
  std::unique_ptr<DramSystem> sys;
  const auto rebuild = [&] {
    sys.reset();
    malloc_trim(0);
    sys = std::make_unique<DramSystem>();
    SetupTimes t;
    build_dram(*sys, t);
    c.setups.push_back(t);
  };
  rebuild();

  const std::vector<std::vector<Request>> streams =
      tenants_dram_streams(options.seed, scaled(kDramRequests, options.scale));
  std::vector<std::vector<const Request*>> orders;
  std::size_t total = 0;
  for (const std::vector<Request>& s : streams) {
    orders.push_back(canonical(s));
    total += s.size();
  }

  const auto arena_hash = [](const ForestReport& report) {
    Fnv arena;
    for (const TenantReport& tenant : report.tenants) {
      arena.add(tenant.memory.checksum);
    }
    return arena.h;
  };

  // The analytic recount of every tenant's arena traffic.
  const auto check_memory = [&](const ForestReport& report) {
    for (const TenantReport& t : report.tenants) {
      std::uint64_t nodes = 0;
      std::uint64_t checksum = 0;
      for (const FormedBatch& b : t.batches) {
        nodes += b.nodes.size();
        for (const Node n : b.nodes) {
          checksum += sys->backend->expected_node_checksum(n);
        }
      }
      if (t.memory.nodes != nodes || t.memory.checksum != checksum) {
        errors.push_back("tenant " + t.name +
                         " arena checksum differs from the analytic recount");
        return;
      }
    }
  };

  ForestReport warm;
  (void)serve_once(*sys->forest, streams, warm);
  check_memory(warm);
  note_warm_run(c, view(warm), total, arena_hash(warm));
  double bytes = 0;
  double served = 0;
  for (std::size_t i = 0; i < warm.tenants.size(); ++i) {
    const TenantReport& t = warm.tenants[i];
    if (!aligned(t.responses, orders[i])) {
      errors.push_back("tenant responses are not in canonical order");
    }
    bytes += static_cast<double>(t.memory.bytes);
    served += static_cast<double>(t.served_nodes);
  }
  // Node share against weight share, per tenant.
  const auto weight_sum = static_cast<double>(
      std::accumulate(kWeights.begin(), kWeights.end(), std::uint64_t{0}));
  double share_err = 0;
  for (std::size_t i = 0; i < warm.tenants.size(); ++i) {
    const double share =
        static_cast<double>(warm.tenants[i].served_nodes) / served;
    const double want = static_cast<double>(kWeights[i]) / weight_sum;
    share_err = std::max(share_err, std::abs(share - want) / want);
  }
  c.layer_facts["mem.bytes_per_req"] = bytes / static_cast<double>(total);
  c.layer_facts["serve.fair.share_rel_err_max"] = share_err;
  if (const Json* moved = tenant_section(warm.tenants[1], "migration",
                                         "subtrees_moved")) {
    c.layer_facts["serve.migration.subtrees_moved"] = moved->as_number();
  }
  if (const Json* switches =
          tenant_section(warm.tenants[2], "adaptive", "switches")) {
    c.layer_facts["serve.adaptive.switches"] = switches->as_number();
  }
  warm = ForestReport{};

  const Clock::time_point measured_from = Clock::now();
  int rebuilds = 0;
  measure(options, c, [&](bool traced) {
    if (rebuilds + 1 < kDramSetups &&
        seconds_since(measured_from) >=
            options.seconds * (rebuilds + 1) / kDramSetups) {
      ++rebuilds;
      rebuild();
      // An untimed warm-up on the new forest, held to the same gates.
      ForestReport rewarm;
      (void)serve_once(*sys->forest, streams, rewarm);
      check_memory(rewarm);
      if (fingerprint(view(rewarm), arena_hash(rewarm)) != c.fingerprint) {
        errors.push_back("a rebuilt forest serves differently");
      }
    }
    ForestReport report;
    const Timed timed = serve_once(*sys->forest, streams, report);
    check_memory(report);
    TrialRecord t =
        record_trial(view(report), timed, total, traced, arena_hash(report));
    if (traced) {
      for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        Served s;
        s.mapping = sys->color.get();
        s.requests = &orders[i];
        s.batches = &report.tenants[i].batches;
        s.lanes = std::max<std::size_t>(1, report.tenants[i].lanes.size());
        s.engine =
            sys->forest->tenant_options(static_cast<std::uint32_t>(i)).engine;
        s.engine.faults = nullptr;
        s.memory = sys->backend.get();
        s.touched = report.tenants[i].memory;
        replay_layers(s, t.layers, errors);
      }
    }
    return t;
  });
  return finish(options, c, std::move(errors));
}

}  // namespace

// ---- Public stream generators -------------------------------------------

std::vector<Request> read_dense_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  std::vector<std::uint64_t> next_seq(kClients, 0);
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(2 * kReadDenseGap + 1);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(kClients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    e19_nodes(rng, kReadDenseLevels, r.nodes);
    requests.push_back(std::move(r));
  }
  return requests;
}

SparseRwStream sparse_rw_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  SparseRwStream out;
  LiveModel model(kSparseLevels);
  for (std::size_t d = 0; d < kSparseInitialDescents; ++d) {
    Node n = v(0, 0);
    for (std::uint32_t level = 1; level < kSparseLevels; ++level) {
      n = rng.chance(1, 2) ? left_child(n) : right_child(n);
      if (model.insert(n)) out.initial.push_back(n);
    }
  }
  out.requests.reserve(count);
  std::vector<std::uint64_t> next_seq(kClients, 0);
  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(2 * kSparseGap + 1);
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(kClients));
    r.seq = next_seq[r.client]++;
    r.submit_cycle = clock;
    const std::uint64_t draw = rng.below(10);
    if (draw == 0) {
      r.kind = RequestKind::kInsert;
      r.target = insert_target(model, rng, kSparseLevels);
      (void)model.insert(r.target);
    } else if (draw == 1 && model.size() > 1) {
      r.kind = RequestKind::kErase;
      r.target = erase_target(model, rng);
      (void)model.erase(r.target);
    }
    if (r.kind == RequestKind::kRead) {
      push_root_path(model.pick(rng), r.nodes);
    } else {
      r.payload = static_cast<std::int64_t>(i);
      push_root_path(r.target, r.nodes);
    }
    out.requests.push_back(std::move(r));
  }
  return out;
}

std::vector<std::vector<Request>> tenants_dram_streams(std::uint64_t seed,
                                                       std::size_t count) {
  const CompleteBinaryTree tree(kDramLevels);
  const ColorMapping color = make_optimal_color_mapping(tree, kModules);
  const std::vector<std::vector<Node>> hot = hot_leaves(tree, color);
  const std::vector<Node> mono = monochrome_leaves(tree, color);
  std::vector<std::uint64_t> zipf;  // E23's integer Zipf CDF
  for (std::uint32_t s = 0; s < hot.size(); ++s) {
    zipf.push_back((zipf.empty() ? 0 : zipf.back()) + 840 / (s + 1));
  }
  // Tenants draw in proportion to weight per node of their mix, so each
  // tenant's offered node volume is its weight share.
  std::array<std::uint64_t, 4> cdf{};
  std::uint64_t acc = 0;
  for (std::size_t t = 0; t < kWeights.size(); ++t) {
    const std::uint64_t nodes_x10 =
        t == 1 ? kHotNodesX10 : (t == 2 ? kMonoNodesX10 : kE19NodesX10);
    acc += kWeights[t] * 100000 / nodes_x10;
    cdf[t] = acc;
  }

  Rng rng(seed);
  std::vector<std::vector<Request>> streams(kWeights.size());
  std::vector<std::vector<std::uint64_t>> next_seq(
      kWeights.size(), std::vector<std::uint64_t>(kClients, 0));
  std::uint64_t clock = 0;
  const std::uint32_t bottom = kDramLevels - 1;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.below(2 * kDramGap + 1);
    const std::uint64_t draw = rng.below(acc);
    std::size_t t = 0;
    while (cdf[t] <= draw) ++t;
    Request r;
    r.client = static_cast<std::uint32_t>(rng.below(kClients));
    r.seq = next_seq[t][r.client]++;
    r.submit_cycle = clock;
    if (t == 1 && rng.below(10) < 8) {
      const std::uint64_t z = rng.below(zipf.back());
      std::size_t s = 0;
      while (zipf[s] <= z) ++s;
      const std::size_t start = rng.below(hot[s].size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(hot[s][(start + k) % hot[s].size()]);
      }
    } else if (t == 1) {
      push_root_path(v(rng.below(pow2(bottom)), bottom), r.nodes);
    } else if (t == 2 && rng.below(2) == 0) {
      const std::size_t start = rng.below(mono.size());
      for (std::size_t k = 0; k < 3; ++k) {
        r.nodes.push_back(mono[(start + 7 * k) % mono.size()]);
      }
    } else {
      e19_nodes(rng, kDramLevels, r.nodes);
    }
    if (t == 3) r.deadline_cycles = kFaultDeadlineCycles;
    streams[t].push_back(std::move(r));
  }
  return streams;
}

std::string serialize(const std::vector<Request>& requests) {
  std::string out;
  const auto put = [&](std::uint64_t x) {
    char bytes[8];
    std::memcpy(bytes, &x, sizeof bytes);
    out.append(bytes, sizeof bytes);
  };
  for (const Request& r : requests) {
    put(r.client);
    put(r.seq);
    put(r.submit_cycle);
    put(r.deadline_cycles);
    put(static_cast<std::uint64_t>(r.kind));
    put(bfs_id(r.target));
    put(static_cast<std::uint64_t>(r.payload));
    put(r.nodes.size());
    for (const Node n : r.nodes) put(bfs_id(n));
  }
  return out;
}

Outcome run(const Options& options) {
  if (options.workload == "read-dense") return run_read_dense(options);
  if (options.workload == "sparse-rw") return run_sparse_rw(options);
  if (options.workload == "tenants-dram") return run_tenants_dram(options);
  Outcome out;
  out.correct = false;
  out.errors.push_back("unknown workload " + options.workload);
  return out;
}

}  // namespace perfbench
