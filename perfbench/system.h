// The benchmark's workloads and the systems they run on.
//
// Each workload is a scenario spec (minerva/scenario.h) expanded with
// BuildScenarioWorkload; the benchmark builds the engines itself (one
// per transport rank) and drives them query by query. Everything a run
// feeds the engine derives from the spec, and the spec from --seed.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/inverted_index.h"
#include "minerva/scenario.h"
#include "util/status.h"

namespace perfbench {

enum class Workload { kWebZipf, kWideChurn, kClusterTcp };

const char* WorkloadName(Workload workload);
iqn::Result<Workload> ParseWorkload(const std::string& name);

/// One workload, fully specified. The spec's own seed fixes the dataset
/// (corpus, peer collections, update deltas); --seed draws the stream.
struct Shape {
  Workload workload = Workload::kWebZipf;
  /// The scenario spec; its transport section is the workload's transport.
  minerva::ScenarioSpec spec;
  /// Queries per pass.
  size_t stream_len = 0;
  /// Transport ranks (engines) the system runs on; 1 = simulated.
  size_t ranks = 1;
  /// An update event fires before every churn_every-th query of the
  /// stream (0 = no updates inside the stream).
  size_t churn_every = 0;
  /// Update events applied after the stream, so update_p50_ms exists on
  /// workloads without in-stream churn. The engine is discarded after.
  size_t updates_after_stream = 0;
};

/// The workload's shape. `stream_override` > 0 shortens the stream (the
/// benchmark's own tests use tiny streams).
Shape MakeShape(Workload workload, size_t stream_override);

/// The queries one run sends, in order; every pass sends the same ones.
struct Stream {
  std::vector<iqn::Query> queries;
  /// Distinct queries among them.
  size_t distinct = 0;
};

/// web_zipf and cluster_tcp draw the stream from the spec's 40-query pool
/// with Zipf(1) popularity; wide_churn generates that many distinct
/// queries over the corpus vocabulary. Both are seeded by `seed` alone.
iqn::Result<Stream> MakeStream(const Shape& shape, uint64_t seed);

/// Wall time of the three set-up steps, in milliseconds.
struct SetupTimes {
  double workload_ms = 0.0;
  double create_ms = 0.0;  // on a cluster: also the endpoint exchange
  double publish_ms = 0.0;
  double total_s() const {
    return (workload_ms + create_ms + publish_ms) / 1000.0;
  }
};

/// A published system: one engine per rank, meters reset after publish.
struct System {
  std::vector<std::unique_ptr<minerva::Engine>> engines;
  /// The query pool, schedule and corpus options (collections moved out).
  minerva::ScenarioWorkload workload;

  size_t num_peers() const { return engines.front()->num_peers(); }
  /// The engine whose rank owns peer `index` (address index % ranks).
  minerva::Engine& OwnerOf(size_t index) {
    return *engines[index % engines.size()];
  }
  /// Modeled traffic summed over every rank's transport.
  uint64_t messages() const;
  uint64_t bytes() const;
};

/// BuildScenarioWorkload + Engine::Create (+ endpoint exchange) +
/// Publish for every rank, each step timed into `times`.
iqn::Result<System> BuildSystem(const minerva::ScenarioSpec& spec,
                                size_t ranks, SetupTimes* times);

/// The document delta of update event `event`, derived exactly as
/// RunScenario derives its churn deltas.
iqn::Result<iqn::Corpus> MakeChurnDelta(const minerva::ScenarioSpec& spec,
                                        const minerva::ScenarioWorkload& w,
                                        size_t event);

/// The benchmark's own recall reference: an index over the union of the
/// engine's current peer collections, built with the engine's scoring.
iqn::InvertedIndex BuildUnionIndex(minerva::Engine& engine);

/// Order-sensitive hash of one query's selected peers and merged list
/// (doc ids and score bits).
uint64_t ResultHash(const std::vector<iqn::SelectedPeer>& peers,
                    const std::vector<iqn::ScoredDoc>& merged);

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
