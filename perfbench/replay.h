// The traced replay: one query, stage by stage, through the same public
// calls minerva::Engine::RunQuery makes, each stage timed from outside.
//
// Spans (name, start, end, parent, query id) are kept in memory and
// written once at exit. Side probes that re-run a layer's work to
// measure it in isolation (novelty estimation, frame codec, the
// simulated twin's RPCs) run after the query span closes, as root spans
// of their own, so they never count toward the query's time.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "minerva/api.h"
#include "minerva/internal/iqn_router.h"
#include "util/status.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  uint32_t query = 0;
};

/// In-memory span store; spans nest in Begin/End order on one thread.
class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t query);
  void End(int32_t id, int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// One JSON object per line, times relative to the first span.
  iqn::Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// Times one stage. With a null tracer it only measures (the untraced
/// path times update events through the same code).
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint32_t query);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration.
  int64_t End();

 private:
  Tracer* tracer_;
  int32_t id_ = -1;
  int64_t start_ns_;
  int64_t duration_ns_ = -1;
};

/// Counts and side-probe times the replay accumulates.
struct ReplayCounters {
  uint64_t queries = 0;
  uint64_t rpcs = 0;
  uint64_t terms_fetched = 0;
  uint64_t posts_decoded = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  uint64_t route_candidates = 0;
  uint64_t route_selected = 0;
  uint64_t novelty_ops = 0;
  int64_t novelty_ns = 0;
  uint64_t frame_bytes = 0;
  int64_t frame_ns = 0;
  /// Remote calls on the workload's transport: directory PeerList
  /// fetches plus peer.query round trips.
  int64_t rpc_ns = 0;
  /// The same calls re-issued on the simulated twin (cluster only).
  int64_t rpc_sim_ns = 0;
};

struct ReplayContext {
  /// The engine of the rank that owns the initiator.
  minerva::Engine* engine = nullptr;
  /// The router the engine's RoutingSpec selects (IQN on every workload).
  const iqn::IqnRouter* router = nullptr;
  /// The simulated twin of a cluster workload, published on the same
  /// inputs; null on simulated workloads.
  minerva::Engine* sim_twin = nullptr;
  Tracer* tracer = nullptr;
  ReplayCounters* counters = nullptr;
};

/// Replays one query and returns ResultHash of its selected peers and
/// merged list, which must equal RunQuery's for the same stream position.
iqn::Result<uint64_t> ReplayQuery(const ReplayContext& ctx, uint32_t query_id,
                                  size_t initiator_index,
                                  const iqn::Query& query);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
