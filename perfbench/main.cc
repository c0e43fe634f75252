// iqn_perfbench: the repo benchmark's driver. perfbench/run.py builds it
// and runs it once per workload; see perfbench/README.md for the metrics.
//
// Closed loop, one client: the workload's stream goes one query at a time
// through minerva::Engine::RunQuery, tracing off, timed only around the
// call. A run repeats the stream in passes, each on a freshly built
// system, until --seconds have elapsed; every pass must reproduce the
// first pass's per-query results and deterministic totals.
//
// --trace=1 makes the per-layer run instead: each pass runs the stream
// untraced and then replays it stage by stage (replay.h) on another
// fresh system, checking that the replay reproduces every query's result.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/recall.h"
#include "net/transport.h"
#include "replay.h"
#include "system.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/mem_stats.h"

namespace perfbench {
namespace {

// Deterministic per-pass totals; every pass must equal the first.
struct PassTotals {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t fingerprint = 0;

  bool operator==(const PassTotals& o) const {
    return messages == o.messages && bytes == o.bytes &&
           fingerprint == o.fingerprint;
  }
};

struct Run {
  // Timed samples.
  std::vector<int64_t> latency_ns;
  std::vector<double> update_ms;
  std::vector<double> republish_ms;
  std::vector<double> rebuild_ms;
  std::vector<SetupTimes> setups;
  /// Queries per second of each untraced pass (updates in-stream count).
  std::vector<double> pass_qps;
  int64_t query_ns = 0;          // untraced RunQuery calls
  int64_t stream_update_ns = 0;  // in-stream update events
  uint64_t queries = 0;
  size_t passes = 0;

  // Correctness.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t recall_mismatches = 0;
  uint64_t result_mismatches = 0;
  uint64_t pass_drifts = 0;
  std::string first_error;
  /// Result hash per stream position: from the first pass, or on a
  /// cluster from the simulated twin.
  std::vector<uint64_t> expected;
  PassTotals first_pass;
  /// Summed benchmark-owned recall of the first pass.
  double recall_sum = 0.0;
  /// Stream fingerprint of the traced replay's first pass.
  uint64_t replay_fingerprint = 0;

  // Workload properties.
  uint64_t candidates_sum = 0;
  uint64_t candidate_samples = 0;
  size_t updates_per_pass = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile.
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// One update event: a peer crawls a document delta and republishes the
// touched terms, then the engine rebuilds its reference index — what
// RunScenario does at a churn point. Returns the event's wall time.
iqn::Result<int64_t> ApplyUpdate(const Shape& shape, System* system,
                                 size_t event, Tracer* tracer, uint32_t id,
                                 Run* run) {
  IQN_ASSIGN_OR_RETURN(iqn::Corpus delta,
                       MakeChurnDelta(shape.spec, system->workload, event));
  const size_t p = event % system->num_peers();
  minerva::Engine& engine = system->OwnerOf(p);
  Span update(tracer, "update", id);
  {
    Span s(tracer, "minerva.republish", id);
    IQN_RETURN_IF_ERROR(engine.peer(p).AddDocuments(delta, true));
    run->republish_ms.push_back(static_cast<double>(s.End()) / 1e6);
  }
  {
    Span s(tracer, "ir.reference_rebuild", id);
    engine.RebuildReferenceIndex();
    run->rebuild_ms.push_back(static_cast<double>(s.End()) / 1e6);
  }
  const int64_t ns = update.End();
  run->update_ms.push_back(static_cast<double>(ns) / 1e6);
  return ns;
}

// Runs one query; returns its ResultHash.
using QueryFn = std::function<iqn::Result<uint64_t>(
    size_t pos, size_t initiator, const iqn::Query& query)>;

// One pass of the stream on `system`: update events where the shape puts
// them, every query through `run_query`, each result checked against the
// expected hash. `own_index` (may be null) is rebuilt after each update.
void DriveStream(const Shape& shape, const Stream& stream, System* system,
                 Tracer* tracer, uint32_t* next_id,
                 iqn::InvertedIndex* own_index, const QueryFn& run_query,
                 Run* run, PassTotals* totals) {
  const bool fill_expected = run->expected.size() < stream.queries.size();
  uint64_t update_messages = 0;
  uint64_t update_bytes = 0;
  size_t events = 0;
  for (size_t pos = 0; pos < stream.queries.size(); ++pos) {
    if (shape.churn_every > 0 && pos > 0 && pos % shape.churn_every == 0) {
      const uint64_t messages = system->messages();
      const uint64_t bytes = system->bytes();
      ++run->attempted;
      iqn::Result<int64_t> ns =
          ApplyUpdate(shape, system, events, tracer, (*next_id)++, run);
      ++events;
      if (!ns.ok()) {
        run->Fail("update: " + ns.status().ToString());
        return;
      }
      run->stream_update_ns += ns.value();
      update_messages += system->messages() - messages;
      update_bytes += system->bytes() - bytes;
      if (own_index != nullptr) *own_index = BuildUnionIndex(*system->engines[0]);
    }
    const size_t initiator = pos % system->num_peers();
    ++run->attempted;
    iqn::Result<uint64_t> hash =
        run_query(pos, initiator, stream.queries[pos]);
    if (!hash.ok()) {
      run->Fail("query " + std::to_string(pos) + ": " +
                hash.status().ToString());
      continue;
    }
    if (fill_expected) {
      run->expected.push_back(hash.value());
    } else if (run->expected[pos] != hash.value()) {
      ++run->result_mismatches;
      run->Fail("query " + std::to_string(pos) + ": result differs");
    }
    totals->fingerprint = iqn::Hash64(hash.value(), totals->fingerprint);
  }
  run->updates_per_pass = events;
  totals->messages = system->messages() - update_messages;
  totals->bytes = system->bytes() - update_bytes;
}

void UpdatesAfterStream(const Shape& shape, System* system, Tracer* tracer,
                        uint32_t* next_id, Run* run) {
  for (size_t e = 0; e < shape.updates_after_stream; ++e) {
    ++run->attempted;
    iqn::Result<int64_t> ns =
        ApplyUpdate(shape, system, e, tracer, (*next_id)++, run);
    if (!ns.ok()) run->Fail("update: " + ns.status().ToString());
  }
}

// Candidates the query's PeerLists yield, fetched outside the timed
// region with its traffic diverted away from the transport's stats.
void CountCandidates(minerva::Engine& engine, size_t initiator,
                     const iqn::Query& query, Run* run) {
  iqn::NetworkStats diverted;
  iqn::Transport::StatsCapture capture(&engine.network(), &diverted);
  iqn::Result<std::vector<iqn::CandidatePeer>> candidates =
      engine.peer(initiator).FetchCandidates(query);
  if (candidates.ok()) {
    run->candidates_sum += candidates.value().size();
    ++run->candidate_samples;
  }
}

// The untraced pass: RunQuery, timed around the call only. On the first
// pass, recall is computed by the benchmark against its own reference
// index, outside the timed region, and must equal the engine's own recall
// bit for bit whenever the engine still evaluates (distinct_results
// filled in). Later passes must reproduce every result hash, hence the
// same recall, so they skip that work and spend the time measuring.
iqn::Status UntracedPass(const Shape& shape, const Stream& stream, Run* run) {
  SetupTimes setup;
  IQN_ASSIGN_OR_RETURN(System system,
                       BuildSystem(shape.spec, shape.ranks, &setup));
  run->setups.push_back(setup);
  const bool first = run->passes == 0;
  iqn::InvertedIndex own_index;
  if (first) own_index = BuildUnionIndex(*system.engines[0]);
  const bool count_candidates = first && shape.ranks == 1;
  PassTotals totals;
  QueryFn run_query = [&](size_t, size_t initiator,
                          const iqn::Query& query) -> iqn::Result<uint64_t> {
    minerva::Engine& engine = system.OwnerOf(initiator);
    iqn::QueryOutcome outcome;
    const int64_t start = NowNs();
    iqn::Status status = engine.RunQuery(initiator, query, &outcome);
    const int64_t ns = NowNs() - start;
    run->latency_ns.push_back(ns);
    run->query_ns += ns;
    ++run->queries;
    IQN_RETURN_IF_ERROR(status);
    if (!first) {
      return ResultHash(outcome.decision.peers, outcome.execution.merged);
    }
    const double recall = iqn::RelativeRecall(
        outcome.execution.all_distinct, iqn::ExecuteQuery(own_index, query));
    if (outcome.distinct_results == outcome.execution.all_distinct.size() &&
        !SameBits(recall, outcome.recall)) {
      ++run->recall_mismatches;
      return iqn::Status::Internal("recall differs from the engine's");
    }
    run->recall_sum += recall;
    if (count_candidates) CountCandidates(engine, initiator, query, run);
    return ResultHash(outcome.decision.peers, outcome.execution.merged);
  };
  uint32_t next_id = 0;
  const int64_t stream_ns_before = run->query_ns + run->stream_update_ns;
  const uint64_t queries_before = run->queries;
  DriveStream(shape, stream, &system, nullptr, &next_id,
              first ? &own_index : nullptr, run_query, run, &totals);
  run->pass_qps.push_back(
      static_cast<double>(run->queries - queries_before) /
      (static_cast<double>(run->query_ns + run->stream_update_ns -
                           stream_ns_before) /
       1e9));
  if (first) {
    run->first_pass = totals;
  } else if (!(totals == run->first_pass)) {
    ++run->pass_drifts;
    run->Fail("pass " + std::to_string(run->passes) +
              ": totals differ from the first pass");
  }
  UpdatesAfterStream(shape, &system, nullptr, &next_id, run);
  ++run->passes;
  return iqn::Status::OK();
}

// The cluster's simulated twin: the same spec on the simulated transport,
// built outside any timed region. Its answers are the per-query expected
// results the cluster must reproduce.
iqn::Result<System> BuildTwin(const Shape& shape, const Stream& stream,
                              Run* run) {
  minerva::ScenarioSpec spec = shape.spec;
  spec.transport.kind = iqn::TransportKind::kSimulated;
  spec.transport.endpoints.clear();
  SetupTimes ignored;
  IQN_ASSIGN_OR_RETURN(System twin, BuildSystem(spec, 1, &ignored));
  for (size_t pos = 0; pos < stream.queries.size(); ++pos) {
    const size_t initiator = pos % twin.num_peers();
    const iqn::Query& query = stream.queries[pos];
    iqn::QueryOutcome outcome;
    IQN_RETURN_IF_ERROR(twin.engines[0]->RunQuery(initiator, query, &outcome));
    run->expected.push_back(
        ResultHash(outcome.decision.peers, outcome.execution.merged));
    CountCandidates(*twin.engines[0], initiator, query, run);
  }
  return twin;
}

// The traced pass: the stream replayed stage by stage on a fresh system.
iqn::Status ReplayPass(const Shape& shape, const Stream& stream, System* twin,
                       Tracer* tracer,
                       ReplayCounters* counters, uint32_t* next_id,
                       Run* run) {
  SetupTimes setup;
  IQN_ASSIGN_OR_RETURN(System system,
                       BuildSystem(shape.spec, shape.ranks, &setup));
  run->setups.push_back(setup);
  const iqn::IqnRouter router(system.engines[0]->options().routing.iqn);
  PassTotals totals;
  QueryFn replay = [&](size_t, size_t initiator,
                       const iqn::Query& query) -> iqn::Result<uint64_t> {
    ReplayContext ctx;
    ctx.engine = &system.OwnerOf(initiator);
    ctx.router = &router;
    ctx.sim_twin = twin == nullptr ? nullptr : twin->engines[0].get();
    ctx.tracer = tracer;
    ctx.counters = counters;
    return ReplayQuery(ctx, (*next_id)++, initiator, query);
  };
  DriveStream(shape, stream, &system, tracer, next_id, nullptr, replay, run,
              &totals);
  if (run->replay_fingerprint == 0) run->replay_fingerprint = totals.fingerprint;
  UpdatesAfterStream(shape, &system, tracer, next_id, run);
  return iqn::Status::OK();
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(const Run& run, const std::vector<Metric>& metrics) {
  const bool correct = run.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", run.attempted, run.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintProperties(const Shape& shape, uint64_t seed, const Stream& stream,
                     const Run& run) {
  std::printf("workload: %s seed=%" PRIu64 " ranks=%zu peers=%zu stream=%zu "
              "passes=%zu\n",
              WorkloadName(shape.workload), seed, shape.ranks,
              shape.spec.topology.peers, stream.queries.size(), run.passes);
  std::printf("properties: query_samples=%zu update_samples=%zu "
              "setup_samples=%zu updates_per_pass=%zu "
              "distinct_query_share=%.4f mean_candidates_per_query=%.2f\n",
              run.latency_ns.size(), run.update_ms.size(), run.setups.size(),
              run.updates_per_pass,
              static_cast<double>(stream.distinct) /
                  static_cast<double>(stream.queries.size()),
              run.candidate_samples > 0
                  ? static_cast<double>(run.candidates_sum) /
                        static_cast<double>(run.candidate_samples)
                  : 0.0);
}

void PrintChecks(const Run& run) {
  std::printf("checks: fingerprint=%016" PRIx64 " recall_mismatches=%" PRIu64
              " result_mismatches=%" PRIu64 " pass_drifts=%" PRIu64
              " failed_fraction=%.6f\n",
              run.first_pass.fingerprint, run.recall_mismatches,
              run.result_mismatches, run.pass_drifts,
              static_cast<double>(run.failed) /
                  static_cast<double>(std::max<uint64_t>(run.attempted, 1)));
  if (run.replay_fingerprint != 0) {
    std::printf("checks: replay_fingerprint=%016" PRIx64 "\n",
                run.replay_fingerprint);
  }
  if (!run.first_error.empty()) {
    std::printf("first failure: %s\n", run.first_error.c_str());
  }
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  const double stream_len = static_cast<double>(run.expected.size());
  std::vector<double> setup_s;
  for (const SetupTimes& t : run.setups) setup_s.push_back(t.total_s());
  const double p50 = Percentile(run.latency_ns, 0.50) / 1e3;
  const double p99 = Percentile(run.latency_ns, 0.99) / 1e3;
  const double stream_ns =
      static_cast<double>(run.query_ns + run.stream_update_ns);
  // The median pass: machine noise on this time scale comes in bursts of
  // seconds, which one slow pass absorbs without moving the median.
  const double qps = Median(run.pass_qps);
  std::printf("pass qps:");
  for (double v : run.pass_qps) std::printf(" %.1f", v);
  std::printf("\n");
  std::printf("update events: %.2f%% of the stream's wall time\n",
              100.0 * static_cast<double>(run.stream_update_ns) / stream_ns);
  std::printf("qps=%.1f (median pass) over %" PRIu64 " queries; latency_p50_us=%.1f "
              "latency_p99_us=%.1f (samples=%zu, beyond p99=%zu)\n",
              qps, run.queries, p50, p99, run.latency_ns.size(),
              run.latency_ns.size() - static_cast<size_t>(std::ceil(
                                          0.99 * static_cast<double>(
                                                     run.latency_ns.size()))));
  return {
      {"qps", qps, "1/s"},
      {"latency_p50_us", p50, "us"},
      {"latency_p99_us", p99, "us"},
      {"update_p50_ms", Median(run.update_ms), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb",
       static_cast<double>(iqn::ReadPeakRssBytes()) / (1024.0 * 1024.0), "MB"},
      {"recall", run.recall_sum / stream_len, "ratio"},
      {"bytes_per_query",
       static_cast<double>(run.first_pass.bytes) / stream_len, "B"},
      {"messages_per_query",
       static_cast<double>(run.first_pass.messages) / stream_len, "count"},
  };
}

struct StageStats {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t count = 0;
};

// The per-layer table and metrics of a traced run.
std::vector<Metric> PerLayerMetrics(const Shape& shape, const Run& run,
                                    const Tracer& tracer,
                                    const ReplayCounters& c) {
  const auto& spans = tracer.spans();
  std::map<std::string, StageStats> stages;
  int64_t covered_ns = 0;
  int64_t replay_query_ns = 0;
  for (const SpanRecord& s : spans) {
    const int64_t d = s.end_ns - s.start_ns;
    StageStats& st = stages[s.name];
    st.total_ns += d;
    st.self_ns += d;
    ++st.count;
    if (s.parent >= 0) {
      const SpanRecord& parent = spans[static_cast<size_t>(s.parent)];
      stages[parent.name].self_ns -= d;
      if (std::strcmp(parent.name, "query") == 0) covered_ns += d;
    } else if (std::strcmp(s.name, "query") == 0) {
      replay_query_ns += d;
    }
  }
  const double q = static_cast<double>(std::max<uint64_t>(c.queries, 1));
  auto per_query_us = [&](const char* name) {
    auto it = stages.find(name);
    return it == stages.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) /
                                    q / 1e3;
  };
  const double untraced_us =
      static_cast<double>(run.query_ns) /
      static_cast<double>(std::max<uint64_t>(run.queries, 1)) / 1e3;
  const double replay_us = static_cast<double>(replay_query_ns) / q / 1e3;
  std::printf("layer table: %" PRIu64 " replayed queries; replayed query "
              "%.1f us, untraced query %.1f us, traced-minus-untraced "
              "%.1f us\n",
              c.queries, replay_us, untraced_us, replay_us - untraced_us);
  std::printf("  %-26s %12s %12s %10s %8s %10s\n", "stage", "total_ms",
              "self_ms", "us/query", "share", "count");
  for (const auto& [name, st] : stages) {
    std::printf("  %-26s %12.3f %12.3f %10.2f %7.2f%% %10" PRIu64 "\n",
                name.c_str(), static_cast<double>(st.total_ns) / 1e6,
                static_cast<double>(st.self_ns) / 1e6,
                static_cast<double>(st.total_ns) / q / 1e3,
                replay_query_ns > 0 ? 100.0 * static_cast<double>(st.total_ns) /
                                          static_cast<double>(replay_query_ns)
                                    : 0.0,
                st.count);
  }
  std::vector<double> workload_ms, create_ms, publish_ms;
  for (const SetupTimes& t : run.setups) {
    workload_ms.push_back(t.workload_ms);
    create_ms.push_back(t.create_ms);
    publish_ms.push_back(t.publish_ms);
  }
  const bool cluster = shape.ranks > 1;
  const double rpc_us = static_cast<double>(c.rpc_ns) / q / 1e3;
  const double rpc_sim_us =
      cluster ? static_cast<double>(c.rpc_sim_ns) / q / 1e3 : rpc_us;
  return {
      {"setup.workload_ms", Median(workload_ms), "ms"},
      {"setup.create_ms", Median(create_ms), "ms"},
      {"setup.publish_ms", Median(publish_ms), "ms"},
      {"ir.local_exec_us", per_query_us("ir.local_exec"), "us"},
      {"minerva.execute_us", per_query_us("minerva.execute"), "us"},
      {"minerva.rpcs_per_query", static_cast<double>(c.rpcs) / q, "count"},
      {"ir.merge_us", per_query_us("ir.merge"), "us"},
      {"ir.evaluate_us", per_query_us("ir.evaluate"), "us"},
      {"minerva.fetch_candidates_us", per_query_us("minerva.fetch_candidates"),
       "us"},
      {"dht.peerlist_fetch_us", per_query_us("dht.peerlist_fetch"), "us"},
      {"synopses.decode_us", per_query_us("synopses.decode"), "us"},
      {"dht.terms_fetched", static_cast<double>(c.terms_fetched) / q, "count"},
      {"synopses.posts_decoded", static_cast<double>(c.posts_decoded) / q,
       "count"},
      {"minerva.cache_hit_ratio",
       c.cache_lookups > 0 ? static_cast<double>(c.cache_hits) /
                                 static_cast<double>(c.cache_lookups)
                           : 0.0,
       "ratio"},
      {"minerva.route_us", per_query_us("minerva.route"), "us"},
      {"minerva.route_candidates", static_cast<double>(c.route_candidates) / q,
       "count"},
      {"minerva.route_selected", static_cast<double>(c.route_selected) / q,
       "count"},
      {"synopses.novelty_ns",
       c.novelty_ops > 0 ? static_cast<double>(c.novelty_ns) /
                               static_cast<double>(c.novelty_ops)
                         : 0.0,
       "ns"},
      {"synopses.ops", static_cast<double>(c.novelty_ops) / q, "count"},
      {"minerva.republish_ms", Median(run.republish_ms), "ms"},
      {"ir.reference_rebuild_ms", Median(run.rebuild_ms), "ms"},
      {"net.rpc_us", rpc_us, "us"},
      {"net.rpc_sim_us", rpc_sim_us, "us"},
      {"net.wire_us", rpc_us - rpc_sim_us, "us"},
      {"net.frame_codec_us", static_cast<double>(c.frame_ns) / q / 1e3, "us"},
      {"net.frame_bytes", static_cast<double>(c.frame_bytes) / q, "B"},
      {"trace.query_us", replay_us, "us"},
      {"trace.untraced_query_us", untraced_us, "us"},
      {"trace.coverage",
       run.query_ns > 0 ? static_cast<double>(covered_ns) /
                              static_cast<double>(run.query_ns)
                        : 0.0,
       "ratio"},
  };
}

int Main(int argc, char** argv) {
  iqn::Flags flags;
  flags.DefineString("workload", "web_zipf",
                     "web_zipf | wide_churn | cluster_tcp");
  flags.DefineInt("seed", 1, "workload seed");
  flags.DefineDouble("seconds", 10.0, "measurement time");
  flags.DefineInt("trace", 0, "1 = per-layer traced run");
  flags.DefineInt("stream", 0, "queries per pass (0 = the workload's own)");
  flags.DefineString("spans_out", "", "traced run: span file (JSON lines)");
  if (iqn::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  iqn::Result<Workload> workload = ParseWorkload(flags.GetString("workload"));
  if (!workload.ok() || flags.GetInt("seed") < 0 ||
      flags.GetInt("stream") < 0) {
    std::fprintf(stderr, "perfbench: bad arguments\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  const bool trace = flags.GetInt("trace") != 0;
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const Shape shape =
      MakeShape(workload.value(), static_cast<size_t>(flags.GetInt("stream")));
  iqn::Result<Stream> stream = MakeStream(shape, seed);
  if (!stream.ok()) {
    std::fprintf(stderr, "perfbench: stream: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(flags.GetDouble("seconds") * 1e9);

  Run run;
  System twin;
  if (shape.ranks > 1) {
    iqn::Result<System> built = BuildTwin(shape, stream.value(), &run);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: simulated twin: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    twin = std::move(built).value();
  }
  Tracer tracer;
  ReplayCounters counters;
  uint32_t next_id = 0;
  do {
    iqn::Status st = UntracedPass(shape, stream.value(), &run);
    if (st.ok() && trace) {
      st = ReplayPass(shape, stream.value(), shape.ranks > 1 ? &twin : nullptr,
                      &tracer,
                      &counters, &next_id, &run);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
  } while (run.failed == 0 && NowNs() < deadline);

  PrintProperties(shape, seed, stream.value(), run);
  PrintChecks(run);
  if (!trace) {
    const std::vector<Metric> end_to_end = EndToEndMetrics(run);
    for (const Metric& m : end_to_end) {
      std::printf("  %-20s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    PrintResult(run, end_to_end);
    return 0;
  }
  std::vector<Metric> per_layer = PerLayerMetrics(shape, run, tracer, counters);
  const std::string& spans_out = flags.GetString("spans_out");
  if (!spans_out.empty()) {
    if (iqn::Status st = tracer.WriteJsonLines(spans_out); !st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  PrintResult(run, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
