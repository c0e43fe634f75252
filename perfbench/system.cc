#include "system.h"

#include <cstring>
#include <set>
#include <utility>

#include "net/tcp_transport.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/queries.h"
#include "workload/synthetic_corpus.h"

namespace perfbench {

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// The p2p_web_search spec (scenarios/p2p_web_search.json) on one process:
// 10 peers over C(5,2) fragment pairs, a 40-query pool drawn Zipf(1).
minerva::ScenarioSpec WebSearchSpec() {
  minerva::ScenarioSpec spec;
  spec.name = "p2p_web_search";
  spec.seed = 11;
  spec.corpus.documents = 3000;
  spec.corpus.vocabulary = 500;
  spec.topology.peers = 10;
  spec.topology.fragments = 5;
  spec.topology.partition = minerva::PartitionKind::kChooseCombinations;
  spec.topology.subset = 2;
  spec.engine.max_peers = 3;
  spec.engine.cache = false;
  spec.queries.pool = 40;
  spec.queries.executions = 400;
  spec.queries.zipf_s = 1.0;
  spec.churn.documents = 40;
  return spec;
}

// Salt separating the stream's draws from every seed the spec derives.
constexpr uint64_t kStreamSalt = 0x57AE0000;

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWebZipf:
      return "web_zipf";
    case Workload::kWideChurn:
      return "wide_churn";
    case Workload::kClusterTcp:
      return "cluster_tcp";
  }
  return "unknown";
}

iqn::Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kWebZipf, Workload::kWideChurn,
                     Workload::kClusterTcp}) {
    if (name == WorkloadName(w)) return w;
  }
  return iqn::Status::InvalidArgument(
      "unknown workload '" + name + "' (web_zipf|wide_churn|cluster_tcp)");
}

Shape MakeShape(Workload workload, size_t stream_override) {
  Shape shape;
  shape.workload = workload;
  switch (workload) {
    case Workload::kWebZipf:
      shape.spec = WebSearchSpec();
      shape.updates_after_stream = 3;
      break;
    case Workload::kWideChurn:
      // 128 peers, each a sliding window of 12 of 256 fragments: every
      // popular term is held by ~127 other peers, so routing weighs
      // about 127 candidates per query. No query repeats.
      shape.spec.name = "wide_churn";
      shape.spec.seed = 42;
      shape.spec.corpus.documents = 4000;
      shape.spec.topology.peers = 128;
      shape.spec.topology.partition = minerva::PartitionKind::kSlidingWindow;
      shape.spec.topology.window = 12;
      shape.spec.topology.offset = 2;
      shape.spec.engine.max_peers = 16;
      shape.spec.engine.cache = true;
      shape.spec.queries.pool = 300;
      shape.spec.queries.executions = 0;
      shape.spec.queries.k = 10;
      shape.spec.churn.every = 100;
      shape.spec.churn.documents = 40;
      shape.churn_every = 100;
      break;
    case Workload::kClusterTcp:
      // The web_zipf stream on 3 TcpTransport ranks over loopback, each
      // rank an engine in this process with its own event-loop thread.
      shape.spec = WebSearchSpec();
      shape.spec.name = "cluster_tcp";
      shape.spec.transport.kind = iqn::TransportKind::kTcp;
      shape.spec.transport.endpoints.assign(3, "127.0.0.1:0");
      shape.ranks = 3;
      shape.updates_after_stream = 3;
      break;
  }
  shape.stream_len = stream_override > 0 ? stream_override
                     : shape.spec.queries.executions > 0
                         ? shape.spec.queries.executions
                         : shape.spec.queries.pool;
  return shape;
}

iqn::Result<Stream> MakeStream(const Shape& shape, uint64_t seed) {
  const minerva::ScenarioSpec& spec = shape.spec;
  IQN_ASSIGN_OR_RETURN(minerva::ScenarioWorkload w,
                       minerva::BuildScenarioWorkload(spec));
  Stream stream;
  std::set<std::string> distinct;
  if (spec.queries.executions > 0) {
    const iqn::ZipfSampler zipf(w.pool.size(), spec.queries.zipf_s);
    iqn::Rng rng(kStreamSalt ^ seed);
    for (size_t i = 0; i < shape.stream_len; ++i) {
      stream.queries.push_back(w.pool[zipf.Sample(&rng)]);
      distinct.insert(stream.queries.back().ToString());
    }
  } else {
    // Twice as many candidates as needed, so that dropping the repeats
    // still leaves stream_len distinct queries.
    IQN_ASSIGN_OR_RETURN(iqn::SyntheticCorpusGenerator generator,
                         iqn::SyntheticCorpusGenerator::Create(w.corpus_opts));
    iqn::QueryWorkloadOptions options;
    options.num_queries = 2 * shape.stream_len;
    options.min_terms = spec.queries.min_terms;
    options.max_terms = spec.queries.max_terms;
    options.band_low = spec.queries.band_low;
    options.band_high = spec.queries.band_high;
    options.k = spec.queries.k;
    options.seed = kStreamSalt ^ seed;
    IQN_ASSIGN_OR_RETURN(std::vector<iqn::Query> pool,
                         iqn::GenerateQueries(generator.vocabulary(), options));
    for (iqn::Query& query : pool) {
      if (stream.queries.size() == shape.stream_len) break;
      if (distinct.insert(query.ToString()).second) {
        stream.queries.push_back(std::move(query));
      }
    }
    if (stream.queries.size() < shape.stream_len) {
      return iqn::Status::FailedPrecondition(
          "wide_churn: too few distinct queries for the stream");
    }
  }
  stream.distinct = distinct.size();
  return stream;
}

uint64_t System::messages() const {
  uint64_t total = 0;
  for (const auto& engine : engines) {
    total += engine->network().stats().messages;
  }
  return total;
}

uint64_t System::bytes() const {
  uint64_t total = 0;
  for (const auto& engine : engines) {
    total += engine->network().stats().bytes;
  }
  return total;
}

iqn::Result<System> BuildSystem(const minerva::ScenarioSpec& spec,
                                size_t ranks, SetupTimes* times) {
  System system;
  for (size_t r = 0; r < ranks; ++r) {
    int64_t start = NowNs();
    IQN_ASSIGN_OR_RETURN(minerva::ScenarioWorkload workload,
                         minerva::BuildScenarioWorkload(spec));
    times->workload_ms += MsSince(start);
    std::vector<iqn::Corpus> collections = std::move(workload.collections);
    if (r == 0) system.workload = std::move(workload);
    start = NowNs();
    IQN_ASSIGN_OR_RETURN(
        std::unique_ptr<minerva::Engine> engine,
        minerva::Engine::Create(
            minerva::EngineOptionsFromSpec(spec, static_cast<uint32_t>(r)),
            std::move(collections)));
    times->create_ms += MsSince(start);
    system.engines.push_back(std::move(engine));
  }
  if (ranks > 1) {
    // Ranks listen on ephemeral ports; each learns the others' actual
    // ports before any traffic, as bench/daemon_qps does.
    int64_t start = NowNs();
    std::vector<iqn::TcpTransport*> transports;
    for (const auto& engine : system.engines) {
      auto* tcp = dynamic_cast<iqn::TcpTransport*>(&engine->network());
      if (tcp == nullptr) {
        return iqn::Status::FailedPrecondition(
            "cluster rank is not on the tcp transport");
      }
      transports.push_back(tcp);
    }
    for (size_t a = 0; a < ranks; ++a) {
      for (size_t b = 0; b < ranks; ++b) {
        if (a == b) continue;
        IQN_RETURN_IF_ERROR(transports[a]->SetPeerEndpoint(
            static_cast<uint32_t>(b), transports[b]->listen_endpoint()));
      }
    }
    times->create_ms += MsSince(start);
  }
  int64_t start = NowNs();
  for (const auto& engine : system.engines) {
    IQN_RETURN_IF_ERROR(engine->Publish());
  }
  times->publish_ms += MsSince(start);
  for (const auto& engine : system.engines) engine->network().ResetStats();
  return system;
}

iqn::Result<iqn::Corpus> MakeChurnDelta(const minerva::ScenarioSpec& spec,
                                        const minerva::ScenarioWorkload& w,
                                        size_t event) {
  iqn::SyntheticCorpusOptions options = w.corpus_opts;
  options.num_documents = w.churn_docs;
  options.first_doc_id =
      10 * static_cast<iqn::DocId>(spec.corpus.documents) +
      static_cast<iqn::DocId>(event * w.churn_docs);
  options.vocabulary_seed = w.corpus_opts.seed;
  options.seed = spec.seed + 1000 * (event + 1);
  IQN_ASSIGN_OR_RETURN(iqn::SyntheticCorpusGenerator generator,
                       iqn::SyntheticCorpusGenerator::Create(options));
  return generator.Generate();
}

iqn::InvertedIndex BuildUnionIndex(minerva::Engine& engine) {
  iqn::Corpus reference;
  for (size_t i = 0; i < engine.num_peers(); ++i) {
    reference.Merge(engine.peer(i).collection());
  }
  return iqn::InvertedIndex::Build(reference, engine.options().core.scoring);
}

uint64_t ResultHash(const std::vector<iqn::SelectedPeer>& peers,
                    const std::vector<iqn::ScoredDoc>& merged) {
  uint64_t h = iqn::Hash64(peers.size(), 0x9E5B);
  for (const iqn::SelectedPeer& peer : peers) h = iqn::Hash64(peer.peer_id, h);
  for (const iqn::ScoredDoc& sd : merged) {
    uint64_t bits = 0;
    std::memcpy(&bits, &sd.score, sizeof(bits));
    h = iqn::Hash64(iqn::Hash64(sd.doc, h), bits);
  }
  return h;
}

}  // namespace perfbench
