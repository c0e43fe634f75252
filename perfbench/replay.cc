#include "replay.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "ir/recall.h"
#include "minerva/aggregation.h"
#include "net/frame.h"
#include "net/rpc_policy.h"
#include "synopses/estimators.h"
#include "system.h"
#include "util/trace.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint32_t query) {
  SpanRecord span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query;
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id, int64_t end_ns) {
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Spans close innermost first; a mismatch is a benchmark bug.
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    std::abort();
  }
  open_.pop_back();
}

iqn::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::string out;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (const SpanRecord& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"query\":%u}\n",
                  s.name, static_cast<long long>(s.start_ns - base),
                  static_cast<long long>(s.end_ns - base), s.parent, s.query);
    out += line;
  }
  return iqn::WriteTextFile(path, out);
}

Span::Span(Tracer* tracer, const char* name, uint32_t query)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name, query);
  start_ns_ = NowNs();
}

int64_t Span::End() {
  if (duration_ns_ < 0) {
    const int64_t end = NowNs();
    duration_ns_ = end - start_ns_;
    if (tracer_ != nullptr) tracer_->End(id_, end);
  }
  return duration_ns_;
}

namespace {

// Select-Best-Peer's first iteration on the query's real candidates:
// combine each candidate's per-term synopses (a union for disjunctive
// queries) and estimate its novelty against a reference seeded with the
// local result, as IqnRouter's per-peer strategy does.
void NoveltyProbe(const ReplayContext& ctx, uint32_t query_id,
                  const iqn::Query& query,
                  const std::vector<iqn::DocId>& local_docs,
                  const std::vector<iqn::CandidatePeer>& candidates) {
  ReplayCounters& c = *ctx.counters;
  Span probe(ctx.tracer, "probe.novelty", query_id);
  iqn::Result<std::unique_ptr<iqn::SetSynopsis>> reference =
      ctx.engine->options().core.synopsis.MakeEmpty();
  if (!reference.ok()) return;
  for (iqn::DocId id : local_docs) reference.value()->Add(id);
  const auto reference_card = static_cast<double>(local_docs.size());
  for (const iqn::CandidatePeer& cand : candidates) {
    std::vector<const iqn::SetSynopsis*> views;
    std::vector<uint64_t> lengths;
    for (const std::string& term : query.terms) {
      auto it = cand.posts.find(term);
      if (it == cand.posts.end()) continue;
      iqn::Result<std::shared_ptr<const iqn::SetSynopsis>> syn =
          it->second.SharedSynopsis();
      if (!syn.ok()) continue;
      views.push_back(syn.value().get());
      lengths.push_back(it->second.list_length);
    }
    if (views.empty()) continue;
    const int64_t start = NowNs();
    iqn::Result<std::unique_ptr<iqn::SetSynopsis>> combined =
        iqn::CombinePerTermSynopses(views, query.mode);
    if (!combined.ok()) continue;
    const double card =
        iqn::CombinedCardinality(*combined.value(), lengths, query.mode);
    iqn::Result<double> novelty = iqn::EstimateNovelty(
        *reference.value(), reference_card, *combined.value(), card);
    c.novelty_ns += NowNs() - start;
    c.novelty_ops += novelty.ok() ? 2 : 1;
  }
}

// EncodeFrame + FrameAssembler::Feed/Next on the query's real peer.query
// request and response payloads.
void FrameCodecProbe(const ReplayContext& ctx, uint32_t query_id,
                     iqn::NodeAddress src,
                     const std::vector<iqn::SelectedPeer>& peers,
                     const iqn::Bytes& request,
                     const std::vector<iqn::Bytes>& responses) {
  ReplayCounters& c = *ctx.counters;
  Span probe(ctx.tracer, "probe.frame_codec", query_id);
  iqn::FrameAssembler assembler(16 * 1024 * 1024);
  for (size_t i = 0; i < responses.size(); ++i) {
    const int64_t start = NowNs();
    iqn::Frame out;
    out.type = iqn::FrameType::kRequest;
    out.request_id = i + 1;
    out.src = src;
    out.dst = peers[i].address;
    out.verb = "peer.query";
    out.payload = request;
    const iqn::Bytes request_frame = iqn::EncodeFrame(out);
    const iqn::Bytes response_frame = iqn::EncodeFrame(
        iqn::MakeResponseFrame(i + 1, iqn::Status::OK(), responses[i]));
    iqn::Frame in;
    size_t decoded = 0;
    for (const iqn::Bytes* frame : {&request_frame, &response_frame}) {
      if (!assembler.Feed(frame->data(), frame->size()).ok()) break;
      iqn::Result<bool> next = assembler.Next(&in);
      if (next.ok() && next.value()) ++decoded;
    }
    c.frame_ns += NowNs() - start;
    if (decoded == 2) c.frame_bytes += request_frame.size() + response_frame.size();
  }
}

// The replay's remote calls re-issued on the simulated twin: the same
// PeerList fetches and peer.query requests, without sockets.
void SimRpcProbe(const ReplayContext& ctx, uint32_t query_id,
                 size_t initiator_index,
                 const std::vector<std::string>& fetched_terms,
                 const std::vector<iqn::SelectedPeer>& peers,
                 const iqn::Bytes& request) {
  ReplayCounters& c = *ctx.counters;
  Span probe(ctx.tracer, "probe.rpc_sim", query_id);
  iqn::Peer& twin = ctx.sim_twin->peer(initiator_index);
  for (const std::string& term : fetched_terms) {
    const int64_t start = NowNs();
    iqn::Result<std::vector<iqn::Post>> list =
        twin.directory().FetchPeerList(term);
    c.rpc_sim_ns += NowNs() - start;
    if (!list.ok()) return;
  }
  for (const iqn::SelectedPeer& peer : peers) {
    const int64_t start = NowNs();
    iqn::Result<iqn::Bytes> response =
        iqn::CallRpc(&ctx.sim_twin->network(), twin.address(), peer.address,
                     "peer.query", request);
    c.rpc_sim_ns += NowNs() - start;
    if (!response.ok()) return;
  }
}

}  // namespace

iqn::Result<uint64_t> ReplayQuery(const ReplayContext& ctx, uint32_t query_id,
                                  size_t initiator_index,
                                  const iqn::Query& query) {
  minerva::Engine& engine = *ctx.engine;
  iqn::Peer& initiator = engine.peer(initiator_index);
  Tracer* tr = ctx.tracer;
  ReplayCounters& c = *ctx.counters;
  ++c.queries;
  Span query_span(tr, "query", query_id);

  // Routing phase: local execution seeds the reference.
  std::vector<iqn::ScoredDoc> local;
  {
    Span s(tr, "ir.local_exec", query_id);
    local = initiator.ExecuteLocal(query);
  }
  std::vector<iqn::DocId> local_docs;
  local_docs.reserve(local.size());
  for (const iqn::ScoredDoc& sd : local) local_docs.push_back(sd.doc);

  // Peer::FetchCandidates, composed from its public parts so that the
  // PeerList fetch and the synopsis decode are timed apart. Decoding
  // right after the fetch memoizes each Post's synopsis, exactly as the
  // directory cache does at fill time; the router then reuses the memo
  // instead of decoding inside Route.
  iqn::DirectoryCache* cache = engine.directory_cache(initiator_index);
  std::optional<iqn::DirectoryCache::Session> session;
  if (cache != nullptr) session.emplace(cache);
  std::vector<iqn::CandidatePeer> candidates;
  std::vector<std::string> fetched_terms;
  {
    Span fetch(tr, "minerva.fetch_candidates", query_id);
    std::map<uint64_t, iqn::CandidatePeer> by_peer;
    for (const std::string& term : query.terms) {
      const std::vector<iqn::Post>* posts = nullptr;
      if (session.has_value()) {
        posts = session->Lookup(term, 0);
        ++c.cache_lookups;
        if (posts != nullptr) ++c.cache_hits;
      }
      std::vector<iqn::Post> fetched;
      if (posts == nullptr) {
        Span s(tr, "dht.peerlist_fetch", query_id);
        iqn::Result<std::vector<iqn::Post>> list =
            initiator.directory().FetchPeerList(term);
        c.rpc_ns += s.End();
        if (!list.ok()) return list.status();
        fetched = std::move(list).value();
        ++c.terms_fetched;
        fetched_terms.push_back(term);
        {
          Span d(tr, "synopses.decode", query_id);
          for (const iqn::Post& post : fetched) {
            if (post.SharedSynopsis().ok()) ++c.posts_decoded;
          }
        }
        if (session.has_value()) posts = session->Fill(term, 0, fetched);
        if (posts == nullptr) posts = &fetched;
      }
      for (const iqn::Post& post : *posts) {
        if (post.peer_id == initiator.peer_id()) continue;
        iqn::CandidatePeer& cand = by_peer[post.peer_id];
        cand.peer_id = post.peer_id;
        cand.address = post.address;
        cand.posts.emplace(term, post);
      }
    }
    candidates.reserve(by_peer.size());
    for (auto& [id, cand] : by_peer) candidates.push_back(std::move(cand));
  }

  iqn::RoutingInput input;
  input.query = &query;
  input.candidates = &candidates;
  input.max_peers = engine.options().max_peers;
  input.total_peers = engine.num_peers();
  input.local_result_docs = &local_docs;
  input.synopsis_config = &engine.options().core.synopsis;
  input.now_ms = engine.network().now_ms();
  iqn::RoutingDecision decision;
  {
    Span s(tr, "minerva.route", query_id);
    IQN_ASSIGN_OR_RETURN(decision, ctx.router->Route(input));
  }
  c.route_candidates += candidates.size();
  c.route_selected += decision.peers.size();

  // Execution phase. The engine's query processor runs the local query
  // a second time before forwarding; the replay does the same.
  std::vector<iqn::ScoredDoc> local_again;
  {
    Span s(tr, "ir.local_exec", query_id);
    local_again = initiator.ExecuteLocal(query);
  }
  iqn::Bytes request;
  std::vector<iqn::Bytes> responses;
  std::vector<std::vector<iqn::ScoredDoc>> per_peer;
  {
    Span exec(tr, "minerva.execute", query_id);
    request = iqn::EncodeQuery(query);
    for (const iqn::SelectedPeer& peer : decision.peers) {
      Span s(tr, "net.rpc", query_id);
      iqn::Result<iqn::Bytes> response =
          iqn::CallRpc(&engine.network(), initiator.address(), peer.address,
                       "peer.query", request);
      c.rpc_ns += s.End();
      ++c.rpcs;
      if (!response.ok()) return response.status();
      IQN_ASSIGN_OR_RETURN(std::vector<iqn::ScoredDoc> results,
                           iqn::DecodeResults(response.value()));
      per_peer.push_back(std::move(results));
      responses.push_back(std::move(response).value());
    }
  }

  std::vector<std::vector<iqn::ScoredDoc>> all_lists = per_peer;
  all_lists.push_back(local_again);
  std::vector<iqn::ScoredDoc> merged;
  std::vector<iqn::ScoredDoc> all_distinct;
  {
    Span s(tr, "ir.merge", query_id);
    merged = iqn::MergeResults(all_lists, query.k);
    all_distinct =
        iqn::MergeResults(all_lists, std::numeric_limits<size_t>::max());
  }

  // Serving-path evaluation, as RunQuery does it today.
  {
    Span s(tr, "ir.evaluate", query_id);
    const std::vector<iqn::ScoredDoc> reference =
        engine.ReferenceResults(query);
    volatile double sink = iqn::RelativeRecall(all_distinct, reference);
    const std::vector<iqn::ScoredDoc> remote_only =
        iqn::MergeResults(per_peer, std::numeric_limits<size_t>::max());
    sink = iqn::RelativeRecall(remote_only, reference);
    sink = iqn::DuplicateFraction(per_peer);
    (void)sink;
  }

  if (session.has_value()) {
    Span s(tr, "minerva.cache_commit", query_id);
    cache->Commit(&*session);
  }
  query_span.End();

  NoveltyProbe(ctx, query_id, query, local_docs, candidates);
  FrameCodecProbe(ctx, query_id, initiator.address(), decision.peers, request,
                  responses);
  if (ctx.sim_twin != nullptr) {
    SimRpcProbe(ctx, query_id, initiator_index, fetched_terms, decision.peers,
                request);
  }
  return ResultHash(decision.peers, merged);
}

}  // namespace perfbench
