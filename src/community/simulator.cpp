#include "community/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "bittorrent/bandwidth.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::community {

namespace {

// The paper's fixed BitTorrent and BarterCast setup (§4.1, §5.1).
constexpr Seconds kRoundInterval = 15.0;       // transfer/choke step
constexpr Seconds kOptimisticInterval = 30.0;  // round-robin shift
constexpr int kRegularSlots = 3;               // plus 1 optimistic slot
constexpr bt::AccessProfile kAccess{};  // ADSL: 512 KiB/s up, 3 MiB/s down
constexpr Seconds kGossipInterval = 60.0;  // per-peer exchange period
/// TTL of the choker's reputation cache (reputations change slowly;
/// caching bounds maxflow cost per round).
constexpr Seconds kReputationTtl = 5.0 * kMinute;
static_assert(kRoundInterval > 0.0);
static_assert(kOptimisticInterval >= kRoundInterval);

std::uint64_t pair_key(PeerId a, PeerId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::vector<bool> connectability(const trace::Trace& trace) {
  std::vector<bool> connectable;
  connectable.reserve(trace.peers.size());
  for (const auto& profile : trace.peers) {
    connectable.push_back(profile.connectable);
  }
  return connectable;
}

}  // namespace

CommunitySimulator::CommunitySimulator(trace::Trace trace,
                                       ScenarioConfig config, RunContext run)
    : trace_(std::move(trace)),
      config_(config),
      run_(run),
      rng_(config.seed),
      engine_(run.tracer),
      overlay_(engine_, Rng(config.seed ^ 0x6f6e6c696e65ULL),
               connectability(trace_)),
      pss_(config.seed ^ 0x70737321ULL, trace_.peers.size()),
      metrics_(trace_.duration, config.series_bin) {
  BC_ASSERT_MSG(trace_.validate().empty(), "invalid trace");
  const std::string config_error = config_.validate();
  BC_ASSERT_MSG(config_error.empty(), config_error.c_str());
  BC_ASSERT_MSG(run_.stream == nullptr || run_.stream->is_open(),
                "the metrics stream must be open");
  setup_peers();
  setup_swarms();
  schedule_trace_events();
  schedule_periodics();
}

CommunitySimulator::PeerState& CommunitySimulator::peer(PeerId id) {
  BC_ASSERT(id < peers_.size());
  return peers_[id];
}

const CommunitySimulator::PeerState& CommunitySimulator::peer(
    PeerId id) const {
  BC_ASSERT(id < peers_.size());
  return peers_[id];
}

const PeerBehavior& CommunitySimulator::behavior(PeerId id) const {
  return *peer(id).behavior;
}

bool CommunitySimulator::is_initial_holder(PeerId id, SwarmId swarm_id) const {
  BC_ASSERT(swarm_id < swarms_.size());
  return swarms_[swarm_id]->permanent_seeds.contains(id);
}

const bartercast::Node& CommunitySimulator::node(PeerId id) const {
  return *peer(id).node;
}

const bt::Swarm& CommunitySimulator::swarm(SwarmId id) const {
  BC_ASSERT(id < swarms_.size());
  return swarms_[id]->swarm;
}

void CommunitySimulator::setup_peers() {
  const std::size_t total = trace_.peers.size();

  Rng behavior_rng = rng_.fork();
  std::vector<const PeerBehavior*> behaviors;
  if (config_.population.empty()) {
    // Legacy fraction triple: bit-identical to the original enum
    // assignment (same fork, same single shuffle; golden test pins it).
    behaviors = assign_behaviors(total, config_.freerider_fraction,
                                 config_.ignorer_fraction,
                                 config_.liar_fraction, behavior_rng);
  } else {
    const auto spec = PopulationSpec::parse(config_.population);
    BC_ASSERT(spec.has_value());  // ctor validated config_ already
    behaviors = assign_population(total, spec->slices(total),
                                  behavior_named("sharer"), behavior_rng);
  }

  peers_.resize(total);
  for (PeerId id = 0; id < total; ++id) {
    PeerState& p = peers_[id];
    p.behavior = behaviors[id];
    cohorts_[p.behavior].push_back(id);  // ascending: id loop order
    p.node = std::make_unique<bartercast::Node>(id, config_.node);
  }

  // PSS bootstrap: everyone starts off knowing a random handful of peers
  // (the tracker hands out such lists in any real community).
  std::vector<PeerId> everyone(total);
  for (PeerId id = 0; id < total; ++id) everyone[id] = id;
  for (PeerId id = 0; id < total; ++id) {
    pss_.bootstrap(id, rng_.sample(everyone, 12));
  }
}

void CommunitySimulator::setup_swarms() {
  swarms_.reserve(trace_.files.size());
  for (const auto& file : trace_.files) {
    auto ctx = std::make_unique<SwarmCtx>(
        bt::Swarm(bt::Torrent::from_file(file), rng_.fork()));
    swarms_.push_back(std::move(ctx));
  }
  // Initial holders: per swarm, a few sharers hold the file from t=0 and
  // keep seeding it whenever online (the filelist uploader of the content).
  // Sharers are preferred; a degenerate all-freerider population falls back
  // to arbitrary peers so content still gets injected.
  std::vector<PeerId> sharers, everyone;
  for (PeerId id = 0; id < peers_.size(); ++id) {
    everyone.push_back(id);
    if (!peers_[id].behavior->freerider()) sharers.push_back(id);
  }
  Rng holder_rng = rng_.fork();
  for (auto& ctx : swarms_) {
    const auto& pool =
        sharers.size() >= kInitialHoldersPerSwarm ? sharers : everyone;
    for (PeerId holder : holder_rng.sample(pool, kInitialHoldersPerSwarm)) {
      ctx->swarm.add_seeder(holder);
      ctx->permanent_seeds.insert(holder);
    }
  }
}

void CommunitySimulator::schedule_trace_events() {
  // Churn shaping rewrites sessions in place (attempt_join defers through
  // trace_.peers[id].next_online, so the shaped schedule must be the one
  // the trace holds). Dedicated stream, not rng_: default profiles draw
  // nothing, keeping legacy scenarios on the exact original enum stream.
  Rng churn_rng(config_.seed ^ 0x636875726eULL);
  for (auto& profile : trace_.peers) {
    peers_[profile.id].behavior->shape_sessions(profile.sessions, churn_rng);
  }
  for (const auto& profile : trace_.peers) {
    const PeerId id = profile.id;
    for (const auto& session : profile.sessions) {
      engine_.schedule_at(session.start,
                          [this, id] { overlay_.set_online(id, true); });
      engine_.schedule_at(session.end,
                          [this, id] { overlay_.set_online(id, false); });
    }
  }
  for (const auto& request : trace_.requests) {
    engine_.schedule_at(request.at, [this, request] {
      attempt_join(request.peer, request.swarm);
    });
  }
}

void CommunitySimulator::schedule_periodics() {
  engine_.schedule_periodic(kRoundInterval, kRoundInterval,
                            [this] { round(); });
  engine_.schedule_periodic(config_.reputation_probe_interval,
                            config_.reputation_probe_interval,
                            [this] { reputation_probe(); });
  constexpr Seconds kSnapshotInterval = 1.0 * kHour;
  // Counter tracks for the trace viewer, and the flight recorder's poll
  // point: a SIGUSR1-armed dump request raised since the last snapshot is
  // served here, at a deterministic safe point.
  if (run_.tracer != nullptr) {
    engine_.schedule_periodic(kSnapshotInterval, kSnapshotInterval, [this] {
      obs::snapshot_counters_to_trace(obs::Registry::instance(), *run_.tracer,
                                      engine_.now());
      run_.tracer->poll_signal_dump();
    });
  }
  // Windowed NDJSON stream pump: one delta line per snapshot interval of
  // sim time (plus the final partial window at finalize).
  if (run_.stream != nullptr) {
    engine_.schedule_periodic(kSnapshotInterval, kSnapshotInterval,
                              [this] { pump_metrics_window(); });
  }
  for (PeerId id = 0; id < peers_.size(); ++id) {
    // Random phase per peer spreads the gossip load across rounds.
    const Seconds phase = rng_.uniform(0.0, kGossipInterval);
    engine_.schedule_periodic(phase, kGossipInterval,
                              [this, id] { gossip_tick(id); });
  }
}

void CommunitySimulator::publish_cache_totals() {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  for (PeerId i = 0; i < peers_.size(); ++i) {
    cache_hits += node(i).reputation_cache().hits();
    cache_misses += node(i).reputation_cache().misses();
  }
  // The node tallies only grow. Adding what they gained since this
  // simulator last published makes the counters sum over every simulator
  // in the process, as every other counter does.
  auto& registry = obs::Registry::instance();
  registry.counter("reputation.cache_hits")
      .inc(cache_hits - published_cache_hits_);
  registry.counter("reputation.cache_misses")
      .inc(cache_misses - published_cache_misses_);
  published_cache_hits_ = cache_hits;
  published_cache_misses_ = cache_misses;
}

void CommunitySimulator::pump_metrics_window() {
  publish_cache_totals();
  run_.stream->emit_window(obs::Registry::instance(), engine_.now());
}

void CommunitySimulator::attempt_join(PeerId id, SwarmId swarm_id) {
  BC_ASSERT(id < trace_.peers.size());
  auto& ctx = *swarms_[swarm_id];
  if (ctx.swarm.has_peer(id)) return;  // duplicate/deferred request
  if (!overlay_.online(id)) {
    // Defer to the peer's next session. Trace peers follow their schedule
    // strictly, so a request placed while offline starts then.
    const Seconds next = trace_.peers[id].next_online(engine_.now());
    if (next >= 0.0 && next < trace_.duration) {
      const Seconds at = std::max(next, engine_.now());
      engine_.schedule_at(at, [this, id, swarm_id] {
        attempt_join(id, swarm_id);
      });
    }
    return;
  }
  ctx.swarm.add_leecher(id);
  PeerState& p = peer(id);
  ++p.files_requested;
  ++p.downloading;
}

double CommunitySimulator::choker_reputation(PeerId evaluator,
                                             PeerId subject) {
  const Seconds now = engine_.now();
  auto& entry = rep_cache_[pair_key(evaluator, subject)];
  if (now - entry.at <= kReputationTtl) return entry.value;
  entry.at = now;
  entry.value = peer(evaluator).node->reputation(subject);
  return entry.value;
}

void CommunitySimulator::choke_swarm(SwarmId swarm_id,
                                     const std::vector<PeerId>& online) {
  BC_OBS_SCOPE("community.choke_swarm");
  auto& ctx = *swarms_[swarm_id];
  const Seconds now = engine_.now();
  const Seconds dt = kRoundInterval;
  const bool use_reputation =
      config_.policy.kind() != bartercast::PolicyKind::kNone;

  // Each member's pieces, looked up once: the pair loop is O(online^2).
  std::vector<const bt::Bitfield*> have;
  have.reserve(online.size());
  for (PeerId u : online) have.push_back(&ctx.swarm.pieces(u));
  std::vector<bt::UnchokeCandidate> candidates;
  candidates.reserve(online.size());
  for (std::size_t i = 0; i < online.size(); ++i) {
    const PeerId u = online[i];
    const bool u_is_seed = have[i]->complete();
    const bartercast::ReputationPolicy& policy = config_.policy;
    candidates.clear();
    for (std::size_t j = 0; j < online.size(); ++j) {
      const PeerId v = online[j];
      if (v == u || !overlay_.can_communicate(u, v)) continue;
      bt::UnchokeCandidate c;
      c.peer = v;
      // v wants data from u (Swarm::interested(v, u)).
      c.interested = !have[j]->complete() && have[j]->is_interesting(*have[i]);
      // Tit-for-tat metric: leechers rank by what v sends them; seeders by
      // what they deliver to v (paper §4.1).
      const Bytes moved = u_is_seed ? ctx.swarm.last_round_bytes(u, v)
                                    : ctx.swarm.last_round_bytes(v, u);
      c.rate = static_cast<Rate>(moved) / dt;
      c.reputation = use_reputation ? choker_reputation(u, v) : 0.0;
      candidates.push_back(c);
    }
    ChokeState& cs = ctx.chokers[u];
    cs.regular =
        bt::pick_regular_unchokes(candidates, kRegularSlots, policy);
    // Keep the optimistic choice for a full rotation period, unless it
    // became useless (left/completed/banned/regular) in the meantime.
    bool still_valid = false;
    if (cs.optimistic != kInvalidPeer) {
      for (const auto& c : candidates) {
        if (c.peer == cs.optimistic) {
          still_valid = c.interested && policy.allows_slot(c.reputation) &&
                        std::find(cs.regular.begin(), cs.regular.end(),
                                  c.peer) == cs.regular.end();
          break;
        }
      }
    }
    if (now >= cs.next_rotation || !still_valid) {
      cs.optimistic = cs.rotator.pick(candidates, cs.regular, policy, now);
      cs.next_rotation = now + kOptimisticInterval;
    }
  }
  // One policy-decision event per swarm rescan keeps trace volume linear in
  // rounds, not in peers.
  if (run_.tracer != nullptr) {
    run_.tracer->instant("choke.rescan", "policy", now,
                         {{"swarm", std::to_string(swarm_id)},
                          {"online", std::to_string(online.size())},
                          {"policy", config_.policy.name()}});
  }
}

void CommunitySimulator::round() {
  BC_OBS_SCOPE("community.round");
  static obs::Counter& rounds =
      obs::Registry::instance().counter("community.rounds");
  static obs::Counter& bytes_moved =
      obs::Registry::instance().counter("community.bytes_transferred");
  rounds.inc();
  const Seconds now = engine_.now();
  const Seconds dt = kRoundInterval;
  round_received_.clear();

  // Phase 1: choke decisions per swarm on the current member/online sets.
  std::vector<std::vector<PeerId>> online_members(swarms_.size());
  std::size_t total_online = 0;
  for (SwarmId s = 0; s < swarms_.size(); ++s) {
    for (PeerId m : swarms_[s]->swarm.members()) {
      if (overlay_.online(m)) online_members[s].push_back(m);
    }
    total_online += online_members[s].size();
    choke_swarm(s, online_members[s]);
  }

  // Phase 2: collect the active directed links across all swarms.
  struct TaggedLink {
    SwarmId swarm;
    PeerId uploader;
    PeerId downloader;
  };
  std::vector<TaggedLink> links;
  std::vector<bt::LinkRequest> requests;
  // Upper bound: every online peer can hold `kRegularSlots` regular unchokes
  // plus one optimistic; pre-sizing keeps the collection loop off the
  // allocator.
  const std::size_t max_links =
      total_online * (static_cast<std::size_t>(kRegularSlots) + 1);
  links.reserve(max_links);
  requests.reserve(max_links);
  for (SwarmId s = 0; s < swarms_.size(); ++s) {
    auto& ctx = *swarms_[s];
    std::unordered_set<std::uint64_t> active_now;
    for (PeerId u : online_members[s]) {
      const auto it = ctx.chokers.find(u);
      if (it == ctx.chokers.end()) continue;
      auto consider = [&](PeerId v) {
        if (v == kInvalidPeer) return;
        if (!ctx.swarm.has_peer(v) || ctx.swarm.is_complete(v)) return;
        if (!overlay_.can_communicate(u, v)) return;
        if (!ctx.swarm.interested(v, u)) return;
        const std::uint64_t key = pair_key(u, v);
        if (!active_now.insert(key).second) return;
        links.push_back({s, u, v});
        requests.push_back({u, v});
      };
      for (PeerId v : it->second.regular) consider(v);
      consider(it->second.optimistic);
    }
    // Links that lost their unchoke release their in-flight piece.
    // bc-analyze: allow(D1) -- per-link releases touch disjoint swarm state; final state is order-independent
    for (std::uint64_t key : ctx.prev_active) {
      if (!active_now.contains(key)) {
        const auto u = static_cast<PeerId>(key >> 32);
        const auto v = static_cast<PeerId>(key & 0xffffffffu);
        if (ctx.swarm.has_peer(u) && ctx.swarm.has_peer(v)) {
          ctx.swarm.release_link(u, v);
        }
      }
    }
    ctx.prev_active = std::move(active_now);
  }

  // Phase 3: bandwidth allocation across all swarms at once (shared
  // uplinks), then apply the transfers. A complete downloader takes
  // nothing, so the transfer that moves bytes and leaves its downloader
  // complete is the one that completed the file.
  const std::vector<Rate> rates = bt::allocate_rates(requests, kAccess);
  std::vector<std::pair<SwarmId, PeerId>> completions;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto budget = static_cast<Bytes>(std::llround(rates[i] * dt));
    if (budget <= 0) continue;
    const TaggedLink& l = links[i];
    const Bytes moved =
        swarms_[l.swarm]->swarm.transfer(l.uploader, l.downloader, budget);
    if (moved <= 0) continue;
    bytes_moved.inc(static_cast<std::uint64_t>(moved));
    peer(l.uploader).node->on_bytes_sent(l.downloader, moved, now);
    peer(l.downloader).node->on_bytes_received(l.uploader, moved, now);
    peer(l.uploader).total_up += moved;
    peer(l.downloader).total_down += moved;
    round_received_[l.downloader] += moved;
    if (swarms_[l.swarm]->swarm.is_complete(l.downloader)) {
      completions.emplace_back(l.swarm, l.downloader);
    }
  }

  // Phase 4: the completions, in transfer order.
  for (const auto& [sid, who] : completions) handle_completion(sid, who);

  // Phase 5: seeding period expiry.
  for (auto& ctx : swarms_) {
    std::vector<PeerId> expired;
    // bc-analyze: allow(D1) -- collected ids are fully re-sorted below before any state changes
    for (const auto& [p, until] : ctx->seed_until) {
      if (now >= until) expired.push_back(p);
    }
    std::sort(expired.begin(), expired.end());
    for (PeerId p : expired) {
      ctx->seed_until.erase(p);
      ctx->swarm.remove_peer(p);
    }
  }

  // Phase 6: round bookkeeping for tit-for-tat.
  for (auto& ctx : swarms_) ctx->swarm.end_round();

  // Phase 7: download-speed probe over actively downloading trace peers.
  for (PeerId p = 0; p < trace_.peers.size(); ++p) {
    PeerState& st = peer(p);
    if (st.downloading == 0 || !overlay_.online(p)) continue;
    Bytes got = 0;
    if (auto it = round_received_.find(p); it != round_received_.end()) {
      got = it->second;
    }
    const double speed = static_cast<double>(got) / dt;
    if (st.behavior->freerider()) {
      metrics_.speed_freeriders.add(now, speed);
    } else {
      metrics_.speed_sharers.add(now, speed);
    }
    st.time_downloading += dt;
    if (now >= trace_.duration * 0.5) {
      st.late_downloaded = util::saturating_add(st.late_downloaded, got);
      st.late_time_downloading += dt;
    }
  }

  // Phase 8: the cheap audit subset; the full audit, with the Eq. 1
  // bounds, runs once at the end of run().
  if (run_.audit) {
    check::Report report;
    audit_round(report);
    enforce("community.round", report);
  }
}

void CommunitySimulator::handle_completion(SwarmId swarm_id, PeerId id) {
  const Seconds now = engine_.now();
  PeerState& p = peer(id);
  ++p.files_completed;
  --p.downloading;
  auto& ctx = *swarms_[swarm_id];
  const Seconds seed_for = p.behavior->seed_duration(config_);
  if (seed_for <= 0.0) {
    // "freeriders ... immediately leave the swarm after finishing" (§5.1).
    ctx.swarm.remove_peer(id);
    ctx.chokers.erase(id);
  } else {
    // Sharers seed the file for the configured period (10 h in the paper);
    // strategic uploaders invest their reduced budget here too.
    ctx.seed_until[id] = now + seed_for;
  }
}

bartercast::BarterCastMessage CommunitySimulator::make_outgoing_message(
    PeerId id) {
  PeerState& p = peer(id);
  MessageContext ctx{*p.node, engine_.now(), id, &cohorts_.at(p.behavior)};
  return p.behavior->make_message(ctx);
}

void CommunitySimulator::gossip_tick(PeerId id) {
  BC_OBS_SCOPE("community.gossip_tick");
  if (!overlay_.online(id)) return;
  const auto can_talk = [this](PeerId a, PeerId b) {
    return overlay_.can_communicate(a, b);
  };
  const PeerId partner = pss_.exchange(id, can_talk);
  if (partner == kInvalidPeer) return;
  ++metrics_.messages.gossip_exchanges;
  if (run_.tracer != nullptr) {
    run_.tracer->instant("gossip.exchange", "gossip", engine_.now(),
                         {{"initiator", std::to_string(id)},
                          {"partner", std::to_string(partner)}});
  }
  peer(id).node->on_peer_seen(partner, engine_.now());
  if (peer(id).behavior->sends_messages()) {
    send_message(id, partner, /*is_reply=*/false);
  }
}

void CommunitySimulator::send_message(PeerId from, PeerId to, bool is_reply) {
  // Built before the reachability check, so a behavior's make_message runs
  // once per attempt whether or not the message can leave.
  bartercast::BarterCastMessage msg = make_outgoing_message(from);
  const bool sent = overlay_.schedule_delivery(
      from, to, [this, from, to, is_reply, msg = std::move(msg)] {
        on_barter_message(to, from, msg, is_reply);
      });
  if (!sent) return;
  ++metrics_.messages.messages_sent;
  static obs::Counter& sent_c =
      obs::Registry::instance().counter("barter.messages_sent");
  sent_c.inc();
}

void CommunitySimulator::on_barter_message(
    PeerId receiver, PeerId sender, const bartercast::BarterCastMessage& msg,
    bool is_reply) {
  BC_OBS_SCOPE("community.on_barter_message");
  static obs::Counter& received =
      obs::Registry::instance().counter("barter.messages_received");
  static obs::Counter& applied_c =
      obs::Registry::instance().counter("barter.records_applied");
  static obs::Counter& dropped_third_party =
      obs::Registry::instance().counter("barter.dropped_third_party");
  static obs::Counter& dropped_own_edge =
      obs::Registry::instance().counter("barter.dropped_own_edge");
  static obs::Counter& dropped_self_report =
      obs::Registry::instance().counter("barter.dropped_self_report");
  // Per-message record-count distribution (how full the Nh+Nr selection
  // runs in practice).
  static obs::LogHistogram& records_hist =
      obs::Registry::instance().log_histogram("barter.message_records",
                                              obs::LogSpec::magnitude());
  ++metrics_.messages.messages_received;
  received.inc();
  records_hist.observe(static_cast<double>(msg.records.size()));
  if (run_.audit) {
    check::Report report;
    check::check_message(msg, config_.node.selection, report);
    enforce("community.message", report);
  }
  PeerState& p = peer(receiver);
  const auto stats = p.node->receive_message(msg);
  metrics_.messages.records_applied += stats.applied;
  metrics_.messages.dropped_third_party += stats.dropped_third_party;
  metrics_.messages.dropped_own_edge += stats.dropped_own_edge;
  metrics_.messages.dropped_self_report += stats.dropped_self_report;
  applied_c.inc(stats.applied);
  dropped_third_party.inc(stats.dropped_third_party);
  dropped_own_edge.inc(stats.dropped_own_edge);
  dropped_self_report.inc(stats.dropped_self_report);
  p.node->on_peer_seen(sender, engine_.now());
  // Bidirectional exchange: answer a fresh message with our own records.
  if (!is_reply && p.behavior->sends_messages()) {
    send_message(receiver, sender, /*is_reply=*/true);
  }
}

double CommunitySimulator::system_reputation(PeerId subject) {
  const auto n = static_cast<PeerId>(trace_.peers.size());
  BC_ASSERT(subject < n);
  double sum = 0.0;
  for (PeerId j = 0; j < n; ++j) {
    if (j == subject) continue;
    sum += peer(j).node->reputation(subject);
  }
  return sum / static_cast<double>(n - 1);
}

std::vector<double> CommunitySimulator::batch_system_reputations() {
  const auto n = trace_.peers.size();
  BC_ASSERT(n >= 2);
  // One observation per evaluation: its total is the evaluation count.
  obs::LogHistogram& values = obs::Registry::instance().log_histogram(
      "reputation.eval_values", obs::LogSpec::signed_unit());
  // Evaluator-major (j, then subjects i), and each subject's sum runs over
  // ascending j. That order fixes both the cache traffic and the FP
  // addition order, which the golden outputs pin bit for bit.
  std::vector<double> avg(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    auto& evaluator = *peers_[j].node;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      const double r = evaluator.reputation(static_cast<PeerId>(i));
      values.observe(r);
      avg[i] += r;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    avg[i] /= static_cast<double>(n - 1);
  }
  return avg;
}

void CommunitySimulator::reputation_probe() {
  BC_OBS_SCOPE("community.reputation_probe");
  const Seconds now = engine_.now();
  const auto n = static_cast<PeerId>(trace_.peers.size());
  if (n < 2) return;
  const std::vector<double> reps = batch_system_reputations();
  for (PeerId i = 0; i < n; ++i) {
    if (peer(i).behavior->freerider()) {
      metrics_.reputation_freeriders.add(now, reps[i]);
    } else {
      metrics_.reputation_sharers.add(now, reps[i]);
    }
  }
}

void CommunitySimulator::finalize() {
  BC_OBS_SCOPE("community.finalize");
  const auto n = static_cast<PeerId>(trace_.peers.size());
  metrics_.outcomes.resize(n);
  // The per-class final-reputation distributions; like every registry
  // instrument they accumulate across the runs of one process.
  auto& registry = obs::Registry::instance();
  obs::LogHistogram& final_sharers = registry.log_histogram(
      "community.final_reputation_sharers", obs::LogSpec::signed_unit());
  obs::LogHistogram& final_freeriders = registry.log_histogram(
      "community.final_reputation_freeriders", obs::LogSpec::signed_unit());
  const std::vector<double> reps =
      n >= 2 ? batch_system_reputations() : std::vector<double>(n, 0.0);
  for (PeerId i = 0; i < n; ++i) {
    PeerOutcome& o = metrics_.outcomes[i];
    const PeerState& p = peer(i);
    o.peer = i;
    o.behavior = std::string(p.behavior->name());
    o.freerider = p.behavior->freerider();
    o.total_uploaded = p.total_up;
    o.total_downloaded = p.total_down;
    o.final_system_reputation = reps[i];
    o.files_requested = p.files_requested;
    o.files_completed = p.files_completed;
    o.time_downloading = p.time_downloading;
    o.late_downloaded = p.late_downloaded;
    o.late_time_downloading = p.late_time_downloading;
    (o.freerider ? final_freeriders : final_sharers)
        .observe(o.final_system_reputation);
  }
  // After the final reputation sweep, so its cache activity is included.
  publish_cache_totals();
  if (run_.stream != nullptr) {
    // Final partial window: whatever moved since the last periodic pump
    // (including the finalize-time instruments above), so the stream's
    // column sums equal the end-of-run cumulative totals exactly.
    run_.stream->emit_window(obs::Registry::instance(), engine_.now());
  }
}

void CommunitySimulator::audit_round(check::Report& report) const {
  check::check_engine(engine_, report);
  std::vector<const bartercast::PrivateHistory*> ledgers;
  ledgers.reserve(peers_.size());
  for (const auto& p : peers_) ledgers.push_back(&p.node->history());
  Bytes ground_truth = 0;
  for (const auto& ctx : swarms_) {
    ground_truth =
        util::saturating_add(ground_truth, ctx->swarm.total_transferred());
  }
  check::check_ledger_conservation(ledgers, ground_truth, report);
}

void CommunitySimulator::enforce(std::string_view site,
                                 const check::Report& report) const {
  if (report.ok()) return;
  // Last gasp: the flight recorder's window leading up to the failure.
  if (run_.tracer != nullptr) run_.tracer->dump_now();
  check::abort_on_violations(site, report);
}

void CommunitySimulator::audit(check::Report& report) const {
  audit_round(report);
  for (const auto& ctx : swarms_) {
    if (!ctx->swarm.check_invariants()) {
      report.fail("swarm.invariants",
                  "piece/availability invariants broken in a swarm");
    }
  }

  // Subjective graphs, Eq. 1 bounds, and outgoing-message shape. Graph
  // structure is cheap and checked for everyone; the maxflow/reputation
  // bounds are O(n * deg) per evaluator, so cap the evaluator sample (a
  // deterministic prefix keeps audit output stable across runs).
  const bartercast::ReputationEngine engine(config_.node.reputation);
  constexpr PeerId kBoundsSampleCap = 16;
  std::vector<PeerId> subjects;
  for (PeerId id = 0; id < peers_.size(); ++id) {
    const bartercast::Node& node = *peers_[id].node;
    check::check_flow_graph(node.view().graph(), report);
    if (id < kBoundsSampleCap) {
      subjects.clear();
      for (PeerId s = 0; s < peers_.size() && subjects.size() < kBoundsSampleCap;
           ++s) {
        if (s != id) subjects.push_back(s);
      }
      check::check_reputation_bounds(engine, node.view().graph(), id, subjects,
                                     report);
      check::check_message(node.make_message(engine_.now()),
                           config_.node.selection, report);
    }
  }
}

void CommunitySimulator::run() {
  BC_OBS_SCOPE("community.run");
  BC_ASSERT_MSG(!ran_, "run() must be called once");
  ran_ = true;
  engine_.run_until(trace_.duration);
  // Audit before finalize() writes the stream's last window: the audit's
  // Eq. 1 bound checks run maxflows, and their counts must land in it.
  if (run_.audit) {
    check::Report report;
    audit(report);
    enforce("community.run", report);
  }
  finalize();
  BC_DASSERT(std::all_of(swarms_.begin(), swarms_.end(), [](const auto& c) {
    return c->swarm.check_invariants();
  }));
}

}  // namespace bc::community
