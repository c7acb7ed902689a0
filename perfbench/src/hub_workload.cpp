// The service_hub workload: one bartercast::Service acting as a hub, fed
// pre-encoded datagrams by one caller in a closed loop.
//
// Shape: the hub has 2,000 transfer partners. The same 2,000 peers gossip
// 20-record messages whose totals grow with every send; each message
// includes the sender's record about the hub, which the hub must drop
// (its own edges come from its private history). About 10% of datagrams
// come from 400 sybil identities whose 20 records all name one hub
// partner, and about 2% are truncated and must be rejected. Every fourth
// datagram is followed by one Service::reputation query. Replies are on,
// so each valid datagram also builds, encodes and "sends" the hub's own
// message. 2,000 datagrams stand for one 60 s exchange interval.
//
// The stream, the sybil records and the query subjects are generated once
// per run, before any timing. One repetition = set-up (Service
// construction, private-history warm-up, one prefill message per sender
// without replies) and the timed stream of 4,000 datagrams. Repetitions
// continue until --seconds have passed; the Service's Stats must match the
// counts known from generation exactly.
#include <bit>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bartercast/codec.hpp"
#include "bartercast/service.hpp"
#include "graph/maxflow.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace bcperf {

namespace {

namespace bcs = bc::bartercast;

constexpr bc::PeerId kHub = 0;

struct HubSpec {
  std::size_t partners = 2000;   // ids 1..partners, also the senders
  std::size_t universe = 4000;   // ids 1..universe appear in records
  std::size_t sybils = 400;      // ids universe+1 .. universe+sybils
  std::size_t datagrams = 4000;  // timed stream length
  std::size_t records = 20;
};

struct Datagram {
  bc::PeerId from = 0;
  bc::Seconds at = 0.0;
  std::vector<std::uint8_t> bytes;
};

struct Load {
  struct Transfer {
    bc::PeerId peer;
    bc::Bytes up;
    bc::Bytes down;
    bc::Seconds at;
  };
  std::vector<Transfer> history;
  std::vector<Datagram> prefill;
  std::vector<Datagram> stream;
  std::vector<bc::PeerId> query_subjects;  // one per four stream datagrams
  // Exact Service::Stats after prefill + stream.
  bcs::Service::Stats expect;
  double stream_seconds = 0.0;  // simulated time the stream covers
};

Load generate_load(const HubSpec& spec, std::uint64_t seed) {
  bc::Rng rng(seed ^ 0x6875625f6c6f6164ULL);
  Load load;
  const auto amount = [&rng] {
    return static_cast<bc::Bytes>(rng.uniform_int(bc::mib(1), bc::gib(2)));
  };
  for (bc::PeerId p = 1; p <= spec.partners; ++p) {
    load.history.push_back({p, amount(), amount(), rng.uniform(0.0, bc::kDay)});
  }

  // Each sender's transfer partners: the hub first, then distinct peers.
  struct Sender {
    std::vector<bc::PeerId> others;
    std::vector<std::pair<bc::Bytes, bc::Bytes>> base;
    std::uint64_t sends = 0;
  };
  std::vector<Sender> senders(spec.partners + 1);
  for (bc::PeerId s = 1; s <= spec.partners; ++s) {
    Sender& snd = senders[s];
    snd.others.push_back(kHub);
    while (snd.others.size() < spec.records) {
      const auto o = static_cast<bc::PeerId>(1 + rng.index(spec.universe));
      if (o == s || std::find(snd.others.begin(), snd.others.end(), o) !=
                        snd.others.end()) {
        continue;
      }
      snd.others.push_back(o);
    }
    for (std::size_t k = 0; k < spec.records; ++k) {
      snd.base.emplace_back(amount() / 16, amount() / 16);
    }
  }
  const auto target = static_cast<bc::PeerId>(1 + rng.index(spec.partners));
  std::vector<std::uint64_t> sybil_sends(spec.sybils, 0);

  std::uint64_t applied = 0, dropped = 0;
  const auto honest = [&](bc::PeerId s, bc::Seconds at) {
    Sender& snd = senders[s];
    const auto scale = static_cast<bc::Bytes>(++snd.sends);
    bcs::BarterCastMessage m{s, at, {}};
    for (std::size_t k = 0; k < spec.records; ++k) {
      m.records.push_back({s, snd.others[k], snd.base[k].first * scale,
                           snd.base[k].second * scale});
    }
    return m;
  };
  const auto sybil = [&](std::size_t k, bc::Seconds at) {
    const auto id = static_cast<bc::PeerId>(spec.universe + 1 + k);
    const auto scale = static_cast<bc::Bytes>(++sybil_sends[k]);
    bcs::BarterCastMessage m{id, at, {}};
    for (std::size_t r = 0; r < spec.records; ++r) {
      m.records.push_back({id, target, bc::gib(4) * scale,
                           bc::mib(1) * static_cast<bc::Bytes>(r)});
    }
    return m;
  };
  const auto count = [&](const bcs::BarterCastMessage& m) {
    for (const auto& r : m.records) {
      if (r.subject == kHub || r.other == kHub) {
        ++dropped;
      } else {
        ++applied;
      }
    }
  };

  for (bc::PeerId s = 1; s <= spec.partners; ++s) {
    const auto m = honest(s, bc::kDay);
    count(m);
    load.prefill.push_back({s, bc::kDay, bcs::encode(m)});
  }
  for (std::size_t k = 0; k < spec.sybils; ++k) {
    const auto m = sybil(k, bc::kDay);
    count(m);
    load.prefill.push_back({m.sender, bc::kDay, bcs::encode(m)});
  }
  load.expect.messages_received = load.prefill.size();

  const double interval = 60.0 / static_cast<double>(spec.partners);
  for (std::size_t i = 0; i < spec.datagrams; ++i) {
    const bc::Seconds at = bc::kDay + static_cast<double>(i + 1) * interval;
    const double r = rng.uniform();
    Datagram d;
    d.at = at;
    if (r < 0.10) {
      const auto m = sybil(rng.index(spec.sybils), at);
      count(m);
      d.from = m.sender;
      d.bytes = bcs::encode(m);
      ++load.expect.messages_received;
    } else {
      d.from = static_cast<bc::PeerId>(1 + rng.index(spec.partners));
      const auto m = honest(d.from, at);
      d.bytes = bcs::encode(m);
      if (r < 0.12) {
        d.bytes.resize(d.bytes.size() - 1 - rng.index(24));
        ++load.expect.messages_rejected;
      } else {
        count(m);
        ++load.expect.messages_received;
      }
    }
    load.stream.push_back(std::move(d));
    if (i % 4 == 3) {
      load.query_subjects.push_back(
          static_cast<bc::PeerId>(1 + rng.index(spec.universe)));
    }
  }
  load.expect.messages_sent =
      load.expect.messages_received - load.prefill.size();
  load.expect.records_applied = applied;
  load.expect.records_dropped = dropped;
  load.stream_seconds = static_cast<double>(spec.datagrams) * interval;
  return load;
}

/// The hub Service and its send callback's tally; the callback holds the
/// Hub's address, so a Hub never moves.
struct Hub {
  std::uint64_t reply_bytes = 0;
  bcs::Service svc;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;
  explicit Hub(const bcs::ServiceConfig& cfg)
      : svc(
            kHub, cfg,
            [this](bc::PeerId, std::vector<std::uint8_t> b) {
              reply_bytes += b.size();
            },
            [] { return bc::kInvalidPeer; }) {}
};

/// Set-up: construction, private-history warm-up and the prefill.
void warm_up(Hub& hub, const Load& load) {
  for (const auto& t : load.history) {
    hub.svc.on_bytes_sent(t.peer, t.up, t.at);
    hub.svc.on_bytes_received(t.peer, t.down, t.at);
  }
  for (const auto& d : load.prefill) {
    hub.svc.on_datagram(d.from, d.bytes, d.at, false);
  }
}

bool same_stats(const bcs::Service::Stats& a, const bcs::Service::Stats& b) {
  return a.messages_sent == b.messages_sent &&
         a.messages_received == b.messages_received &&
         a.messages_rejected == b.messages_rejected &&
         a.records_applied == b.records_applied &&
         a.records_dropped == b.records_dropped &&
         a.exchanges_initiated == b.exchanges_initiated;
}

std::string view_digest(const bcs::Node& node, Digest d) {
  const auto& g = node.view().graph();
  for (bc::PeerId v : g.nodes()) {
    d.add(v);
    for (const auto& e : g.out_edges(v)) {
      d.add(e.peer);
      d.add(static_cast<std::uint64_t>(e.cap));
    }
  }
  return d.hex();
}

}  // namespace

void run_hub_workload(const Options& opt, Result& out) {
  HubSpec spec;
  if (opt.tiny) {
    spec.partners = 100;
    spec.universe = 200;
    spec.sybils = 20;
    spec.datagrams = 400;
  }
  const double g0 = now_s();
  const Load load = generate_load(spec, opt.seed);
  const double generate_s = now_s() - g0;
  const bcs::ServiceConfig cfg;

  auto& registry = bc::obs::Registry::instance();
  auto& profiler = bc::obs::Profiler::instance();
  std::vector<double> setup_s, wall_s, traced_wall_s;
  // Per-repetition latency quantiles; the run reports their medians.
  std::vector<double> datagram_p50, datagram_p99, query_p50, query_p99;
  std::vector<double> datagram_us, query_us;
  SiteTotals sites;
  std::vector<std::uint64_t> counts;
  std::unique_ptr<Hub> last;

  const double start = now_s();
  for (std::size_t rep = 0;; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    const double t0 = now_s();
    auto hub = std::make_unique<Hub>(cfg);
    warm_up(*hub, load);
    setup_s.push_back(now_s() - t0);

    registry.reset_values();
    profiler.reset_values();
    profiler.set_enabled(traced);
    Digest answers;
    datagram_us.clear();
    query_us.clear();
    const double t1 = now_s();
    std::size_t q = 0;
    for (std::size_t i = 0; i < load.stream.size(); ++i) {
      const Datagram& d = load.stream[i];
      const double a = now_s();
      hub->svc.on_datagram(d.from, d.bytes, d.at, true);
      const double b = now_s();
      if (!traced) datagram_us.push_back((b - a) * 1e6);
      if (i % 4 == 3) {
        const double r = hub->svc.reputation(load.query_subjects[q++]);
        const double c = now_s();
        if (!traced) query_us.push_back((c - b) * 1e6);
        answers.add(std::bit_cast<std::uint64_t>(r));
      }
    }
    const double t2 = now_s();
    profiler.set_enabled(false);
    (traced ? traced_wall_s : wall_s).push_back(t2 - t1);
    std::fprintf(stderr, "repetition %zu%s: %.4f s\n", rep,
                 traced ? " (traced)" : "", t2 - t1);
    if (traced) {
      sites.add(profiler.snapshot());
    } else {
      datagram_p50.push_back(quantile(datagram_us, 0.5));
      datagram_p99.push_back(quantile(datagram_us, 0.99));
      query_p50.push_back(quantile(query_us, 0.5));
      query_p99.push_back(quantile(query_us, 0.99));
    }

    ++out.attempted;
    const std::string tag = "repetition " + std::to_string(rep) + ": ";
    const auto snap = registry.snapshot();
    const auto& st = hub->svc.stats();
    const auto& cache = hub->svc.reputation_cache();
    const std::vector<std::uint64_t> rep_counts = {
        counter_value(snap, "service.datagrams_rejected"),
        counter_value(snap, "maxflow.two_hop_queries"), cache.hits(),
        cache.misses()};
    const std::string digest = view_digest(hub->svc.node(), answers);
    if (!same_stats(st, load.expect)) {
      out.fail(tag + "Service stats differ from the generated stream");
    } else if (counter_value(snap, "service.datagrams_rejected") !=
               load.expect.messages_rejected) {
      out.fail(tag + "service.datagrams_rejected differs from the stream");
    } else if (hub->reply_bytes == 0) {
      out.fail(tag + "no reply was sent");
    } else if (!out.digest.empty() && digest != out.digest) {
      out.fail(tag + "view/answer digest differs from the first repetition");
    } else if (!counts.empty() && rep_counts != counts) {
      out.fail(tag + "counts differ from the first repetition");
    }
    if (out.digest.empty()) out.digest = digest;
    if (counts.empty()) counts = rep_counts;
    last = std::move(hub);

    if (run_done(opt, wall_s.size(), traced_wall_s.size(), now_s() - start)) {
      break;
    }
  }

  const double wall = median(wall_s);
  const auto datagrams = static_cast<double>(spec.datagrams);
  if (!opt.trace) {
    out.add("wall_s", wall, "s");
    out.add("sim_days_per_s", load.stream_seconds / bc::kDay / wall, "days/s");
    out.add("datagrams_per_s", datagrams / wall, "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Benchmark-side spans on the last repetition's final state.
  const bcs::Node& node = last->svc.node();
  const bc::Seconds now = load.stream.back().at;
  constexpr int kBuilds = 200;
  double t = now_s();
  bcs::BarterCastMessage msg;
  for (int i = 0; i < kBuilds; ++i) msg = node.make_message(now);
  const double make_us = (now_s() - t) * 1e6 / kBuilds;
  std::uint64_t encoded = 0;
  t = now_s();
  for (int i = 0; i < kBuilds; ++i) encoded += bcs::encode(msg).size();
  const double encode_us = (now_s() - t) * 1e6 / kBuilds;

  std::vector<bcs::BarterCastMessage> decoded;
  t = now_s();
  for (const auto& d : load.stream) {
    if (auto m = bcs::decode(d.bytes)) decoded.push_back(std::move(*m));
  }
  const double decode_us =
      (now_s() - t) * 1e6 / static_cast<double>(load.stream.size());

  bcs::Node rebuilt(kHub, cfg.node);
  for (const auto& tr : load.history) {
    rebuilt.on_bytes_sent(tr.peer, tr.up, tr.at);
    rebuilt.on_bytes_received(tr.peer, tr.down, tr.at);
  }
  for (const auto& d : load.prefill) {
    rebuilt.receive_message(*bcs::decode(d.bytes));
  }
  t = now_s();
  for (const auto& m : decoded) rebuilt.receive_message(m);
  const double receive_us =
      (now_s() - t) * 1e6 / static_cast<double>(decoded.size());
  double sum = 0.0;
  t = now_s();
  for (bc::PeerId s = 1; s <= spec.universe; ++s) sum += rebuilt.reputation(s);
  const double cold_us = (now_s() - t) * 1e6 / static_cast<double>(spec.universe);
  t = now_s();
  for (bc::PeerId s = 1; s <= spec.universe; ++s) sum += rebuilt.reputation(s);
  const double warm_us = (now_s() - t) * 1e6 / static_cast<double>(spec.universe);
  const auto& g = node.view().graph();
  bc::Bytes flows = 0;
  t = now_s();
  for (bc::PeerId s = 1; s <= spec.universe; ++s) {
    flows += bc::graph::max_flow_two_hop(g, s, kHub);
    flows += bc::graph::max_flow_two_hop(g, kHub, s);
  }
  const double two_hop_us =
      (now_s() - t) * 1e6 / static_cast<double>(2 * spec.universe);

  keep(sum + static_cast<double>(flows + encoded));

  const auto& st = last->svc.stats();
  const std::uint64_t rejected = counts[0], two_hop_queries = counts[1],
                      hits = counts[2], misses = counts[3];
  const auto count = [&](const char* metric, std::uint64_t v) {
    out.add(metric, static_cast<double>(v), "count");
  };
  out.add("bartercast.make_message_us", make_us, "us");
  out.add("bartercast.codec_encode_us", encode_us, "us");
  out.add("bartercast.codec_decode_us", decode_us, "us");
  out.add("bartercast.receive_message_us", receive_us, "us");
  out.add("bartercast.reputation_cold_us", cold_us, "us");
  out.add("bartercast.reputation_warm_us", warm_us, "us");
  out.add("graph.two_hop_us", two_hop_us, "us");
  count("bartercast.history_entries", node.history().size());
  count("bartercast.messages_built", st.messages_sent);
  count("bartercast.records_applied", st.records_applied);
  count("bartercast.records_dropped", st.records_dropped);
  out.add("bartercast.reputation_cache_hit_ratio", ratio(hits, hits + misses),
          "ratio");
  count("graph.two_hop_queries", two_hop_queries);
  count("graph.nodes", g.num_nodes());
  count("graph.edges", g.num_edges());
  count("service.datagrams_rejected", rejected);
  out.add("service.on_datagram_s", sites.seconds("service.on_datagram"), "s");
  out.add("service.datagram_p50_us", median(datagram_p50), "us");
  out.add("service.datagram_p99_us", median(datagram_p99), "us");
  out.add("service.rep_query_p50_us", median(query_p50), "us");
  out.add("service.rep_query_p99_us", median(query_p99), "us");
  out.add("trace.generate_s", generate_s, "s");
  out.add("obs.trace_overhead_frac", median(traced_wall_s) / wall - 1.0,
          "ratio");
  // The simulator layers do not run in this workload.
  for (const char* name :
       {"sim.events", "gossip.exchanges", "community.rounds"}) {
    count(name, 0);
  }
  out.add("community.bytes_transferred", 0.0, "bytes");
  out.add("sim.dispatch_us", 0.0, "us");
  for (const char* name :
       {"gossip.exchange_s", "community.run_s", "community.round_self_s",
        "community.choke_candidates_s", "bittorrent.choke_pick_s",
        "community.choke_reputation_s", "community.gossip_tick_self_s",
        "community.on_barter_message_s", "community.reputation_probe_s",
        "community.finalize_s", "community.unattributed_s"}) {
    out.add(name, 0.0, "s");
  }
}

}  // namespace bcperf
