// Microbenchmarks of the BitTorrent piece picker (google-benchmark).
//
// The swarm simulation (paper §5.1: "rarest-first piece picking") calls
// bt::pick_piece each time a link starts a piece, so its per-call cost
// sets much of a simulated day's wall time. This bench measures that call
// alone, without a sim run. The inputs mimic a young swarm: one seeder
// uploads to a downloader holding 30% of the file, six other leechers hold
// 20% each, and 2% of the pieces are in flight elsewhere. About a quarter
// of the candidates share the lowest copy count, so a rarest-first pick
// makes one tie-break draw per four candidates; a random-first pick draws
// for every candidate. 1,536 pieces is the trace generator's largest file
// (1.5 GiB at 1 MiB a piece).
#include <benchmark/benchmark.h>

#include "bittorrent/bitfield.hpp"
#include "bittorrent/piece_picker.hpp"
#include "util/rng.hpp"

namespace {

using namespace bc;

bt::Bitfield random_bitfield(int pieces, double density, Rng& rng) {
  bt::Bitfield b(pieces);
  for (int p = 0; p < pieces; ++p) {
    if (rng.chance(density)) b.set(p);
  }
  return b;
}

void BM_PickPiece(benchmark::State& state) {
  const auto pieces = static_cast<int>(state.range(0));
  const bool random_first = state.range(1) != 0;
  Rng rng(42);
  const bt::Bitfield seeder(pieces, true);
  const bt::Bitfield mine = random_bitfield(pieces, 0.3, rng);
  const bt::Bitfield in_flight = random_bitfield(pieces, 0.02, rng);
  bt::Availability availability(pieces);
  availability.add_bitfield(seeder);
  availability.add_bitfield(mine);
  for (int leecher = 0; leecher < 6; ++leecher) {
    availability.add_bitfield(random_bitfield(pieces, 0.2, rng));
  }
  bt::PickRequest req;
  req.mine = &mine;
  req.theirs = &seeder;
  req.availability = &availability;
  req.in_flight = &in_flight;
  req.random_first_threshold = random_first ? pieces + 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::pick_piece(req, rng));
  }
}
BENCHMARK(BM_PickPiece)
    ->ArgNames({"pieces", "random_first"})
    ->ArgsProduct({{200, 1536}, {0, 1}});

}  // namespace

BENCHMARK_MAIN();
