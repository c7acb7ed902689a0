// Torrent metadata.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bt {

struct Torrent {
  SwarmId id = kInvalidSwarm;
  Bytes size = 0;
  Bytes piece_size = 0;
  int num_pieces = 0;

  static Torrent from_file(const trace::FileMeta& file) {
    BC_ASSERT(file.size > 0 && file.piece_size > 0);
    Torrent t;
    t.id = file.id;
    t.size = file.size;
    t.piece_size = file.piece_size;
    // Trace::validate() caps the count, so it fits the int piece indices.
    const std::int64_t pieces = file.num_pieces();
    BC_ASSERT(pieces <= trace::kMaxPieces);
    t.num_pieces = static_cast<int>(pieces);
    return t;
  }

  /// Size of piece `index` (the last piece may be short when the file size
  /// is not a multiple of the piece size).
  Bytes piece_bytes(int index) const {
    BC_ASSERT(index >= 0 && index < num_pieces);
    if (index + 1 < num_pieces) return piece_size;
    const Bytes tail = size - static_cast<Bytes>(num_pieces - 1) * piece_size;
    return tail > 0 ? tail : piece_size;
  }
};

}  // namespace bc::bt
