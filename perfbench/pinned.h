#pragma once

// Pinned outputs the benchmark checks every operation against.  They are
// properties of the protocols, not of the machine: a build whose outputs
// drift from them counts its operations as failed.

#include <cstddef>
#include <cstdint>

namespace perfbench::pinned {

// paper_sweep: FNV-1a 64 of the pass's result records, header excluded,
// each record with its leading {"job":N, stripped, sorted and joined by
// '\n'.  Order-free, so it holds for every seed's permutation of the
// matrix.
inline constexpr std::uint64_t kPaperRecordsDigest = 0xa18a2a66395269ccull;
inline constexpr std::size_t kPaperJobs = 2056;

// bulk_mesh: the lattice rotation and, per lattice, the candidate sources
// a seed chooses from, with the transmissions and resolver repairs each
// must produce.  Candidates of one lattice are near-centre sources whose
// plans need the same resolver rounds, so every seed does the same
// amount of work.
struct BulkSource {
  std::uint32_t source;
  std::size_t tx;
  std::size_t repairs;
};
struct BulkLattice {
  const char* family;
  int m, n, l;
  BulkSource candidates[4];
};
inline constexpr BulkLattice kBulkRotation[] = {
    {"2D-4", 1000, 1000, 1,
     {{499499, 335000, 0},
      {499500, 335000, 0},
      {500499, 335000, 0},
      {500500, 335000, 0}}},
    {"2D-8", 1000, 1000, 1,
     {{499499, 201897, 1093},
      {500500, 201897, 1093},
      {499498, 201898, 1093},
      {498499, 201899, 1094}}},
    {"3D-6", 100, 100, 100,
     {{484848, 212121, 1393},
      {494948, 212121, 1393},
      {505048, 212121, 1393},
      {485048, 212121, 1393}}},
    {"2D-3", 256, 256, 1,
     {{32639, 47367, 6342},
      {32895, 47367, 6342},
      {32637, 47369, 6345},
      {32893, 47369, 6345}}},
};

}  // namespace perfbench::pinned
