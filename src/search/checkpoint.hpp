// HGGA checkpoint/resume.
//
// A checkpoint captures everything the generational loop needs to continue
// exactly where it stopped: the population (plans + costs), the master RNG
// state, generation/stall counters, the incumbent best and the convergence
// history. Costs and statistics are serialized as C hexfloats, so a
// resumed run reproduces a bit-identical best to an uninterrupted run with
// the same seed.
//
// The on-disk format is line-oriented text in the program_io style — one
// record per line, populations one individual per line — so checkpoints
// diff cleanly under version control and survive hand inspection:
//
//   hgga-checkpoint v1
//   program rk18
//   kernels 18
//   seed 24301
//   generation 40
//   stall 3
//   rng 9c0... 41f... 7aa... 003...
//   best cost=0x1.9p-9 plan={0,1} {2} ...
//   history 0x1.ap-9
//   trace best=0x1.9p-9 mean=0x1.ap-9 distinct=17 groups=0x1.8p+3
//   individual cost=0x1.9p-9 plan={0,1} {2} ...
//   end
//
// Writes commit through write_file_atomic (util/fs_io.hpp): "<path>.tmp" is
// written, fsynced and renamed over the destination, so a kill or power
// loss mid-write never corrupts the previous good checkpoint.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fusion/fusion_plan.hpp"
#include "search/hgga.hpp"

namespace kf {

struct HggaCheckpoint {
  std::string program_name;
  int num_kernels = 0;
  std::uint64_t seed = 0;
  int generation = 0;  ///< next generation index to execute
  int stall = 0;
  std::array<std::uint64_t, 4> rng_state{};
  double best_cost = 0.0;
  FusionPlan best;
  std::vector<FusionPlan> population;  ///< parallel to `costs`
  std::vector<double> costs;
  std::vector<double> history;
  std::vector<GenerationStats> trace;
};

void write_checkpoint(std::ostream& os, const HggaCheckpoint& ckpt);

/// Parses a checkpoint; throws kf::CheckpointError (util/error.hpp) with a
/// line number on malformed, truncated or out-of-range input. Every count
/// is capped before it sizes an allocation and every cost must be finite,
/// so corrupt bytes fail loud and early — never as an OOM or a poisoned
/// resume (tests/fixtures/bad/checkpoint/ holds one specimen per failure
/// mode).
HggaCheckpoint read_checkpoint(std::istream& is);

/// Durable atomic save through write_file_atomic; throws StoreError (a
/// RuntimeError) when the file cannot be written.
void save_checkpoint(const std::string& path, const HggaCheckpoint& ckpt);

/// Loads and validates a checkpoint file; throws kf::CheckpointError when
/// the file is missing, oversized (64 MiB cap) or fails read_checkpoint's
/// validation.
HggaCheckpoint load_checkpoint(const std::string& path);

}  // namespace kf
