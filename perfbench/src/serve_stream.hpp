// The serve_mixed request stream: a pure function of (mix, seed, blocks).
//
// The stream is cut into blocks of kBlockRequests requests with a fixed
// composition, shuffled by the seed: warm registry runs by name, short
// attack_matrix runs by name, and run-spec requests naming random_callgraph
// programs.  Every kNewSpecEvery-th block introduces one program not seen
// before (its first request makes the daemon capture a checkpoint, a cache
// write); the other spec requests repeat programs already seen (warm forks,
// cache reads).  New programs come from a committed pool in a seeded order,
// so every output has a golden and first sightings continue through the run.
//
// The proportions are assumed, not measured: the repository records no
// production request mix.  They are chosen so that each kind of request
// takes a share of the served time: near-equal warm and attack counts, the
// spec requests a quarter of the block, and one checkpoint capture per
// kNewSpecEvery blocks, so cache writes run beside reads without
// dominating them.  Read serve_mixed figures as a fixed, reproducible
// yardstick, not as representative of any real deployment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kBlockRequests = 16;
inline constexpr std::size_t kWarmPerBlock = 6;
inline constexpr std::size_t kAttackPerBlock = 6;
inline constexpr std::size_t kSpecPerBlock = 4;
inline constexpr std::size_t kNewSpecEvery = 4;
static_assert(kWarmPerBlock + kAttackPerBlock + kSpecPerBlock ==
              kBlockRequests);

struct ServeRequest {
  enum class Kind { kWarm, kAttack, kSpec };

  Kind kind = Kind::kWarm;
  std::string name;  ///< Scenario name (registry name, or rc/<seed>).
  std::string spec;  ///< Serialized scenario for kSpec; empty otherwise.

  /// The JSONL wire frame (no trailing newline).
  [[nodiscard]] std::string frame(std::size_t id) const;

  bool operator==(const ServeRequest&) const = default;
};

struct ServeMix {
  std::vector<std::string> warm;    ///< fig1_liveness + fault_matrix names.
  std::vector<std::string> attack;  ///< attack_matrix names.
  std::vector<std::uint64_t> pool;  ///< random_callgraph seeds with goldens.
};

/// The random_callgraph seeds whose outputs are committed as goldens.
[[nodiscard]] std::vector<std::uint64_t> spec_pool();
/// Scenario name of a pool program.
[[nodiscard]] std::string spec_name(std::uint64_t program_seed);
/// Serialized scenario of a pool program (ScenarioBuilder defaults).
[[nodiscard]] std::string spec_text(std::uint64_t program_seed);

/// The first `blocks` blocks of the stream for `seed`.
[[nodiscard]] std::vector<std::vector<ServeRequest>> serve_stream(
    const ServeMix& mix, std::uint64_t seed, std::size_t blocks);

}  // namespace perfbench
