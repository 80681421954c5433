#include "serve_stream.hpp"

#include <map>

#include "rng.hpp"
#include "api/api.hpp"
#include "sim/json.hpp"
#include "api/enforce.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPoolSize = 1024;

}  // namespace

std::string ServeRequest::frame(std::size_t id) const {
  std::string out = "{\"schema_version\":1,\"id\":\"" + std::to_string(id) +
                    "\",\"op\":\"run\",";
  if (kind == Kind::kSpec) {
    out += "\"spec\":\"" + titan::sim::json_escape(spec) + "\"}";
  } else {
    out += "\"scenario\":\"" + titan::sim::json_escape(name) + "\"}";
  }
  return out;
}

std::vector<std::uint64_t> spec_pool() {
  std::vector<std::uint64_t> pool;
  for (std::uint64_t seed = 1; seed <= kPoolSize; ++seed) {
    pool.push_back(seed);
  }
  return pool;
}

std::string spec_name(std::uint64_t program_seed) {
  return "rc/" + std::to_string(program_seed);
}

std::string spec_text(std::uint64_t program_seed) {
  return titan::api::ScenarioBuilder()
      .name(spec_name(program_seed))
      .workload(titan::api::Workload::random_callgraph(program_seed))
      .build()
      .serialize();
}

std::vector<std::vector<ServeRequest>> serve_stream(const ServeMix& mix,
                                                    std::uint64_t seed,
                                                    std::size_t blocks) {
  Rng rng(mix_seed(seed, 0x5e7e));
  std::vector<std::uint64_t> new_programs = mix.pool;
  rng.shuffle(new_programs);
  std::size_t next_new = 0;
  std::vector<std::uint64_t> seen_programs;
  std::map<std::uint64_t, std::string> specs;
  const auto spec_of = [&specs](std::uint64_t program) -> const std::string& {
    auto it = specs.find(program);
    if (it == specs.end()) {
      it = specs.emplace(program, spec_text(program)).first;
    }
    return it->second;
  };

  std::vector<std::vector<ServeRequest>> stream;
  stream.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<ServeRequest> block;
    for (std::size_t i = 0; i < kWarmPerBlock; ++i) {
      block.push_back({ServeRequest::Kind::kWarm,
                       mix.warm[rng.below(mix.warm.size())], ""});
    }
    for (std::size_t i = 0; i < kAttackPerBlock; ++i) {
      block.push_back({ServeRequest::Kind::kAttack,
                       mix.attack[rng.below(mix.attack.size())], ""});
    }
    for (std::size_t i = 0; i < kSpecPerBlock; ++i) {
      std::uint64_t program;
      if ((i == 0 && b % kNewSpecEvery == 0 &&
           next_new < new_programs.size()) ||
          seen_programs.empty()) {
        program = new_programs[next_new++];
        seen_programs.push_back(program);
      } else {
        program = seen_programs[rng.below(seen_programs.size())];
      }
      block.push_back({ServeRequest::Kind::kSpec, spec_name(program),
                       spec_of(program)});
    }
    rng.shuffle(block);
    stream.push_back(std::move(block));
  }
  return stream;
}

}  // namespace perfbench
