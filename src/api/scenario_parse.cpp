// Scenario deserialization: the inverse of Scenario::serialize() and
// Workload::serialized().
//
// The fingerprint grammar the serializers emit is the repo's canonical
// scenario identity (report config fingerprints, checkpoint identity
// validation, registry round-trips).  This file makes that grammar a two-way
// street so a wire request can name any buildable scenario by its serialized
// form — and every deserialized scenario flows through ScenarioBuilder's
// build() validation, so the wire surface rejects exactly the combinations
// the programmatic surface rejects, with the same ScenarioError taxonomy.
//
// Strictness rules: every base key must appear exactly once, unknown and
// duplicate keys are errors, and every error message names the offending
// key or token (the wire layer forwards these verbatim in its structured
// `invalid_scenario` responses).
#include <charconv>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario.hpp"
#include "attacks/attack.hpp"
#include "sim/fault.hpp"

namespace titan::api {

namespace {

[[noreturn]] void parse_error(const std::string& what) {
  throw ScenarioError("from_serialized: " + what);
}

/// Strict decimal parse; names `what` and the token on failure.
std::uint64_t parse_number(std::string_view what, std::string_view token) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size() ||
      token.empty()) {
    parse_error("malformed number '" + std::string(token) + "' for " +
                std::string(what));
  }
  return value;
}

unsigned parse_unsigned(std::string_view what, std::string_view token) {
  const std::uint64_t value = parse_number(what, token);
  if (value > 0xFFFF'FFFFull) {
    parse_error("value '" + std::string(token) + "' for " + std::string(what) +
                " does not fit 32 bits");
  }
  return static_cast<unsigned>(value);
}

bool parse_flag(std::string_view key, std::string_view token) {
  if (token == "0") {
    return false;
  }
  if (token == "1") {
    return true;
  }
  parse_error("flag '" + std::string(key) + "' must be 0 or 1, got '" +
              std::string(token) + "'");
}

}  // namespace

// ---- Workload ---------------------------------------------------------------

Workload Workload::from_serialized(std::string_view text) {
  if (text.substr(0, 6) == "image:") {
    parse_error(
        "workload '" + std::string(text) +
        "' is an image fingerprint — image workloads carry program bytes the "
        "serialized form only hashes, so they are not wire-constructible");
  }
  const std::size_t open = text.find('(');
  if (open == std::string_view::npos || text.empty() || text.back() != ')') {
    parse_error("malformed workload '" + std::string(text) +
                "' (expected generator(args))");
  }
  const std::string_view generator = text.substr(0, open);
  const std::string_view args_text =
      text.substr(open + 1, text.size() - open - 2);

  std::vector<std::string_view> args;
  if (!args_text.empty()) {
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = args_text.find(',', start);
      if (comma == std::string_view::npos) {
        args.push_back(args_text.substr(start));
        break;
      }
      args.push_back(args_text.substr(start, comma - start));
      start = comma + 1;
    }
  }

  const auto want_args = [&](std::size_t count) {
    if (args.size() != count) {
      parse_error("workload generator '" + std::string(generator) +
                  "' takes " + std::to_string(count) + " argument(s), got " +
                  std::to_string(args.size()) + " in '" + std::string(text) +
                  "'");
    }
  };

  if (generator == "fib") {
    want_args(1);
    return Workload::fib(parse_unsigned("fib argument", args[0]));
  }
  if (generator == "matmul") {
    want_args(1);
    return Workload::matmul(parse_unsigned("matmul argument", args[0]));
  }
  if (generator == "crc32") {
    want_args(1);
    return Workload::crc32(parse_unsigned("crc32 argument", args[0]));
  }
  if (generator == "quicksort") {
    want_args(1);
    return Workload::quicksort(parse_unsigned("quicksort argument", args[0]));
  }
  if (generator == "stats") {
    want_args(1);
    return Workload::stats(parse_unsigned("stats argument", args[0]));
  }
  if (generator == "call_chain") {
    want_args(1);
    return Workload::call_chain(parse_unsigned("call_chain argument", args[0]));
  }
  if (generator == "indirect_dispatch") {
    want_args(1);
    return Workload::indirect_dispatch(
        parse_unsigned("indirect_dispatch argument", args[0]));
  }
  if (generator == "rop_victim") {
    want_args(0);
    return Workload::rop_victim();
  }
  if (generator == "random_callgraph") {
    want_args(3);
    return Workload::random_callgraph(
        parse_number("random_callgraph seed", args[0]),
        parse_unsigned("random_callgraph functions", args[1]),
        parse_flag("random_callgraph inject_rop", args[2]));
  }
  parse_error("unknown workload generator '" + std::string(generator) + "'");
}

// ---- Scenario ---------------------------------------------------------------

Scenario ScenarioBuilder::from_serialized(std::string_view text) {
  constexpr std::string_view kPrefix = "scenario{";
  if (text.substr(0, kPrefix.size()) != kPrefix || text.empty() ||
      text.back() != '}') {
    parse_error("expected 'scenario{...}', got '" + std::string(text) + "'");
  }
  const std::string_view body =
      text.substr(kPrefix.size(), text.size() - kPrefix.size() - 1);

  // Split KEY=VALUE segments on ';'.
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t semi = body.find(';', start);
    if (semi == std::string_view::npos) {
      semi = body.size();
    }
    const std::string_view segment = body.substr(start, semi - start);
    start = semi + 1;
    if (segment.empty()) {
      if (start > body.size()) {
        break;  // Empty body — caught by the missing-key checks below.
      }
      parse_error("empty ';' segment in '" + std::string(text) + "'");
    }
    const std::size_t eq = segment.find('=');
    if (eq == std::string_view::npos) {
      parse_error("segment '" + std::string(segment) +
                  "' is not a key=value pair");
    }
    const std::string_view key = segment.substr(0, eq);
    for (const auto& [seen, unused] : fields) {
      if (seen == key) {
        parse_error("duplicate key '" + std::string(key) + "'");
      }
    }
    fields.emplace_back(key, segment.substr(eq + 1));
    if (start > body.size()) {
      break;
    }
  }

  ScenarioBuilder builder;
  bool macrr = false;
  bool batch_mac = false;
  // `workload=attack` is a sentinel, not a generator: it must pair with an
  // `attack=` key carrying the plan (and vice versa).
  bool attack_workload = false;
  bool have_attack_plan = false;
  // Which of the always-emitted keys have been seen (serialize() emits all
  // of these on every scenario, so a missing one is a malformed identity).
  constexpr std::string_view kRequired[] = {
      "name", "workload", "fw",    "fabric", "queue_depth", "burst", "mac",
      "dwait", "dtimeout", "ss",   "spill",  "jt",          "pmp",   "trace"};
  bool seen[std::size(kRequired)] = {};
  unsigned drain_wait = 0;
  sim::Cycle drain_timeout = 0;
  unsigned ss_capacity = 32;
  unsigned spill_block = 16;
  bool have_geometry = false;

  for (const auto& [key, value] : fields) {
    for (std::size_t i = 0; i < std::size(kRequired); ++i) {
      if (key == kRequired[i]) {
        seen[i] = true;
      }
    }
    if (key == "name") {
      builder.name(std::string(value));
    } else if (key == "workload") {
      if (value == "attack") {
        attack_workload = true;
      } else {
        builder.workload(Workload::from_serialized(value));
      }
    } else if (key == "attack") {
      try {
        builder.attack(attacks::AttackPlan::parse(value));
      } catch (const std::invalid_argument& error) {
        parse_error("malformed attack plan '" + std::string(value) +
                    "': " + error.what());
      }
      have_attack_plan = true;
    } else if (key == "fw") {
      if (value == "irq") {
        builder.firmware(Firmware::kIrq);
      } else if (value == "polling") {
        builder.firmware(Firmware::kPolling);
      } else {
        parse_error("unknown fw '" + std::string(value) +
                    "' (expected irq or polling)");
      }
    } else if (key == "fabric") {
      if (value == "baseline") {
        builder.fabric(Fabric::kBaseline);
      } else if (value == "optimized") {
        builder.fabric(Fabric::kOptimized);
      } else {
        parse_error("unknown fabric '" + std::string(value) +
                    "' (expected baseline or optimized)");
      }
    } else if (key == "queue_depth") {
      builder.queue_depth(parse_unsigned(key, value));
    } else if (key == "burst") {
      builder.drain_burst(parse_unsigned(key, value));
    } else if (key == "mac") {
      batch_mac = parse_flag(key, value);
    } else if (key == "dwait") {
      drain_wait = parse_unsigned(key, value);
    } else if (key == "dtimeout") {
      drain_timeout = parse_number(key, value);
    } else if (key == "ss") {
      ss_capacity = parse_unsigned(key, value);
      have_geometry = true;
    } else if (key == "spill") {
      spill_block = parse_unsigned(key, value);
      have_geometry = true;
    } else if (key == "jt") {
      builder.jump_table(parse_flag(key, value));
    } else if (key == "pmp") {
      builder.pmp(parse_flag(key, value));
    } else if (key == "trace") {
      builder.trace_commits(parse_flag(key, value));
    } else if (key == "faults") {
      try {
        builder.faults(sim::FaultPlan::parse(value));
      } catch (const std::invalid_argument& error) {
        parse_error("malformed fault plan '" + std::string(value) +
                    "': " + error.what());
      }
    } else if (key == "ofp") {
      if (value == "closed") {
        builder.overflow_policy(OverflowPolicy::kFailClosed);
      } else if (value == "open") {
        builder.overflow_policy(OverflowPolicy::kFailOpen);
      } else {
        parse_error("unknown ofp '" + std::string(value) +
                    "' (expected closed or open)");
      }
    } else if (key == "dbretry") {
      const std::size_t slash = value.find('/');
      if (slash == std::string_view::npos) {
        parse_error("malformed dbretry '" + std::string(value) +
                    "' (expected timeout/max_retries)");
      }
      builder.doorbell_retry(parse_number("dbretry timeout",
                                          value.substr(0, slash)),
                             parse_unsigned("dbretry max_retries",
                                            value.substr(slash + 1)));
    } else if (key == "macrr") {
      macrr = parse_flag(key, value);
    } else {
      parse_error("unknown key '" + std::string(key) + "'");
    }
  }

  for (std::size_t i = 0; i < std::size(kRequired); ++i) {
    if (!seen[i]) {
      parse_error("missing required key '" + std::string(kRequired[i]) +
                  "' in '" + std::string(text) + "'");
    }
  }
  if (attack_workload && !have_attack_plan) {
    parse_error("'workload=attack' without an 'attack=' plan in '" +
                std::string(text) + "'");
  }
  if (have_attack_plan && !attack_workload) {
    parse_error("'attack=' plan without 'workload=attack' in '" +
                std::string(text) + "'");
  }
  builder.batch_mac(batch_mac);
  builder.mac_rerequest(macrr);
  builder.drain_wait(drain_wait, drain_timeout);
  if (have_geometry) {
    builder.shadow_stack(ss_capacity, spill_block);
  }
  return builder.build();
}

}  // namespace titan::api
