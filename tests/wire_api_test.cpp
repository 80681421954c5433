// The versioned wire envelope (api/wire.hpp), the JSON value parser it sits
// on (sim/json.hpp), and the versioned report schema (api/report_schema.hpp).
#include <string>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "api/report_schema.hpp"
#include "api/run.hpp"
#include "api/wire.hpp"
#include "sim/json.hpp"
#include "sim/sweep.hpp"

namespace titan {
namespace {

// ---- sim::JsonValue ---------------------------------------------------------

TEST(JsonValue, ParsesScalarsArraysObjects) {
  const sim::JsonValue v = sim::JsonValue::parse(
      R"({"a":1,"b":-2.5,"c":"x","d":[true,false,null],"e":{"k":"v"}})");
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_EQ(v.find("c")->as_string(), "x");
  ASSERT_EQ(v.find("d")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("d")->as_array()[0].as_bool());
  EXPECT_EQ(v.find("d")->as_array()[2].kind(), sim::JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("e")->find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, DecodesStringEscapes) {
  const sim::JsonValue v =
      sim::JsonValue::parse(R"(["a\"b\\c\n\t\u0041\u00e9"])");
  EXPECT_EQ(v.as_array()[0].as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(JsonValue, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":1,}", "01", "1 2", "\"\\u12\"",
        "\"\\ud800\"", "tru", "{\"a\":}", "nan"}) {
    EXPECT_THROW((void)sim::JsonValue::parse(bad), sim::JsonParseError)
        << "accepted: " << bad;
  }
}

TEST(JsonValue, EscapeRoundTripsThroughParser) {
  const std::string original = "line1\nline2\t\"quoted\" \\ \x01 end";
  const std::string wire = "\"" + sim::json_escape(original) + "\"";
  // The escaped form must be single-line (the framing invariant)...
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  // ...and decode back to the exact original bytes.
  EXPECT_EQ(sim::JsonValue::parse(wire).as_string(), original);
}

// ---- api::wire request parsing ----------------------------------------------

void expect_wire_error(const std::string& line, api::WireErrorCode code) {
  try {
    (void)api::parse_request(line);
    FAIL() << "accepted: " << line;
  } catch (const api::WireError& error) {
    EXPECT_EQ(api::wire_error_code_name(error.code()),
              api::wire_error_code_name(code))
        << line;
  }
}

TEST(WireRequest, ParsesEveryOp) {
  const api::Request ping =
      api::parse_request(R"({"schema_version":1,"id":"r1","op":"ping"})");
  EXPECT_EQ(ping.op, api::RequestOp::kPing);
  EXPECT_EQ(ping.id, "r1");

  const api::Request list = api::parse_request(
      R"({"schema_version":1,"op":"list","tag":"fault_matrix"})");
  EXPECT_EQ(list.op, api::RequestOp::kList);
  EXPECT_EQ(list.tag, "fault_matrix");
  EXPECT_EQ(list.id, "");  // id is optional

  const api::Request run = api::parse_request(
      R"({"schema_version":1,"id":"r2","op":"run","scenario":"x","engine":"lockstep"})");
  EXPECT_EQ(run.op, api::RequestOp::kRun);
  EXPECT_EQ(run.scenario, "x");
  EXPECT_EQ(run.engine, "lockstep");

  const api::Request spec = api::parse_request(
      R"({"schema_version":1,"op":"run","spec":"scenario{...}"})");
  EXPECT_EQ(spec.spec, "scenario{...}");
}

TEST(WireRequest, ErrorTaxonomy) {
  using Code = api::WireErrorCode;
  expect_wire_error("{not json", Code::kBadFrame);
  expect_wire_error("[1,2,3]", Code::kBadFrame);
  expect_wire_error(R"({"op":"ping"})", Code::kBadRequest);  // version missing
  expect_wire_error(R"({"schema_version":99,"op":"ping"})",
                    Code::kUnsupportedVersion);
  expect_wire_error(R"({"schema_version":1})", Code::kBadRequest);
  expect_wire_error(R"({"schema_version":1,"op":"destroy"})",
                    Code::kUnknownOp);
  // run needs exactly one of scenario/spec.
  expect_wire_error(R"({"schema_version":1,"op":"run"})", Code::kBadRequest);
  expect_wire_error(
      R"({"schema_version":1,"op":"run","scenario":"a","spec":"b"})",
      Code::kBadRequest);
  expect_wire_error(
      R"({"schema_version":1,"op":"run","scenario":"a","engine":"warp"})",
      Code::kBadRequest);
  // Unknown fields fail loudly (typo'd "tga" must not be ignored).
  expect_wire_error(R"({"schema_version":1,"op":"list","tga":"x"})",
                    Code::kBadRequest);
  expect_wire_error(R"({"schema_version":1,"op":"ping","tag":"x"})",
                    Code::kBadRequest);
}

TEST(WireRequest, ParsesRunLimits) {
  // Limits default to "absent" (-1 / 0)...
  const api::Request plain = api::parse_request(
      R"({"schema_version":1,"op":"run","scenario":"x"})");
  EXPECT_EQ(plain.deadline_ms, -1);
  EXPECT_EQ(plain.max_cycles, 0u);

  // ...and parse when present, including the deadline-0 probe.
  const api::Request limited = api::parse_request(
      R"({"schema_version":1,"op":"run","scenario":"x",)"
      R"("deadline_ms":1500,"max_cycles":4096})");
  EXPECT_EQ(limited.deadline_ms, 1500);
  EXPECT_EQ(limited.max_cycles, 4096u);
  const api::Request expired = api::parse_request(
      R"({"schema_version":1,"op":"run","scenario":"x","deadline_ms":0})");
  EXPECT_EQ(expired.deadline_ms, 0);
}

TEST(WireRequest, RejectsInvalidRunLimits) {
  using Code = api::WireErrorCode;
  // Limits only make sense on run requests.
  expect_wire_error(R"({"schema_version":1,"op":"ping","deadline_ms":5})",
                    Code::kBadRequest);
  expect_wire_error(R"({"schema_version":1,"op":"list","max_cycles":5})",
                    Code::kBadRequest);
  // Negative deadline / zero or non-numeric budget are shape violations.
  expect_wire_error(
      R"({"schema_version":1,"op":"run","scenario":"x","deadline_ms":-2})",
      Code::kBadRequest);
  expect_wire_error(
      R"({"schema_version":1,"op":"run","scenario":"x","max_cycles":0})",
      Code::kBadRequest);
  expect_wire_error(
      R"({"schema_version":1,"op":"run","scenario":"x","max_cycles":"9"})",
      Code::kBadRequest);
}

TEST(WireError, LifecycleCodeNamesAreStable) {
  // Wire names are protocol surface — renames are breaking changes.
  EXPECT_EQ(api::wire_error_code_name(api::WireErrorCode::kOverloaded),
            "overloaded");
  EXPECT_EQ(api::wire_error_code_name(api::WireErrorCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(api::wire_error_code_name(api::WireErrorCode::kBudgetExceeded),
            "budget_exceeded");
  EXPECT_EQ(api::wire_error_code_name(api::WireErrorCode::kCancelled),
            "cancelled");
  EXPECT_EQ(api::wire_error_code_name(api::WireErrorCode::kShutdown),
            "shutdown");
}

TEST(WireResponse, RendersSingleLineAndRoundTrips) {
  // An id with every hostile character: the response must stay one line and
  // decode back exactly.
  const std::string id = "req\n\"1\"\\\t";
  const std::string line = api::render_error_response(
      id, api::WireErrorCode::kUnknownScenario, "no scenario 'x\ny'");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const sim::JsonValue v = sim::JsonValue::parse(line);
  EXPECT_EQ(v.find("schema_version")->as_int(), api::kWireSchemaVersion);
  EXPECT_EQ(v.find("id")->as_string(), id);
  EXPECT_FALSE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("error")->find("code")->as_string(), "unknown_scenario");
  EXPECT_EQ(v.find("error")->find("message")->as_string(),
            "no scenario 'x\ny'");
}

TEST(WireResponse, RunResponseEmbedsReportVerbatim) {
  // The embedded report must survive the escape/parse round trip byte for
  // byte — this is the transport half of the served-vs-batch witness.
  const api::RunReport report = api::run_scenario(
      *api::ScenarioRegistry::global().find("irq/baseline/burst1"));
  const std::string canonical = api::ReportSchema().render(report);
  const std::string line = api::render_run_response(
      "r", "irq/baseline/burst1", /*warm_start=*/false, canonical);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const sim::JsonValue v = sim::JsonValue::parse(line);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_FALSE(v.find("warm_start")->as_bool());
  EXPECT_EQ(v.find("report")->as_string(), canonical);
}

TEST(WireResponse, ErrorDetailFieldsRenderOnlyWhenSet) {
  // Detail-free errors keep their historical bytes...
  const std::string bare = api::render_error_response(
      "r", api::WireErrorCode::kShutdown, "draining");
  EXPECT_EQ(bare.find("cycles"), std::string::npos);
  EXPECT_EQ(bare.find("retry_after_ms"), std::string::npos);

  // ...a stopped run reports its partial progress, with cycles==0 (the
  // deadline-0 probe) distinguishable from absent...
  api::ErrorDetail progress;
  progress.has_cycles = true;
  progress.cycles = 0;
  const sim::JsonValue stopped =
      sim::JsonValue::parse(api::render_error_response(
          "r", api::WireErrorCode::kDeadlineExceeded, "expired", progress));
  ASSERT_NE(stopped.find("error")->find("cycles"), nullptr);
  EXPECT_EQ(stopped.find("error")->find("cycles")->as_int(), 0);

  // ...and a shed run carries the backoff hint titanctl's retry loop reads.
  api::ErrorDetail hint;
  hint.retry_after_ms = 125;
  const sim::JsonValue shed = sim::JsonValue::parse(api::render_error_response(
      "r", api::WireErrorCode::kOverloaded, "at capacity", hint));
  EXPECT_EQ(shed.find("error")->find("code")->as_string(), "overloaded");
  ASSERT_NE(shed.find("error")->find("retry_after_ms"), nullptr);
  EXPECT_EQ(shed.find("error")->find("retry_after_ms")->as_int(), 125);
}

// ---- api::ReportSchema versioning -------------------------------------------

TEST(ReportSchema, DefaultRenderingMatchesLegacyEmission) {
  // The flag defaults OFF so committed BENCH_*.json and the sweep documents'
  // byte-identity stay unchanged: the default schema must not mention the
  // version field at all.
  const api::RunReport report = api::run_scenario(
      *api::ScenarioRegistry::global().find("irq/baseline/burst1"));
  const std::string rendered = api::ReportSchema().render(report);
  EXPECT_EQ(rendered.find("report_schema_version"), std::string::npos);

  // RunReport::emit_json_fields is the schema's shorthand — same bytes.
  sim::JsonWriter json;
  json.begin_object();
  report.emit_json_fields(json);
  json.end_object();
  EXPECT_EQ(json.str(), rendered);
}

TEST(ReportSchema, VersionFieldLeadsWhenEnabled) {
  const api::RunReport report = api::run_scenario(
      *api::ScenarioRegistry::global().find("irq/baseline/burst1"));
  api::ReportSchema::Options options;
  options.emit_schema_version = true;
  const std::string rendered = api::ReportSchema(options).render(report);
  const std::string expected_head =
      "{\n  \"report_schema_version\": " +
      std::to_string(api::ReportSchema::kVersion) + ",\n  \"scenario\"";
  EXPECT_EQ(rendered.substr(0, expected_head.size()), expected_head);
}

}  // namespace
}  // namespace titan
