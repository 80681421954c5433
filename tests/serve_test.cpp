// titand's serving stack, driven in-process: a real Server on an ephemeral
// port, real sockets, and the batch run_scenario() path as the witness.
//
// The load-bearing claim is byte-identity: the report a client receives over
// the wire must equal — byte for byte — what a batch caller renders for the
// same scenario.  Everything else (framing resilience, concurrency, metrics)
// protects that claim under adversarial and concurrent traffic.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "api/report_schema.hpp"
#include "api/run.hpp"
#include "api/wire.hpp"
#include "serve/chaos.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/json.hpp"
#include "sim/sweep.hpp"

namespace titan {
namespace {

// ---- WorkerPool (the shared substrate SweepRunner and the server run on) ---

TEST(WorkerPool, RunsEverySubmittedTask) {
  sim::WorkerPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.active(), 0u);
}

TEST(WorkerPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    sim::WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(WorkerPool, FloorsAtOneThread) {
  sim::WorkerPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

// ---- In-process server fixture ---------------------------------------------

/// A Server plus its service/metrics, bound to an ephemeral port.
class ServeFixture {
 public:
  explicit ServeFixture(serve::WarmMode warm = serve::WarmMode::kOff,
                        std::size_t max_frame = 1 << 20,
                        serve::Server::Options server_options = {}) {
    serve::ScenarioService::Options service_options;
    service_options.warm_mode = warm;
    service_options.warmup = 500;  // short prefix: tests favour wall clock
    service_ = std::make_unique<serve::ScenarioService>(service_options,
                                                        metrics_);
    server_options.threads = 4;
    server_options.max_frame = max_frame;
    server_ = std::make_unique<serve::Server>(server_options, *service_);
    server_->start();
  }
  ~ServeFixture() { server_->stop(); }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] serve::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] serve::Server& server() { return *server_; }

 private:
  serve::MetricsRegistry metrics_;
  std::unique_ptr<serve::ScenarioService> service_;
  std::unique_ptr<serve::Server> server_;
};

/// Blocking client socket with line/EOF reads.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
  }
  ~Client() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_text(std::string_view text) {
    ASSERT_EQ(send(fd_, text.data(), text.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(text.size()));
  }

  /// One LF-terminated response line (without the LF).
  [[nodiscard]] std::string read_line() {
    while (buffered_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before a full line";
        return {};
      }
      buffered_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buffered_.find('\n');
    std::string line = buffered_.substr(0, nl);
    buffered_.erase(0, nl + 1);
    return line;
  }

  /// Everything until the peer closes (HTTP exchanges).
  [[nodiscard]] std::string read_all() {
    std::string out = std::move(buffered_);
    buffered_.clear();
    char chunk[4096];
    for (ssize_t n = recv(fd_, chunk, sizeof chunk, 0); n > 0;
         n = recv(fd_, chunk, sizeof chunk, 0)) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  std::string buffered_;
};

std::string run_request(std::string_view id, std::string_view name) {
  return "{\"schema_version\":1,\"id\":\"" + std::string(id) +
         "\",\"op\":\"run\",\"scenario\":\"" + std::string(name) + "\"}\n";
}

/// The report string out of an ok run response (fails the test on !ok).
std::string served_report(const std::string& line) {
  const sim::JsonValue v = sim::JsonValue::parse(line);
  EXPECT_TRUE(v.find("ok")->as_bool()) << line;
  return v.find("ok")->as_bool() ? v.find("report")->as_string()
                                 : std::string();
}

std::string batch_report(const api::Scenario& scenario) {
  return api::ReportSchema().render(api::run_scenario(scenario));
}

// ---- Served-vs-batch byte identity, registry-wide ---------------------------

TEST(ServeByteIdentity, EveryRegistryScenarioColdMatchesBatch) {
  ServeFixture fixture(serve::WarmMode::kOff);
  const api::ScenarioRegistry& registry = api::ScenarioRegistry::global();
  Client client(fixture.port());
  std::size_t covered = 0;
  for (const std::string_view name : registry.names()) {
    client.send_text(run_request("rt", name));
    EXPECT_EQ(served_report(client.read_line()),
              batch_report(*registry.find(name)))
        << "scenario " << name;
    ++covered;
  }
  EXPECT_GE(covered, 25u);
}

TEST(ServeByteIdentity, WarmServedRunsMatchColdBatch) {
  // Lazy warm mode: first request captures, later requests fork — and every
  // response must STILL equal the cold batch bytes (PR7's bit-exactness
  // carried through the wire).
  ServeFixture fixture(serve::WarmMode::kLazy);
  const char* name = "faults/doorbell_drop";
  const std::string expected =
      batch_report(*api::ScenarioRegistry::global().find(name));
  Client client(fixture.port());
  for (int i = 0; i < 3; ++i) {
    client.send_text(run_request("warm", name));
    const std::string line = client.read_line();
    EXPECT_EQ(served_report(line), expected) << "iteration " << i;
    // Runs after the capture advertise the fork.
    if (i > 0) {
      EXPECT_TRUE(sim::JsonValue::parse(line).find("warm_start")->as_bool());
    }
  }
}

TEST(ServeByteIdentity, SpecRunMatchesRegistryRun) {
  ServeFixture fixture;
  const char* name = "irq/baseline/burst8";
  const api::Scenario& scenario = *api::ScenarioRegistry::global().find(name);
  Client client(fixture.port());
  client.send_text("{\"schema_version\":1,\"id\":\"s\",\"op\":\"run\","
                   "\"spec\":\"" +
                   sim::json_escape(scenario.serialize()) + "\"}\n");
  EXPECT_EQ(served_report(client.read_line()), batch_report(scenario));
}

// ---- Wire-protocol resilience ----------------------------------------------

TEST(ServeProtocol, MalformedFrameGetsStructuredErrorAndConnectionSurvives) {
  ServeFixture fixture;
  Client client(fixture.port());
  client.send_text("{this is not json\n");
  const sim::JsonValue error = sim::JsonValue::parse(client.read_line());
  EXPECT_FALSE(error.find("ok")->as_bool());
  ASSERT_NE(error.find("error"), nullptr);
  EXPECT_EQ(error.find("error")->find("code")->as_string(), "bad_frame");
  // Same connection keeps working.
  client.send_text("{\"schema_version\":1,\"id\":\"p\",\"op\":\"ping\"}\n");
  EXPECT_TRUE(sim::JsonValue::parse(client.read_line()).find("ok")->as_bool());
}

TEST(ServeProtocol, ErrorTaxonomyOverTheWire) {
  ServeFixture fixture;
  Client client(fixture.port());
  const auto expect_error_code = [&](const std::string& frame,
                                    const std::string& code) {
    client.send_text(frame + "\n");
    const sim::JsonValue response = sim::JsonValue::parse(client.read_line());
    ASSERT_NE(response.find("error"), nullptr) << frame;
    EXPECT_EQ(response.find("error")->find("code")->as_string(), code);
  };
  expect_error_code(R"({"schema_version":9,"op":"ping"})",
                    "unsupported_version");
  expect_error_code(R"({"schema_version":1,"op":"melt"})", "unknown_op");
  expect_error_code(R"({"schema_version":1,"op":"run","scenario":"no/such"})",
                    "unknown_scenario");
  expect_error_code(R"({"schema_version":1,"op":"run","spec":"scenario{bad}"})",
                    "invalid_scenario");
}

TEST(ServeProtocol, OversizedFrameIsRejectedAndDiscarded) {
  ServeFixture fixture(serve::WarmMode::kOff, /*max_frame=*/256);
  Client client(fixture.port());
  // Two oversized chunks then the newline, then a valid request: the server
  // must answer oversized_frame once, eat the rest of the line, and serve
  // the next frame normally.
  client.send_text("{\"pad\":\"" + std::string(4096, 'x'));
  client.send_text(std::string(4096, 'y') + "\"}\n");
  const sim::JsonValue error = sim::JsonValue::parse(client.read_line());
  ASSERT_NE(error.find("error"), nullptr);
  EXPECT_EQ(error.find("error")->find("code")->as_string(),
            "oversized_frame");
  client.send_text("{\"schema_version\":1,\"id\":\"after\",\"op\":\"ping\"}\n");
  const sim::JsonValue ok = sim::JsonValue::parse(client.read_line());
  EXPECT_TRUE(ok.find("ok")->as_bool());
  EXPECT_EQ(ok.find("id")->as_string(), "after");
}

TEST(ServeProtocol, MidFrameDisconnectLeavesServerHealthy) {
  ServeFixture fixture;
  {
    Client client(fixture.port());
    client.send_text("{\"schema_version\":1,\"op\":\"pi");  // no newline
    client.close();  // vanish mid-frame
  }
  // The server must shrug it off and keep serving new connections.
  Client client(fixture.port());
  client.send_text("{\"schema_version\":1,\"id\":\"ok\",\"op\":\"ping\"}\n");
  EXPECT_TRUE(sim::JsonValue::parse(client.read_line()).find("ok")->as_bool());
}

TEST(ServeProtocol, PipelinedRequestsAnswerInOrder) {
  ServeFixture fixture;
  Client client(fixture.port());
  client.send_text("{\"schema_version\":1,\"id\":\"a\",\"op\":\"ping\"}\n"
                   "{\"schema_version\":1,\"id\":\"b\",\"op\":\"ping\"}\n"
                   "{\"schema_version\":1,\"id\":\"c\",\"op\":\"ping\"}\n");
  for (const char* id : {"a", "b", "c"}) {
    EXPECT_EQ(sim::JsonValue::parse(client.read_line()).find("id")->as_string(),
              id);
  }
}

TEST(ServeProtocol, ListMatchesRegistry) {
  ServeFixture fixture;
  Client client(fixture.port());
  client.send_text("{\"schema_version\":1,\"id\":\"l\",\"op\":\"list\","
                   "\"tag\":\"fault_matrix\"}\n");
  const sim::JsonValue v = sim::JsonValue::parse(client.read_line());
  const auto& scenarios = v.find("scenarios")->as_array();
  const api::ScenarioSet matrix =
      api::ScenarioRegistry::global().query("fault_matrix", "fault_matrix");
  ASSERT_EQ(scenarios.size(), matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_EQ(scenarios[i].find("name")->as_string(), matrix[i].name());
    EXPECT_EQ(scenarios[i].find("spec")->as_string(), matrix[i].serialize());
  }
}

// ---- Concurrency ------------------------------------------------------------

TEST(ServeConcurrency, ParallelClientsGetByteIdenticalReports) {
  ServeFixture fixture(serve::WarmMode::kLazy);
  const char* name = "faults/mac_corrupt_halt";
  const std::string expected =
      batch_report(*api::ScenarioRegistry::global().find(name));
  constexpr int kClients = 6;
  std::vector<std::string> reports(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&fixture, &reports, name, i] {
        Client client(fixture.port());
        client.send_text(run_request("c" + std::to_string(i), name));
        reports[static_cast<std::size_t>(i)] =
            served_report(client.read_line());
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(reports[static_cast<std::size_t>(i)], expected)
        << "client " << i;
  }
}

// ---- Metrics ----------------------------------------------------------------

TEST(ServeMetrics, CountersTrackAScriptedSequence) {
  ServeFixture fixture(serve::WarmMode::kLazy);
  Client client(fixture.port());
  // Script: ping, 3 runs of one scenario (1 lazy capture + 2 cache hits;
  // all 3 fork, since the capturing request forks from the snapshot it just
  // built), 2 attack-corpus runs (one detected, one scored false negative),
  // one unknown scenario, one malformed frame.
  client.send_text("{\"schema_version\":1,\"id\":\"p\",\"op\":\"ping\"}\n");
  (void)client.read_line();
  for (int i = 0; i < 3; ++i) {
    client.send_text(run_request("m", "faults/overflow_backpressure"));
    (void)client.read_line();
  }
  client.send_text(run_request("a1", "attacks/rop_L1"));
  (void)client.read_line();
  client.send_text(run_request("a2", "attacks/ret2reg_ssonly"));
  (void)client.read_line();
  client.send_text(
      R"({"schema_version":1,"op":"run","scenario":"no/such"})" "\n");
  (void)client.read_line();
  client.send_text("{oops\n");
  (void)client.read_line();

  // Scrape over the HTTP shim, exactly as Prometheus (and CI) would.
  Client scraper(fixture.port());
  scraper.send_text("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string response = scraper.read_all();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const auto metric = [&](const std::string& name) {
    const std::size_t at = response.find("\n" + name + " ");
    EXPECT_NE(at, std::string::npos) << name << " missing in\n" << response;
    return at == std::string::npos
               ? std::uint64_t{0}
               : std::strtoull(
                     response.c_str() + at + name.size() + 2, nullptr, 10);
  };
  EXPECT_EQ(metric("titand_requests_total"), 8u);
  EXPECT_EQ(metric("titand_scenarios_served_total"), 5u);
  EXPECT_EQ(metric("titand_errors_total"), 2u);
  EXPECT_EQ(metric("titand_error_unknown_scenario_total"), 1u);
  EXPECT_EQ(metric("titand_checkpoint_cache_misses_total"), 3u);
  EXPECT_EQ(metric("titand_checkpoint_cache_hits_total"), 2u);
  EXPECT_EQ(metric("titand_warm_runs_total"), 5u);
  // Attack-corpus rollup: rop_L1 is detected; ret2reg under the
  // shadow-stack-only policy is the scored false negative.
  EXPECT_EQ(metric("titand_attacks_injected_total"), 2u);
  EXPECT_EQ(metric("titand_attacks_detected_total"), 1u);
  EXPECT_EQ(metric("titand_attack_false_negatives_total"), 1u);
  // Latency histogram: 3 observations for the scenario.
  EXPECT_NE(
      response.find("titand_request_latency_microseconds_count{scenario="
                    "\"faults/overflow_backpressure\"} 3"),
      std::string::npos);
}

TEST(ServeMetrics, RegistryRendersPrometheusShapes) {
  serve::MetricsRegistry metrics;
  metrics.add_counter("c_total", 2);
  metrics.add_counter("c_total");
  metrics.set_counter("mirrored_total", 7);
  metrics.set_gauge("depth", 5);
  metrics.observe_latency("s", 0);
  metrics.observe_latency("s", 3);
  EXPECT_EQ(metrics.counter("c_total"), 3u);
  EXPECT_EQ(metrics.gauge("depth"), 5u);
  const std::string text = metrics.render_prometheus();
  EXPECT_NE(text.find("# TYPE c_total counter\nc_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth 5\n"), std::string::npos);
  // value 0 → bucket le="0"; value 3 → cumulative at le="3".
  EXPECT_NE(text.find("titand_request_latency_microseconds_bucket{"
                      "scenario=\"s\",le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("titand_request_latency_microseconds_bucket{"
                      "scenario=\"s\",le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("titand_request_latency_microseconds_sum{"
                      "scenario=\"s\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("titand_request_latency_microseconds_count{"
                      "scenario=\"s\"} 2"),
            std::string::npos);
}

// ---- HTTP shim --------------------------------------------------------------

TEST(ServeHttp, ScenariosEndpointListsRegistry) {
  ServeFixture fixture;
  Client client(fixture.port());
  client.send_text("GET /scenarios?tag=fault_matrix HTTP/1.1\r\n\r\n");
  const std::string response = client.read_all();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("faults/doorbell_drop"), std::string::npos);
}

TEST(ServeHttp, PostRunMatchesBatch) {
  ServeFixture fixture;
  const char* name = "irq/baseline/burst1";
  const std::string body = run_request("http", name);
  Client client(fixture.port());
  client.send_text("POST /run HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body);
  const std::string response = client.read_all();
  const std::size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  std::string payload = response.substr(split + 4);
  ASSERT_FALSE(payload.empty());
  payload.resize(payload.find('\n'));
  EXPECT_EQ(served_report(payload),
            batch_report(*api::ScenarioRegistry::global().find(name)));
}

TEST(ServeHttp, UnknownEndpointIs404) {
  ServeFixture fixture;
  Client client(fixture.port());
  client.send_text("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(client.read_all().find("404 Not Found"), std::string::npos);
}

// ---- Production hardening: lifecycle, admission, deadlines, budgets ---------

std::string http_get(std::uint16_t port, const std::string& path) {
  Client client(port);
  client.send_text("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
  return client.read_all();
}

/// A minimal single-run spec whose runtime is controlled by the workload.
/// A served fib(22) takes ≈ 150 ms (Release, 4-vCPU x86 VM): ≥ 15x the
/// ≈ 5–10 ms probe windows of the admission, drain and chaos tests, so the
/// runs they park are still running when probed, and short enough for test
/// wall-clock.
std::string spec_scaffold(const std::string& name,
                          const std::string& workload) {
  return "scenario{name=" + name + ";workload=" + workload +
         ";fw=irq;fabric=baseline;queue_depth=8;burst=8;mac=0;dwait=0;"
         "dtimeout=0;ss=32;spill=16;jt=0;pmp=1;trace=0}";
}

std::string spec_run_request(const std::string& id, const std::string& spec,
                             long long deadline_ms,
                             unsigned long long max_cycles,
                             const std::string& engine = {}) {
  std::string frame = "{\"schema_version\":1,\"id\":\"" + id +
                      "\",\"op\":\"run\",\"spec\":\"" +
                      sim::json_escape(spec) + "\"";
  if (!engine.empty()) {
    frame += ",\"engine\":\"" + engine + "\"";
  }
  if (deadline_ms >= 0) {
    frame += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  if (max_cycles > 0) {
    frame += ",\"max_cycles\":" + std::to_string(max_cycles);
  }
  frame += "}\n";
  return frame;
}

/// Poll the daemon's own admission-slot gauge over the HTTP shim until it
/// reads `want` (the same signal the chaos harness keys on).
void await_outstanding(std::uint16_t port, std::uint64_t want) {
  for (int i = 0; i < 2000; ++i) {
    const std::string response = http_get(port, "/metrics");
    const std::size_t at = response.find("\ntitand_runs_outstanding ");
    if (at != std::string::npos &&
        std::strtoull(response.c_str() + at + 25, nullptr, 10) == want) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "outstanding gauge never reached " << want;
}

TEST(ServeLifecycle, HealthzAlwaysAnswersWhileReadyzTracksPhase) {
  ServeFixture fixture;
  // Before set_ready(): alive but warming.
  EXPECT_NE(http_get(fixture.port(), "/healthz").find("200 OK"),
            std::string::npos);
  std::string ready = http_get(fixture.port(), "/readyz");
  EXPECT_NE(ready.find("503"), std::string::npos);
  EXPECT_NE(ready.find("warming"), std::string::npos);

  fixture.server().set_ready();
  ready = http_get(fixture.port(), "/readyz");
  EXPECT_NE(ready.find("200 OK"), std::string::npos);
  EXPECT_NE(ready.find("ready"), std::string::npos);

  fixture.server().request_drain();
  // Liveness survives the drain; readiness flips to draining; new runs are
  // refused with a structured shutdown error (probes still answer).
  EXPECT_NE(http_get(fixture.port(), "/healthz").find("200 OK"),
            std::string::npos);
  ready = http_get(fixture.port(), "/readyz");
  EXPECT_NE(ready.find("503"), std::string::npos);
  EXPECT_NE(ready.find("draining"), std::string::npos);
  Client client(fixture.port());
  client.send_text(run_request("rejected", "irq/baseline/burst1"));
  const sim::JsonValue refused = sim::JsonValue::parse(client.read_line());
  EXPECT_FALSE(refused.find("ok")->as_bool());
  ASSERT_NE(refused.find("error"), nullptr);
  EXPECT_EQ(refused.find("error")->find("code")->as_string(), "shutdown");
  client.send_text("{\"schema_version\":1,\"id\":\"p\",\"op\":\"ping\"}\n");
  EXPECT_TRUE(sim::JsonValue::parse(client.read_line()).find("ok")->as_bool());
}

TEST(ServeLifecycle, DrainWaitsForInflightRunAndIsIdempotent) {
  ServeFixture fixture;
  fixture.server().set_ready();
  Client client(fixture.port());
  client.send_text(spec_run_request(
      "slow", spec_scaffold("drain/slow", "fib(22)"), -1, 0));
  await_outstanding(fixture.port(), 1);

  // Drain must wait for the in-flight run, deliver its full response, and
  // report a clean quiesce.
  EXPECT_TRUE(fixture.server().drain(std::chrono::seconds(30)));
  const std::string line = client.read_line();
  EXPECT_TRUE(sim::JsonValue::parse(line).find("ok")->as_bool()) << line;

  // Double signal (a second SIGTERM in daemon terms): both entry points are
  // idempotent once quiesced.
  fixture.server().request_drain();
  EXPECT_TRUE(fixture.server().drain(std::chrono::milliseconds(100)));
}

TEST(ServeLifecycle, DrainTimeoutCancelsStragglers) {
  ServeFixture fixture;
  fixture.server().set_ready();
  Client client(fixture.port());
  // fib(32) runs for seconds (far past the 50-ms drain timeout), and the
  // timeout cancels it, so the test does not wait for it.
  client.send_text(spec_run_request(
      "straggler", spec_scaffold("drain/straggler", "fib(32)"), -1, 0));
  await_outstanding(fixture.port(), 1);

  // The timeout path must cut the run off through its cancel token and
  // still settle (no leaked runs), reporting the unclean drain.
  EXPECT_FALSE(fixture.server().drain(std::chrono::milliseconds(50)));
  const sim::JsonValue cancelled = sim::JsonValue::parse(client.read_line());
  EXPECT_FALSE(cancelled.find("ok")->as_bool());
  ASSERT_NE(cancelled.find("error"), nullptr);
  EXPECT_EQ(cancelled.find("error")->find("code")->as_string(), "cancelled");
  EXPECT_EQ(fixture.metrics().counter("titand_cancelled_total"), 1u);
}

TEST(ServeAdmission, ShedsBeyondCapacityWithRetryHint) {
  serve::Server::Options options;
  options.max_inflight = 1;
  options.max_queue = 1;
  options.retry_after_ms = 123;
  ServeFixture fixture(serve::WarmMode::kOff, 1 << 20, options);
  fixture.server().set_ready();

  Client running(fixture.port());
  running.send_text(spec_run_request(
      "running", spec_scaffold("shed/running", "fib(22)"), -1, 0));
  await_outstanding(fixture.port(), 1);
  Client queued(fixture.port());
  queued.send_text(spec_run_request(
      "queued", spec_scaffold("shed/queued", "fib(22)"), -1, 0));
  await_outstanding(fixture.port(), 2);

  // Every slot occupied: the next run is shed immediately with the
  // structured overloaded error and the configured backoff hint...
  Client shed(fixture.port());
  shed.send_text(run_request("shed", "irq/baseline/burst1"));
  const sim::JsonValue overloaded = sim::JsonValue::parse(shed.read_line());
  EXPECT_FALSE(overloaded.find("ok")->as_bool());
  const sim::JsonValue* error = overloaded.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_string(), "overloaded");
  EXPECT_EQ(error->find("retry_after_ms")->as_int(), 123);
  EXPECT_EQ(fixture.metrics().counter("titand_shed_total"), 1u);

  // ...while the admitted runs complete normally.
  EXPECT_TRUE(
      sim::JsonValue::parse(running.read_line()).find("ok")->as_bool());
  EXPECT_TRUE(
      sim::JsonValue::parse(queued.read_line()).find("ok")->as_bool());

  // Capacity freed: the same request is admitted and served now.
  shed.send_text(run_request("retried", "irq/baseline/burst1"));
  EXPECT_TRUE(sim::JsonValue::parse(shed.read_line()).find("ok")->as_bool());
}

TEST(ServeDeadline, DeadlineZeroIsDeterministicAndMidRunDeadlineCancels) {
  ServeFixture fixture;
  fixture.server().set_ready();
  Client client(fixture.port());

  // deadline_ms=0 is cancelled before dispatch: exactly zero simulated
  // cycles, every time — the SoC is never even built.
  client.send_text(spec_run_request(
      "zero", spec_scaffold("deadline/zero", "stats(4096)"), 0, 0));
  const sim::JsonValue zero = sim::JsonValue::parse(client.read_line());
  EXPECT_FALSE(zero.find("ok")->as_bool());
  ASSERT_NE(zero.find("error"), nullptr);
  EXPECT_EQ(zero.find("error")->find("code")->as_string(),
            "deadline_exceeded");
  EXPECT_EQ(zero.find("error")->find("cycles")->as_int(), 0);

  // A mid-run deadline stops a long run cooperatively, reporting the
  // cycles completed so far.  fib(32) runs for seconds, so it cannot finish
  // inside the 250-ms deadline, which cuts it.
  client.send_text(spec_run_request(
      "mid", spec_scaffold("deadline/mid", "fib(32)"), 250, 0));
  const sim::JsonValue mid = sim::JsonValue::parse(client.read_line());
  EXPECT_FALSE(mid.find("ok")->as_bool());
  ASSERT_NE(mid.find("error"), nullptr);
  EXPECT_EQ(mid.find("error")->find("code")->as_string(),
            "deadline_exceeded");
  EXPECT_GT(mid.find("error")->find("cycles")->as_int(), 0);
  EXPECT_EQ(fixture.metrics().counter("titand_deadline_exceeded_total"), 2u);
}

TEST(ServeBudget, StopsAtExactBudgetAndWithinBudgetIsByteIdentical) {
  ServeFixture fixture;
  fixture.server().set_ready();
  Client client(fixture.port());

  // A cold run out of budget stops at exactly max_cycles, on both engines.
  for (const char* engine : {"lockstep", "event"}) {
    client.send_text(spec_run_request(
        "budget", spec_scaffold("budget/exact", "stats(65536)"), -1, 256,
        engine));
    const sim::JsonValue stopped = sim::JsonValue::parse(client.read_line());
    EXPECT_FALSE(stopped.find("ok")->as_bool()) << engine;
    ASSERT_NE(stopped.find("error"), nullptr) << engine;
    EXPECT_EQ(stopped.find("error")->find("code")->as_string(),
              "budget_exceeded")
        << engine;
    EXPECT_EQ(stopped.find("error")->find("cycles")->as_int(), 256) << engine;
  }

  // A run completing within its budget is byte-identical to the unbudgeted
  // run — the core contract, over the wire, on both engines.
  for (const char* engine : {"lockstep", "event"}) {
    const std::string spec = spec_scaffold("budget/under", "stats(4096)");
    client.send_text(spec_run_request("plain", spec, -1, 0, engine));
    const std::string plain = client.read_line();
    client.send_text(
        spec_run_request("plain", spec, -1, 1ull << 40, engine));
    EXPECT_EQ(client.read_line(), plain) << engine;
  }
}

// ---- The chaos harness, in-process ------------------------------------------
//
// The CI smoke job replays the seeded schedule against a freestanding daemon;
// this is the same claim against an in-process server so plain ctest covers
// it: the harness passes, and two runs with the same seed render byte-equal
// reports (the determinism the twice-run-and-diff CI gate relies on).

TEST(ServeChaosHarness, SeededScheduleSurvivesAndReplaysByteEqual) {
  serve::Server::Options options;
  options.max_inflight = 2;
  options.max_queue = 2;
  options.retry_after_ms = 50;
  ServeFixture fixture(serve::WarmMode::kOff, 1 << 20, options);
  fixture.server().set_ready();

  serve::ChaosConfig config;
  config.port = fixture.port();
  config.seed = 7;
  // fib(22) (≈ 150 ms) outlasts the flood phase's probe window (≈ 10 ms
  // from the first filler to the last disconnect) by ≈ 15x but keeps the
  // flood phase fast enough for sanitizer runs.
  config.filler_workload = "fib(22)";

  const serve::ChaosReport first = serve::run_chaos(config);
  EXPECT_TRUE(first.ok()) << first.render();
  const serve::ChaosReport second = serve::run_chaos(config);
  EXPECT_TRUE(second.ok()) << second.render();
  EXPECT_EQ(first.render(), second.render());
}

}  // namespace
}  // namespace titan
