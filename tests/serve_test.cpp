// serve subsystem tests: cache-key semantics, served-vs-inline bit-exact
// parity, cooperative cancellation, priority scheduling, warm-start cache
// bookkeeping, and JSONL protocol framing over a real loopback socket.
#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "robust/fault.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/runner.h"
#include "serve/server.h"
#include "systems/scenario.h"
#include "thermal/layer_stack.h"
#include "util/json.h"

namespace {

using namespace rlplan;

// Tiny characterization + truth resolution: these tests gate scheduling,
// caching, and parity — not thermal fidelity — and must stay fast under
// sanitizers.
serve::RunnerConfig tiny_config() {
  serve::RunnerConfig c;
  c.characterization.solver.dims = {12, 12};
  c.characterization.auto_axis_points = 3;
  c.characterization.position_points = 3;
  c.truth_dims = {16, 16};
  return c;
}

systems::Scenario tiny_scenario() {
  return systems::load_scenario_file(RLPLANNER_SCENARIO_DIR
                                     "/inline_tiny_trio.json");
}

/// SA-only variant with a small budget — the workhorse job of these tests.
systems::Scenario quick_sa_scenario(const std::string& name,
                                    long evaluations = 300) {
  systems::Scenario s = tiny_scenario();
  s.name = name;
  s.budget.run_rl = false;
  s.budget.sa_evaluations = evaluations;
  return s;
}

void wait_for_phase(serve::ServeEngine& engine, std::uint64_t id,
                    const std::string& phase) {
  for (int i = 0; i < 60000; ++i) {
    const auto info = engine.info(id);
    ASSERT_TRUE(info.has_value());
    if (info->state == serve::JobState::kRunning && info->phase == phase) {
      return;
    }
    ASSERT_NE(info->state, serve::JobState::kDone);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " never reached phase " << phase;
}

// ---------------------------------------------------------------- cache keys

TEST(CacheKeys, ScenarioFamilyKeyIsStableAndFilesystemSafe) {
  systems::Scenario s = tiny_scenario();
  const std::string key = serve::scenario_family_key(s);
  EXPECT_EQ(key, serve::scenario_family_key(s));
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    EXPECT_TRUE(ok) << "unsafe char '" << c << "' in " << key;
  }
  // The policy grid is part of the family: a grid-16 checkpoint cannot warm
  // a grid-12 net.
  systems::Scenario other_grid = s;
  other_grid.budget.rl_grid = 16;
  EXPECT_NE(key, serve::scenario_family_key(other_grid));

  // Inline scenarios are keyed by their system, not their name alone.
  ASSERT_TRUE(s.inline_system.has_value());
  const ChipletSystem& sys = *s.inline_system;
  std::vector<Chiplet> chiplets = sys.chiplets();
  chiplets[0].power += 1.0;
  systems::Scenario other_chiplets = s;
  other_chiplets.inline_system.emplace(sys.name(), sys.interposer_width(),
                                       sys.interposer_height(), chiplets,
                                       sys.nets());
  EXPECT_NE(key, serve::scenario_family_key(other_chiplets));

  // Family scenarios share a key exactly when they differ in the family
  // seed alone: every other generator field changes it.
  systems::Scenario family;
  family.name = "family_probe";
  family.family = systems::FamilyConfig{};
  family.family->chiplets = 16;
  family.family->interposer_w_mm = 90.0;
  family.family->interposer_h_mm = 90.0;
  const std::string family_key = serve::scenario_family_key(family);
  systems::Scenario reseeded = family;
  reseeded.family_seed += 1;
  EXPECT_EQ(family_key, serve::scenario_family_key(reseeded));
  using Edit = void (*)(systems::FamilyConfig&);
  const std::pair<const char*, Edit> edits[] = {
      {"chiplets", [](systems::FamilyConfig& f) { f.chiplets += 1; }},
      {"interposer_w_mm",
       [](systems::FamilyConfig& f) { f.interposer_w_mm += 0.7; }},
      {"interposer_h_mm",
       [](systems::FamilyConfig& f) { f.interposer_h_mm += 30.0; }},
      {"min_dim_mm", [](systems::FamilyConfig& f) { f.min_dim_mm += 0.5; }},
      {"max_dim_mm", [](systems::FamilyConfig& f) { f.max_dim_mm += 0.5; }},
      {"max_aspect", [](systems::FamilyConfig& f) { f.max_aspect = 2.0; }},
      {"min_power_w", [](systems::FamilyConfig& f) { f.min_power_w += 1.0; }},
      {"max_power_w", [](systems::FamilyConfig& f) { f.max_power_w = 60.0; }},
      {"power_skew", [](systems::FamilyConfig& f) { f.power_skew = 3.0; }},
      {"topology",
       [](systems::FamilyConfig& f) {
         f.topology = systems::NetTopology::kMesh;
       }},
      {"min_wires", [](systems::FamilyConfig& f) { f.min_wires += 1; }},
      {"max_wires", [](systems::FamilyConfig& f) { f.max_wires += 1; }},
      {"extra_net_prob",
       [](systems::FamilyConfig& f) { f.extra_net_prob += 0.1; }},
      {"hotspot_pairs", [](systems::FamilyConfig& f) { f.hotspot_pairs = 1; }},
      {"hotspot_power_w",
       [](systems::FamilyConfig& f) { f.hotspot_power_w = 40.0; }},
      {"max_utilization",
       [](systems::FamilyConfig& f) { f.max_utilization = 0.4; }},
  };
  for (const auto& [field, edit] : edits) {
    systems::Scenario edited = family;
    edit(*edited.family);
    ASSERT_NE(edited.family, family.family) << field;
    EXPECT_NE(family_key, serve::scenario_family_key(edited)) << field;
  }
}

TEST(CharacterizationCacheTest, SharesModelsByFootprint) {
  serve::CharacterizationCache cache(thermal::LayerStack::default_2p5d(),
                                     tiny_config().characterization);
  const thermal::FastThermalModel& first = cache.get(50.0, 50.0);
  const thermal::FastThermalModel& again = cache.get(50.0, 50.0);
  EXPECT_EQ(&first, &again);  // same entry, not a recharacterization
  EXPECT_EQ(cache.entries(), 1u);
  serve::CharacterizationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.characterize_seconds, 0.0);

  cache.get(60.0, 50.0);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The footprint is ordered: a 50x60 interposer is not a 60x50 one.
  const thermal::FastThermalModel& wide = cache.get(60.0, 50.0);
  const thermal::FastThermalModel& tall = cache.get(50.0, 60.0);
  EXPECT_NE(&wide, &tall);
  EXPECT_EQ(&tall, &cache.get(50.0, 60.0));
  EXPECT_EQ(cache.entries(), 3u);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
}

// -------------------------------------------------------------------- parity

TEST(ServeParity, ServedResultBitIdenticalToInlineRun) {
  systems::Scenario scenario = tiny_scenario();
  scenario.budget.sa_evaluations = 300;
  scenario.budget.rl_epochs = 1;

  // Inline: a direct runner, the code path regress uses.
  serve::ScenarioRunner inline_runner(thermal::LayerStack::default_2p5d(),
                                      tiny_config());
  const serve::ScenarioRunResult direct = inline_runner.run(scenario);
  ASSERT_TRUE(direct.error.empty()) << direct.error;

  // Served: the same scenario through the engine's queue on a pool lane.
  serve::ServeEngineConfig config;
  config.workers = 2;
  config.runner = tiny_config();
  serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);
  const std::uint64_t id = engine.submit(scenario);
  const auto info = engine.wait(id);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->state, serve::JobState::kDone) << info->error;
  const auto served = engine.result_json(id);
  ASSERT_TRUE(served.has_value());

  // Bit-exact comparison on every deterministic field. JsonValue numbers
  // compare as doubles, and both sides round-tripped through the same
  // shortest-round-trip formatter, so EXPECT_EQ here means bit-identical.
  const util::JsonValue direct_json = serve::run_result_to_json(direct);
  for (const char* leg : {"sa", "rl"}) {
    SCOPED_TRACE(leg);
    ASSERT_TRUE(served->has(leg));
    ASSERT_TRUE(direct_json.has(leg));
    for (const char* field : {"legal", "temp_c", "fast_temp_c",
                              "wirelength_mm", "reward", "work"}) {
      SCOPED_TRACE(field);
      EXPECT_EQ(served->at(leg).at(field), direct_json.at(leg).at(field));
    }
  }
  EXPECT_EQ(served->at("chiplets"), direct_json.at("chiplets"));
}

// ------------------------------------------------------------- spare lanes

/// The process-wide count of PPO updates that ran on lent lanes and on their
/// leg's own thread.
std::pair<std::uint64_t, std::uint64_t> update_counts() {
  std::pair<std::uint64_t, std::uint64_t> counts{0, 0};
  const auto metrics = obs::MetricsRegistry::instance().snapshot();
  for (const obs::MetricValue& m : metrics) {
    if (m.name == "rl.update.lent") counts.first = m.count;
    if (m.name == "rl.update.serial") counts.second = m.count;
  }
  return counts;
}

TEST(RunnerLanes, LoneRunLendsAndConcurrentRunsDoNot) {
  systems::Scenario scenario = tiny_scenario();
  scenario.budget.run_sa = false;
  scenario.budget.rl_epochs = 3;
  serve::ScenarioRunner runner(thermal::LayerStack::default_2p5d(),
                               tiny_config());
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  const bool spare = parallel::ThreadPool::hardware_threads() >= 3;

  // Alone, every update borrows the runner's spare lanes (when the host
  // has any).
  const serve::ScenarioRunResult lone = runner.run(scenario);
  ASSERT_TRUE(lone.error.empty()) << lone.error;
  const auto [lone_lent, lone_serial] = update_counts();
  EXPECT_EQ(lone_lent + lone_serial, 3u);
  EXPECT_EQ(lone_lent, spare ? 3u : 0u);

  // Two runs held in flight together, from before either RL leg until after
  // both: neither may borrow, so the pool never serves two callers (one
  // would throw std::logic_error and degrade its leg).
  obs::MetricsRegistry::instance().reset();
  std::barrier<> both_at_rl(2);
  std::barrier<> both_scored(2);
  serve::RunOptions opts;
  opts.progress = [&](const char* phase) {
    if (std::string(phase) == "rl") both_at_rl.arrive_and_wait();
    if (std::string(phase) == "score") both_scored.arrive_and_wait();
  };
  serve::ScenarioRunResult concurrent[2];
  std::thread other([&] { concurrent[1] = runner.run(scenario, opts); });
  concurrent[0] = runner.run(scenario, opts);
  other.join();
  const auto [lent, serial] = update_counts();
  EXPECT_EQ(lent, 0u);
  EXPECT_EQ(serial, 6u);
  obs::set_metrics_enabled(false);

  // Lent or not, the legs carry the same bits.
  const util::JsonValue want = serve::run_result_to_json(lone).at("rl");
  for (const serve::ScenarioRunResult& r : concurrent) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_FALSE(r.degraded());
    const util::JsonValue got = serve::run_result_to_json(r).at("rl");
    for (const char* field : {"legal", "temp_c", "fast_temp_c",
                              "wirelength_mm", "reward", "work"}) {
      SCOPED_TRACE(field);
      EXPECT_EQ(got.at(field), want.at(field));
    }
  }
}

// -------------------------------------------------------------- cancellation

TEST(ServeEngineTest, QueuedJobCancelledBeforeRunningNeverRuns) {
  serve::ServeEngineConfig config;
  config.workers = 1;
  config.runner = tiny_config();
  serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);

  // The blocker owns the only lane; the victim waits behind it.
  const std::uint64_t blocker =
      engine.submit(quick_sa_scenario("blocker", 50'000'000));
  const std::uint64_t victim = engine.submit(quick_sa_scenario("victim"));

  EXPECT_TRUE(engine.cancel(victim));
  const auto info = engine.wait(victim);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, serve::JobState::kCancelled);
  EXPECT_EQ(info->run_seconds, 0.0);  // never started
  // A never-ran job has no payload: the protocol reports an empty object.
  const auto payload = engine.result_json(victim);
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(payload->has("sa"));

  EXPECT_TRUE(engine.cancel(blocker));
  const auto blocker_info = engine.wait(blocker);
  ASSERT_TRUE(blocker_info.has_value());
  EXPECT_EQ(blocker_info->state, serve::JobState::kCancelled);
  EXPECT_FALSE(engine.cancel(999));  // unknown ids report false
}

TEST(ServeEngineTest, MidFlightCancelReturnsDegradedBestSoFar) {
  serve::ServeEngineConfig config;
  config.workers = 1;
  config.runner = tiny_config();
  serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);

  const std::uint64_t id =
      engine.submit(quick_sa_scenario("long-sa", 50'000'000));
  wait_for_phase(engine, id, "sa");
  EXPECT_TRUE(engine.cancel(id));

  const auto info = engine.wait(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, serve::JobState::kCancelled);

  // The leg ran, stopped cooperatively, and reports best-so-far tagged with
  // the cancel stop reason — the PR 7 degraded contract, end to end.
  const auto payload = engine.result_json(id);
  ASSERT_TRUE(payload.has_value());
  ASSERT_TRUE(payload->has("sa"));
  const util::JsonValue& sa = payload->at("sa");
  EXPECT_TRUE(sa.bool_or("degraded", false));
  EXPECT_EQ(sa.string_or("stop_reason", ""), "cancelled");
  EXPECT_LT(sa.number_or("work", 1e18), 50'000'000.0);
}

// Also with every ThreadPool dispatch degraded to inline execution: the job
// lanes must not depend on the pool.
TEST(ServeEngineTest, TwoWorkersRunTwoJobsAtOnce) {
  for (const std::string faults : {"", "pool_dispatch:1.0"}) {
    SCOPED_TRACE("faults=" + faults);
    struct FaultGuard {
      explicit FaultGuard(const std::string& spec) {
        robust::FaultInjector::instance().configure(spec, 4);
      }
      ~FaultGuard() { robust::FaultInjector::instance().clear(); }
    } const guard(faults);
    serve::ServeEngineConfig config;
    config.workers = 2;
    config.runner = tiny_config();
    serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);
    EXPECT_EQ(engine.workers(), 2u);

    const std::uint64_t a =
        engine.submit(quick_sa_scenario("lane-a", 50'000'000));
    const std::uint64_t b =
        engine.submit(quick_sa_scenario("lane-b", 50'000'000));
    const auto running = [&](std::uint64_t id) {
      const auto info = engine.info(id);
      return info.has_value() && info->state == serve::JobState::kRunning;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool both = false;
    while (!both && std::chrono::steady_clock::now() < deadline) {
      both = running(a) && running(b);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(both) << "two workers never ran two jobs at once";

    EXPECT_TRUE(engine.cancel(a));
    EXPECT_TRUE(engine.cancel(b));
    for (const std::uint64_t id : {a, b}) {
      const auto info = engine.wait(id);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->state, serve::JobState::kCancelled);
    }
  }
}

// ------------------------------------------------------------------ priority

TEST(ServeEngineTest, HigherPriorityJobRunsFirst) {
  serve::ServeEngineConfig config;
  config.workers = 1;
  config.runner = tiny_config();
  serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);

  const std::uint64_t blocker =
      engine.submit(quick_sa_scenario("blocker", 50'000'000));
  serve::SubmitOptions low;
  low.priority = 0;
  const std::uint64_t background =
      engine.submit(quick_sa_scenario("background"), low);
  serve::SubmitOptions high;
  high.priority = 5;
  const std::uint64_t urgent =
      engine.submit(quick_sa_scenario("urgent"), high);

  // Free the lane; it must pick `urgent` over the earlier-queued
  // `background`.
  wait_for_phase(engine, blocker, "sa");
  EXPECT_TRUE(engine.cancel(blocker));
  const auto urgent_info = engine.wait(urgent);
  const auto background_info = engine.wait(background);
  ASSERT_TRUE(urgent_info.has_value());
  ASSERT_TRUE(background_info.has_value());
  EXPECT_EQ(urgent_info->state, serve::JobState::kDone);
  EXPECT_EQ(background_info->state, serve::JobState::kDone);
  // One lane: background's queue wait includes urgent's whole run, so
  // priority inversion would flip this inequality.
  EXPECT_GT(background_info->queued_seconds, urgent_info->queued_seconds);
}

// ---------------------------------------------------------------- warm cache

TEST(WarmStartCacheTest, FamilyCheckpointRoundTrip) {
  // TempDir() is shared and outlives test runs — wipe the cache directory so
  // the first run really is a miss on every invocation.
  const std::string dir = testing::TempDir() + "serve_warm_cache";
  std::filesystem::remove_all(dir);
  serve::RunnerConfig config = tiny_config();
  config.warm_dir = dir;
  serve::ScenarioRunner runner(thermal::LayerStack::default_2p5d(), config);

  systems::Scenario scenario = tiny_scenario();
  scenario.budget.run_sa = false;
  scenario.budget.rl_epochs = 1;

  serve::RunOptions warm;
  warm.warm_start = true;

  const serve::ScenarioRunResult first = runner.run(scenario, warm);
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_FALSE(first.warm_loaded);  // nothing cached yet
  EXPECT_TRUE(first.warm_saved);
  EXPECT_EQ(runner.warm_cache().stats().misses, 1u);
  EXPECT_EQ(runner.warm_cache().stats().stores, 1u);

  const serve::ScenarioRunResult second = runner.run(scenario, warm);
  ASSERT_TRUE(second.error.empty()) << second.error;
  EXPECT_TRUE(second.warm_loaded);
  EXPECT_EQ(runner.warm_cache().stats().hits, 1u);

  // Cold runs must ignore the cache entirely — warm starts change results,
  // so they are opt-in per job.
  const serve::ScenarioRunResult cold = runner.run(scenario);
  ASSERT_TRUE(cold.error.empty()) << cold.error;
  EXPECT_FALSE(cold.warm_loaded);
  EXPECT_EQ(runner.warm_cache().stats().hits, 1u);  // unchanged
}

// ------------------------------------------------------ protocol handler

TEST(ServeProtocolTest, OutOfRangeNumbersAreBadRequests) {
  // Each line gets exactly one "bad request: <field>" reply, queues
  // nothing, and the handler keeps serving; no number reaches a cast it
  // would overflow.
  serve::ServeEngineConfig config;
  config.workers = 1;
  config.runner = tiny_config();
  serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);
  serve::RequestHandler handler(engine);
  const std::string scenario =
      systems::scenario_to_json(quick_sa_scenario("bounds")).dump();
  const std::string submit = R"({"op":"submit","scenario":)" + scenario;
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"op":"status","id":1e300})", "id"},
      {R"({"op":"status","id":-1})", "id"},
      {R"({"op":"status"})", "id"},
      {R"({"op":"cancel","id":1.8446744073709552e19})", "id"},
      {R"({"op":"result","id":1e300,"wait":false})", "id"},
      {submit + R"(,"priority":1e300})", "priority"},
      {submit + R"(,"priority":-2147483649})", "priority"},
      {submit + R"(,"deadline_s":-1})", "deadline_s"},
      {submit + R"(,"deadline_s":-1e300})", "deadline_s"},
  };
  for (const auto& [line, field] : bad) {
    std::vector<std::string> replies;
    EXPECT_TRUE(handler.handle_line(
        line, [&](const std::string& r) { replies.push_back(r); }));
    ASSERT_EQ(replies.size(), 1u) << line;
    const util::JsonValue reply = util::parse_json(replies[0]);
    EXPECT_FALSE(reply.bool_or("ok", true)) << replies[0];
    EXPECT_EQ(reply.string_or("error", "").rfind("bad request: " + field, 0),
              0u)
        << replies[0];
  }
  EXPECT_EQ(engine.stats().submitted, 0u);

  // A huge deadline is a valid budget: it saturates and never expires.
  std::vector<std::string> replies;
  handler.handle_line(submit + R"(,"deadline_s":1e300,"priority":7})",
                      [&](const std::string& r) { replies.push_back(r); });
  ASSERT_EQ(replies.size(), 1u);
  const util::JsonValue accepted = util::parse_json(replies[0]);
  ASSERT_TRUE(accepted.bool_or("ok", false)) << replies[0];
  const auto id = static_cast<std::uint64_t>(accepted.number_or("id", 0.0));
  const auto info = engine.wait(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, serve::JobState::kDone);
  EXPECT_EQ(info->priority, 7);
  const auto result = engine.result_json(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->at("sa").bool_or("degraded", false));
  engine.shutdown();
}

// ------------------------------------------------------- protocol over TCP

class ServeSocketTest : public testing::Test {
 protected:
  void SetUp() override {
    serve::ServeEngineConfig config;
    config.workers = 1;
    config.runner = tiny_config();
    engine_ = std::make_unique<serve::ServeEngine>(
        thermal::LayerStack::default_2p5d(), config);
    server_ = std::make_unique<serve::JsonlServer>(*engine_);
    server_->start();
    client_.connect("127.0.0.1", server_->port());
  }

  void TearDown() override {
    client_.close();
    server_->stop();
    engine_->shutdown();
  }

  std::unique_ptr<serve::ServeEngine> engine_;
  std::unique_ptr<serve::JsonlServer> server_;
  serve::Client client_;
};

TEST_F(ServeSocketTest, MalformedJsonLineReportsErrorAndKeepsConnection) {
  client_.send_line("this is not json");
  const auto line = client_.read_line();
  ASSERT_TRUE(line.has_value());
  const util::JsonValue response = util::parse_json(*line);
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_NE(response.string_or("error", "").find("bad request"),
            std::string::npos);

  // The connection survives a bad line: the next request works.
  const util::JsonValue stats = client_.stats();
  EXPECT_TRUE(stats.bool_or("ok", false));
}

TEST_F(ServeSocketTest, UnknownOpAndMissingIdAreErrors) {
  util::JsonValue bad_op = util::JsonValue::make_object();
  bad_op.set("op", "frobnicate");
  EXPECT_FALSE(client_.request(bad_op).bool_or("ok", true));

  util::JsonValue no_id = util::JsonValue::make_object();
  no_id.set("op", "status");
  EXPECT_FALSE(client_.request(no_id).bool_or("ok", true));

  const util::JsonValue unknown = client_.status(424242);
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_NE(unknown.string_or("error", "").find("unknown job"),
            std::string::npos);
}

TEST_F(ServeSocketTest, PipelinedRequestsAnswerInOrder) {
  // Two requests in one TCP segment; the framing layer must split and
  // answer both, in order.
  client_.send_line("{\"op\":\"stats\"}\n{\"op\":\"status\",\"id\":7}");
  const auto first = client_.read_line();
  const auto second = client_.read_line();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(util::parse_json(*first).string_or("op", ""), "stats");
  EXPECT_FALSE(util::parse_json(*second).bool_or("ok", true));
}

TEST_F(ServeSocketTest, OversizedLineIsRejectedAndConnectionClosed) {
  const std::string huge(serve::kMaxLineBytes + 16, 'x');
  client_.send_line(huge);
  const auto line = client_.read_line();
  ASSERT_TRUE(line.has_value());
  const util::JsonValue response = util::parse_json(*line);
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_NE(response.string_or("error", "").find("exceeds"),
            std::string::npos);
  // The server hangs up after an overflow (the peer is hostile or broken).
  EXPECT_FALSE(client_.read_line().has_value());
}

TEST_F(ServeSocketTest, SubmitWaitResultEndToEnd) {
  std::vector<std::string> phases;
  const std::uint64_t id =
      client_.submit(systems::scenario_to_json(quick_sa_scenario("via-tcp")));
  const util::JsonValue response = client_.wait_result(
      id, [&](const util::JsonValue& event) {
        phases.push_back(event.string_or("phase", ""));
      });
  ASSERT_TRUE(response.bool_or("ok", false)) << response.dump();
  EXPECT_EQ(response.at("job").string_or("state", ""), "done");
  const util::JsonValue& result = response.at("result");
  ASSERT_TRUE(result.has("sa"));
  EXPECT_TRUE(result.at("sa").bool_or("legal", false));
  // Progress events are timing-dependent (the job may finish before the
  // result request lands), but any that did arrive must carry known phases.
  for (const std::string& phase : phases) {
    EXPECT_TRUE(phase == "model" || phase == "sa" || phase == "rl" ||
                phase == "score")
        << phase;
  }

  const util::JsonValue stats = client_.stats();
  ASSERT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.at("stats").number_or("completed", -1.0), 1.0);
}

// accept() hands out the lowest free fd, so a short connection's number is
// recycled at once. If a finished connection deregistered its fd only after
// closing it, a new connection could take the number in between and lose
// its registration to that erase: stop() would never shut it down and then
// block joining its thread until the client hung up.
TEST_F(ServeSocketTest, StopReturnsAfterConnectionChurn) {
  const std::uint16_t port = server_->port();
  std::vector<std::future<void>> churners;
  for (int t = 0; t < 4; ++t) {
    churners.push_back(std::async(std::launch::async, [port] {
      for (int i = 0; i < 50; ++i) {
        serve::Client c;
        c.connect("127.0.0.1", port);
      }
    }));
  }
  std::vector<serve::Client> held(32);
  for (serve::Client& c : held) {
    c.connect("127.0.0.1", port);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::future<void>& f : churners) f.get();  // rethrows a failed connect

  auto stopped = std::async(std::launch::async, [this] { server_->stop(); });
  const bool returned =
      stopped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // A hung stop() returns once its clients hang up: fail, do not hang.
  for (serve::Client& c : held) c.close();
  stopped.get();
  EXPECT_TRUE(returned) << "stop() blocked on a connection it never shut down";
}

TEST_F(ServeSocketTest, ShutdownRequestFlagsEngineAndClosesConnection) {
  EXPECT_FALSE(engine_->shutdown_requested());
  const util::JsonValue response = client_.shutdown();
  EXPECT_TRUE(response.bool_or("ok", false));
  EXPECT_TRUE(engine_->shutdown_requested());
  EXPECT_FALSE(client_.read_line().has_value());  // server hung up
}

}  // namespace
