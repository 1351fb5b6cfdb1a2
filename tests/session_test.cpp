// TrainingSession: bit-exact resume (one replica, several, RND), curriculum
// tagging, checkpoint-corruption rejection, all-or-nothing loads (a load
// that throws leaves the session's checkpoint byte-identical), and the
// replica/evaluator contract.
#include "rl/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_util.h"
#include "nn/serialize.h"
#include "parallel/thread_pool.h"
#include "thermal/evaluator.h"

namespace rlplan::rl {
namespace {

// Cheap geometric evaluator (compactness ~ heat) so session tests avoid
// thermal characterization entirely. Cloneable for VecEnv replicas.
class ProxyEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    double worst = 45.0;
    const auto rects = floorplan.placed_rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i]) continue;
      double t = 45.0 + 1.2 * system.chiplet(i).power;
      for (std::size_t j = 0; j < rects.size(); ++j) {
        if (j == i || !rects[j]) continue;
        const double d = center_distance(*rects[i], *rects[j]);
        t += system.chiplet(j).power / (1.0 + 0.3 * d);
      }
      worst = std::max(worst, t);
    }
    return worst;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "proxy"; }
  std::unique_ptr<thermal::ThermalEvaluator> clone() const override {
    return std::make_unique<ProxyEvaluator>();
  }

 private:
  long count_ = 0;
};

// ProxyEvaluator that fires a cancel token after an armed number of further
// evaluations — lands a cooperative cancel deterministically mid-collection.
class CancellingEvaluator final : public thermal::ThermalEvaluator {
 public:
  CancellingEvaluator(robust::CancelToken token,
                      std::shared_ptr<std::atomic<long>> remaining)
      : token_(std::move(token)), remaining_(std::move(remaining)) {}
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    const double t = inner_.max_temperature(system, floorplan);
    if (remaining_->load() >= 0 && remaining_->fetch_sub(1) == 0) {
      token_.cancel();
    }
    return t;
  }
  long num_evaluations() const override { return inner_.num_evaluations(); }
  std::string name() const override { return "cancelling-proxy"; }
  std::unique_ptr<thermal::ThermalEvaluator> clone() const override {
    return std::make_unique<CancellingEvaluator>(token_, remaining_);
  }

 private:
  ProxyEvaluator inner_;
  robust::CancelToken token_;
  std::shared_ptr<std::atomic<long>> remaining_;  // -1 = disarmed
};

// Counts its evaluations but cannot be cloned (like the serve runner's
// TimedEvaluator): usable by a one-replica session only.
class NoCloneEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    return inner_.max_temperature(system, floorplan);
  }
  long num_evaluations() const override { return inner_.num_evaluations(); }
  std::string name() const override { return "no-clone"; }

 private:
  ProxyEvaluator inner_;
};

ChipletSystem tiny_system_a() {
  return ChipletSystem("sys-a", 24.0, 24.0,
                       {{"a", 8.0, 8.0, 25.0},
                        {"b", 6.0, 6.0, 12.0},
                        {"c", 5.0, 5.0, 8.0}},
                       {{0, 1, 64}, {1, 2, 32}, {0, 2, 16}});
}

ChipletSystem tiny_system_b() {
  return ChipletSystem("sys-b", 26.0, 26.0,
                       {{"x", 7.0, 9.0, 30.0},
                        {"y", 6.0, 5.0, 10.0},
                        {"z", 4.0, 6.0, 6.0}},
                       {{0, 1, 128}, {1, 2, 48}});
}

ChipletSystem tiny_system_c() {
  return ChipletSystem("sys-c", 22.0, 22.0,
                       {{"p", 6.0, 6.0, 20.0}, {"q", 7.0, 5.0, 14.0}},
                       {{0, 1, 96}});
}

TrainingSessionConfig small_config(std::uint64_t seed,
                                   std::size_t num_envs = 1) {
  TrainingSessionConfig config;
  config.env.grid = 12;
  config.net.conv1 = 4;
  config.net.conv2 = 4;
  config.net.conv3 = 4;
  config.net.fc = 32;
  config.ppo.episodes_per_update = 6;
  config.ppo.minibatch = 16;
  config.num_envs = num_envs;
  config.num_threads = num_envs > 1 ? 2 : 0;
  config.seed = seed;
  return config;
}

std::vector<SessionTask> make_tasks(
    const std::vector<const ChipletSystem*>& systems,
    const std::vector<std::string>& names) {
  std::vector<SessionTask> tasks;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    tasks.push_back(
        {names[i], systems[i], std::make_unique<ProxyEvaluator>()});
  }
  return tasks;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>{});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The session's checkpoint bytes (saved through `path`): two sessions, or
/// one session before and after a load, hold the same state iff these match.
std::string saved_bytes(const TrainingSession& session,
                        const std::string& path) {
  session.save_checkpoint(path);
  return slurp(path);
}

/// Start offset and name of every record of a v2 checkpoint, in order, the
/// terminal "end" record included (nn/serialize.h documents the layout).
struct RecordStart {
  std::size_t offset;
  std::string name;
};
std::vector<RecordStart> checkpoint_records(const std::string& blob) {
  const auto word = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, blob.data() + at, sizeof(v));
    return v;
  };
  std::vector<RecordStart> out;
  std::size_t pos = nn::kCheckpointMagicLen;
  while (pos < blob.size()) {
    const std::size_t name_len = word(pos);
    out.push_back({pos, blob.substr(pos + 8, name_len)});
    pos += 8 + name_len;
    const auto kind = static_cast<std::uint8_t>(blob[pos++]);
    switch (kind) {
      case 1:  // u64
      case 2:  // f64
        pos += 8;
        break;
      case 3:  // f32
        pos += 4;
        break;
      case 4:  // string
      case 6:  // u64vec
        pos += 8 + word(pos) * (kind == 4 ? 1 : 8);
        break;
      case 5: {  // tensor
        const std::uint64_t rank = word(pos);
        std::uint64_t numel = 1;
        for (std::uint64_t d = 0; d < rank; ++d) numel *= word(pos + 8 + 8 * d);
        pos += 8 + 8 * rank + 4 * numel;
        break;
      }
      default:  // end
        break;
    }
  }
  EXPECT_EQ(pos, blob.size());
  return out;
}

void expect_same_stats(const TrainStats& a, const TrainStats& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.mean_reward, b.mean_reward);
  EXPECT_EQ(a.best_reward, b.best_reward);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.approx_kl, b.approx_kl);
  EXPECT_EQ(a.grad_norm, b.grad_norm);
  EXPECT_EQ(a.rnd_error, b.rnd_error);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.dead_ends, b.dead_ends);
}

void expect_same_parameters(PpoCore& a, PpoCore& b) {
  const auto pa = a.net().parameters();
  const auto pb = b.net().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    for (std::size_t k = 0; k < pa[i]->value.numel(); ++k) {
      ASSERT_EQ(pa[i]->value[k], pb[i]->value[k])
          << "param " << pa[i]->name << " diverges at element " << k;
    }
  }
}

void expect_same_best(TrainingSession& a, TrainingSession& b,
                      std::size_t task) {
  ASSERT_EQ(a.has_best(task), b.has_best(task));
  if (!a.has_best(task)) return;
  const Floorplan& fa = a.best_floorplan(task);
  const Floorplan& fb = b.best_floorplan(task);
  ASSERT_EQ(fa.num_chiplets(), fb.num_chiplets());
  for (std::size_t k = 0; k < fa.num_chiplets(); ++k) {
    ASSERT_EQ(fa.placement(k).has_value(), fb.placement(k).has_value());
    if (fa.placement(k)) {
      EXPECT_EQ(fa.placement(k)->position.x, fb.placement(k)->position.x);
      EXPECT_EQ(fa.placement(k)->position.y, fb.placement(k)->position.y);
      EXPECT_EQ(fa.placement(k)->rotated, fb.placement(k)->rotated);
    }
  }
  EXPECT_EQ(a.best_metrics(task).reward, b.best_metrics(task).reward);
}

/// train(total) in one session vs. train(split); save; load into a fresh
/// session; train(total - split) — every post-split epoch, the final
/// parameters, and the best floorplan must match bit-exactly.
void check_resume_bit_exact(const TrainingSessionConfig& config,
                            bool multi_task, const std::string& ckpt_name) {
  const ChipletSystem sys_a = tiny_system_a();
  const ChipletSystem sys_b = tiny_system_b();
  std::vector<const ChipletSystem*> systems{&sys_a};
  std::vector<std::string> names{"a"};
  if (multi_task) {
    systems.push_back(&sys_b);
    names.push_back("b");
  }
  const int total = 6, split = 3;

  TrainingSession full(config, make_tasks(systems, names));
  std::vector<TrainStats> full_tail;
  for (int e = 0; e < total; ++e) {
    TrainStats s = full.train_epoch();
    if (e >= split) full_tail.push_back(std::move(s));
  }

  const std::string path = temp_path(ckpt_name);
  TrainingSession first(config, make_tasks(systems, names));
  for (int e = 0; e < split; ++e) first.train_epoch();
  first.save_checkpoint(path);

  TrainingSession resumed(config, make_tasks(systems, names));
  resumed.load_checkpoint(path);
  EXPECT_EQ(resumed.epochs_completed(), split);
  std::vector<TrainStats> resumed_tail;
  for (int e = split; e < total; ++e) {
    resumed_tail.push_back(resumed.train_epoch());
  }

  ASSERT_EQ(full_tail.size(), resumed_tail.size());
  for (std::size_t i = 0; i < full_tail.size(); ++i) {
    expect_same_stats(full_tail[i], resumed_tail[i]);
  }
  expect_same_parameters(full.core(), resumed.core());
  EXPECT_EQ(full.total_env_steps(), resumed.total_env_steps());
  for (std::size_t t = 0; t < systems.size(); ++t) {
    expect_same_best(full, resumed, t);
  }
  std::remove(path.c_str());
}

TEST(TrainingSession, ResumeBitExactSerial) {
  check_resume_bit_exact(small_config(7), false, "resume_serial.ckpt");
}

TEST(TrainingSession, ResumeBitExactParallel) {
  check_resume_bit_exact(small_config(11, /*num_envs=*/3), false,
                         "resume_parallel.ckpt");
}

TEST(TrainingSession, ResumeBitExactWithRnd) {
  TrainingSessionConfig config = small_config(13);
  config.ppo.use_rnd = true;
  check_resume_bit_exact(config, false, "resume_rnd.ckpt");
}

TEST(TrainingSession, ResumeBitExactCurriculum) {
  TrainingSessionConfig config = small_config(17);
  config.curriculum = CurriculumMode::kSampled;
  check_resume_bit_exact(config, true, "resume_curriculum.ckpt");
}

TEST(TrainingSession, CurriculumRoundRobinTagsEveryEpoch) {
  const ChipletSystem sa = tiny_system_a();
  const ChipletSystem sb = tiny_system_b();
  const ChipletSystem sc = tiny_system_c();
  TrainingSession session(
      small_config(3),
      make_tasks({&sa, &sb, &sc}, {"alpha", "beta", "gamma"}));
  const std::vector<std::string> expect{"alpha", "beta", "gamma",
                                        "alpha", "beta", "gamma"};
  for (const std::string& name : expect) {
    EXPECT_EQ(session.train_epoch().scenario, name);
  }
  // One policy trained across all three; each task tracked its own best.
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(session.has_best(t));
    EXPECT_TRUE(session.best_floorplan(t).is_complete());
  }
}

TEST(TrainingSession, CurriculumTasksDrawIndependentActionStreams) {
  // Two tasks over IDENTICAL systems, with policy updates disabled
  // (update_epochs = 0) so the net is frozen: if the tasks shared one
  // action-stream derivation, their epochs would sample identical
  // trajectories and identical rewards. The per-task seed bases
  // (util/rng.h) must keep them distinct.
  const ChipletSystem sys = tiny_system_a();
  TrainingSessionConfig config = small_config(21);
  config.ppo.update_epochs = 0;
  TrainingSession session(config, make_tasks({&sys, &sys}, {"a", "b"}));
  const TrainStats ea = session.train_epoch();
  const TrainStats eb = session.train_epoch();
  ASSERT_EQ(ea.scenario, "a");
  ASSERT_EQ(eb.scenario, "b");
  EXPECT_NE(ea.mean_reward, eb.mean_reward);
}

TEST(TrainingSession, SampledCurriculumIsSeedDeterministic) {
  const ChipletSystem sa = tiny_system_a();
  const ChipletSystem sb = tiny_system_b();
  TrainingSessionConfig config = small_config(5);
  config.curriculum = CurriculumMode::kSampled;
  auto run = [&] {
    TrainingSession session(config, make_tasks({&sa, &sb}, {"a", "b"}));
    std::string order;
    for (int e = 0; e < 6; ++e) order += session.train_epoch().scenario;
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(TrainingSession, WarmStartLoadsWeightsOnly) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("warm_start.ckpt");
  TrainingSession donor(small_config(7), make_tasks({&sa}, {"a"}));
  for (int e = 0; e < 2; ++e) donor.train_epoch();
  donor.save_checkpoint(path);

  // Different task name/seed: a full resume must reject, warm start must
  // accept and copy only the weights.
  const ChipletSystem sb = tiny_system_b();
  TrainingSession tuner(small_config(23), make_tasks({&sb}, {"held-out"}));
  EXPECT_THROW(tuner.load_checkpoint(path), std::runtime_error);
  tuner.load_checkpoint(path, /*warm_start=*/true);
  expect_same_parameters(donor.core(), tuner.core());
  EXPECT_EQ(tuner.core().optimizer_steps(), 0);
  EXPECT_EQ(tuner.epochs_completed(), 0);
  EXPECT_NO_THROW(tuner.train_epoch());
  std::remove(path.c_str());
}

TEST(TrainingSession, RejectsMismatchedSessionShape) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("shape.ckpt");
  const std::string scratch = temp_path("shape_state.ckpt");
  TrainingSession donor(small_config(7, /*num_envs=*/2),
                        make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.save_checkpoint(path);

  // Every rejected load leaves the session exactly as it was.
  const auto expect_rejected = [&](TrainingSession& session,
                                   bool warm_start) {
    const std::string before = saved_bytes(session, scratch);
    EXPECT_THROW(session.load_checkpoint(path, warm_start),
                 std::runtime_error);
    EXPECT_TRUE(saved_bytes(session, scratch) == before);
  };
  // num_envs mismatch.
  TrainingSession serial(small_config(7), make_tasks({&sa}, {"a"}));
  serial.train_epoch();
  expect_rejected(serial, false);
  // Architecture mismatch (different grid) fails even for warm start.
  TrainingSessionConfig other_grid = small_config(7, 2);
  other_grid.env.grid = 8;
  TrainingSession coarse(other_grid, make_tasks({&sa}, {"a"}));
  expect_rejected(coarse, false);
  expect_rejected(coarse, true);
  // RND mismatch.
  TrainingSessionConfig with_rnd = small_config(7, 2);
  with_rnd.ppo.use_rnd = true;
  TrainingSession rnd_session(with_rnd, make_tasks({&sa}, {"a"}));
  expect_rejected(rnd_session, false);
  // PPO hyperparameter drift: silently diverging resumes must be rejected,
  // but warm start (weights only) still accepts the checkpoint.
  TrainingSessionConfig other_ppo = small_config(7, 2);
  other_ppo.ppo.episodes_per_update = 12;
  TrainingSession drifted(other_ppo, make_tasks({&sa}, {"a"}));
  expect_rejected(drifted, false);
  EXPECT_NO_THROW(drifted.load_checkpoint(path, /*warm_start=*/true));
  // Task names.
  TrainingSession renamed(small_config(7, 2), make_tasks({&sa}, {"b"}));
  expect_rejected(renamed, false);
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

// The RND check comes after the net weights, the update RNG, the Adam
// moments and the reward statistics: a use_rnd session that rejects a
// no-RND checkpoint must still hold none of them.
TEST(TrainingSession, RejectedRndMismatchChangesNothing) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("no_rnd.ckpt");
  const std::string scratch = temp_path("rnd_state.ckpt");
  TrainingSession donor(small_config(7), make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.save_checkpoint(path);

  TrainingSessionConfig with_rnd = small_config(29);
  with_rnd.ppo.use_rnd = true;
  TrainingSession session(with_rnd, make_tasks({&sa}, {"a"}));
  session.train_epoch();
  const std::string before = saved_bytes(session, scratch);
  try {
    session.load_checkpoint(path);
    ADD_FAILURE() << "a no-RND checkpoint loaded into a use_rnd session";
  } catch (const robust::CorruptArtifactError& e) {
    ADD_FAILURE() << "mismatch reported as corruption: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RND configuration mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(saved_bytes(session, scratch) == before);
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

// A one-epoch checkpoint cut at every record boundary is a corrupt file in
// resume mode, and in warm-start mode up to the end of the net weights
// (where a warm start stops reading). Every such load throws and leaves the
// session — trained from another seed — exactly as it was.
TEST(TrainingSession, TruncatedCheckpointsChangeNothing) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("cut.ckpt");
  const std::string scratch = temp_path("cut_state.ckpt");
  for (const bool use_rnd : {false, true}) {
    SCOPED_TRACE(use_rnd ? "with RND" : "without RND");
    TrainingSessionConfig config = small_config(7);
    config.ppo.use_rnd = use_rnd;
    TrainingSession donor(config, make_tasks({&sa}, {"a"}));
    donor.train_epoch();
    const std::string blob = saved_bytes(donor, path);
    const std::vector<RecordStart> records = checkpoint_records(blob);
    ASSERT_EQ(records.back().name, "end");
    std::size_t net_end = 0;
    for (const RecordStart& r : records) {
      if (r.name.rfind("core.", 0) == 0) {
        net_end = r.offset;
        break;
      }
    }
    ASSERT_GT(net_end, 0u);

    config.seed = 19;
    TrainingSession session(config, make_tasks({&sa}, {"a"}));
    session.train_epoch();
    const std::string before = saved_bytes(session, scratch);
    std::vector<std::size_t> cuts{0};
    for (const RecordStart& r : records) cuts.push_back(r.offset);
    for (const std::size_t cut : cuts) {
      write_file(path, blob.substr(0, cut));
      for (const bool warm_start : {false, true}) {
        if (warm_start && cut >= net_end) continue;
        EXPECT_THROW(session.load_checkpoint(path, warm_start),
                     robust::CorruptArtifactError)
            << "cut at " << cut << (warm_start ? ", warm start" : "");
        ASSERT_TRUE(saved_bytes(session, scratch) == before)
            << "cut at " << cut << "/" << blob.size()
            << (warm_start ? ", warm start" : "");
      }
    }
  }
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

// Seeded byte flips at sampled offsets, in resume and warm-start mode: each
// load succeeds or throws a std::runtime_error, and after a throw the
// session is unchanged. A load that succeeds is undone by reloading the
// session's own checkpoint.
TEST(TrainingSession, ByteFlippedCheckpointsLoadOrChangeNothing) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("flip.ckpt");
  const std::string own = temp_path("flip_own.ckpt");
  const std::string scratch = temp_path("flip_state.ckpt");
  const int flips = 40 * rlplan::testing::fuzz_scale();
  for (const bool use_rnd : {false, true}) {
    SCOPED_TRACE(use_rnd ? "with RND" : "without RND");
    TrainingSessionConfig config = small_config(7);
    config.ppo.use_rnd = use_rnd;
    TrainingSession donor(config, make_tasks({&sa}, {"a"}));
    donor.train_epoch();
    const std::string blob = saved_bytes(donor, path);

    config.seed = 19;
    TrainingSession session(config, make_tasks({&sa}, {"a"}));
    session.train_epoch();
    const std::string before = saved_bytes(session, own);
    for (int f = 0; f < flips; ++f) {
      const std::uint64_t seed =
          0xF11BULL * 1000003ULL + static_cast<std::uint64_t>(f) +
          (use_rnd ? std::uint64_t{1} << 20 : 0);
      Rng rng(seed);
      std::string bad = blob;
      const std::size_t offset = rng.uniform_int(std::uint64_t{bad.size()});
      const auto mask = static_cast<unsigned char>(
          1 + rng.uniform_int(std::uint64_t{255}));
      bad[offset] =
          static_cast<char>(static_cast<unsigned char>(bad[offset]) ^ mask);
      const bool warm_start = rng.uniform_int(std::uint64_t{2}) == 1;
      write_file(path, bad);
      const std::string context =
          "ByteFlippedCheckpointsLoadOrChangeNothing seed=" +
          std::to_string(seed) + " rnd=" + std::to_string(use_rnd) +
          " offset=" + std::to_string(offset) +
          " warm_start=" + std::to_string(warm_start);
      bool threw = false;
      try {
        session.load_checkpoint(path, warm_start);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      if (!threw) session.load_checkpoint(own);
      if (saved_bytes(session, scratch) != before) {
        rlplan::testing::report_failure_seed("session_test", context);
        FAIL() << context << (threw ? ": a rejected load changed the session"
                                    : ": reloading the session's own "
                                      "checkpoint did not restore it");
      }
    }
  }
  std::remove(path.c_str());
  std::remove(own.c_str());
  std::remove(scratch.c_str());
}

// The file is read through its path: a missing file is not a corrupt one,
// and a save that cannot write fails as transient I/O.
TEST(TrainingSession, MissingAndUnwritablePathsThrow) {
  const ChipletSystem sa = tiny_system_a();
  TrainingSession session(small_config(7), make_tasks({&sa}, {"a"}));
  const std::string missing = temp_path("does_not_exist.ckpt");
  std::remove(missing.c_str());
  try {
    session.load_checkpoint(missing);
    ADD_FAILURE() << "a missing checkpoint loaded";
  } catch (const robust::CorruptArtifactError& e) {
    ADD_FAILURE() << "a missing file reported as corruption: " << e.what();
  } catch (const std::runtime_error&) {
  }
  EXPECT_THROW(session.save_checkpoint(temp_path("no/such/dir/x.ckpt")),
               robust::TransientIoError);
}

TEST(TrainingSession, RejectsTruncatedAndCorruptCheckpoints) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("trunc.ckpt");
  TrainingSession donor(small_config(7), make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.save_checkpoint(path);

  std::string blob;
  {
    std::ifstream is(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 64u);

  const auto write_blob = [&](const std::string& data) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  const auto expect_rejected = [&] {
    TrainingSession victim(small_config(7), make_tasks({&sa}, {"a"}));
    EXPECT_THROW(victim.load_checkpoint(path), std::runtime_error);
  };

  // Truncation at a spread of prefixes, including mid-magic, mid-header,
  // mid-tensor, and one byte short of complete (the "end" marker guards the
  // tail).
  for (const double frac : {0.002, 0.01, 0.1, 0.4, 0.8, 0.999}) {
    write_blob(blob.substr(
        0, static_cast<std::size_t>(static_cast<double>(blob.size()) * frac)));
    expect_rejected();
  }
  write_blob(blob.substr(0, blob.size() - 1));
  expect_rejected();

  // Magic corruption.
  {
    std::string bad = blob;
    bad[3] ^= 0x40;
    write_blob(bad);
    expect_rejected();
  }
  // The retired weight-only format fails the magic check like any other
  // unreadable file (so a resume candidate list quarantines it).
  {
    std::string bad = blob;
    bad[6] = '1';
    write_blob(bad);
    TrainingSession victim(small_config(7), make_tasks({&sa}, {"a"}));
    EXPECT_THROW(victim.load_checkpoint(path, /*warm_start=*/true),
                 robust::CorruptArtifactError);
  }
  // Record-name corruption just past the magic (flips a header byte).
  {
    std::string bad = blob;
    bad[nn::kCheckpointMagicLen + 9] ^= 0x01;
    write_blob(bad);
    expect_rejected();
  }

  // The pristine blob still loads (the guards above are not over-eager).
  write_blob(blob);
  TrainingSession ok(small_config(7), make_tasks({&sa}, {"a"}));
  EXPECT_NO_THROW(ok.load_checkpoint(path));
  std::remove(path.c_str());
}

TEST(TrainingSession, AutoResumeScansPastCorruptNewestCheckpoint) {
  const ChipletSystem sa = tiny_system_a();
  const std::string older = temp_path("rotate_older.ckpt");
  const std::string newest = temp_path("rotate_newest.ckpt");
  const std::string missing = temp_path("rotate_missing.ckpt");
  std::remove(missing.c_str());
  std::remove((newest + ".corrupt").c_str());

  TrainingSession donor(small_config(31), make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.train_epoch();
  donor.save_checkpoint(older);  // valid state at epoch 2
  const TrainStats ref = donor.train_epoch();  // what resuming must replay
  donor.save_checkpoint(newest);

  // Truncate the newest checkpoint mid-stream.
  {
    std::string blob;
    std::ifstream is(newest, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>());
    std::ofstream os(newest, std::ios::binary | std::ios::trunc);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  }

  // Newest-first scan: the corrupt file is quarantined, the missing file is
  // skipped silently, and the older valid checkpoint wins.
  TrainingSession resumed(small_config(31), make_tasks({&sa}, {"a"}));
  const std::string used =
      load_newest_valid_checkpoint(resumed, {newest, missing, older});
  EXPECT_EQ(used, older);
  EXPECT_EQ(resumed.epochs_completed(), 2);
  EXPECT_FALSE(std::ifstream(newest).good());
  EXPECT_TRUE(std::ifstream(newest + ".corrupt").good());

  // The recovered state is the real epoch-2 state: the next epoch replays
  // the donor's third epoch bit-exactly.
  expect_same_stats(ref, resumed.train_epoch());

  // Nothing valid left -> typed corruption error.
  TrainingSession empty(small_config(31), make_tasks({&sa}, {"a"}));
  EXPECT_THROW(load_newest_valid_checkpoint(empty, {newest, missing}),
               robust::CorruptArtifactError);

  std::remove(older.c_str());
  std::remove((newest + ".corrupt").c_str());
}

// A checkpoint that does not match the session is not a corrupt file: the
// scan stops at the first candidate's mismatch error and renames nothing
// (every candidate would fail alike, and each still resumes a matching
// session). The `train resume --envs=2` over `--envs=1` checkpoints case.
TEST(TrainingSession, AutoResumeMismatchPropagatesWithoutQuarantine) {
  const ChipletSystem sa = tiny_system_a();
  const std::string newest = temp_path("mismatch_newest.ckpt");
  const std::string older = temp_path("mismatch_older.ckpt");
  std::remove((newest + ".corrupt").c_str());
  std::remove((older + ".corrupt").c_str());

  TrainingSession donor(small_config(37), make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.save_checkpoint(older);
  donor.train_epoch();
  donor.save_checkpoint(newest);

  TrainingSession wider(small_config(37, /*num_envs=*/2),
                        make_tasks({&sa}, {"a"}));
  try {
    load_newest_valid_checkpoint(wider, {newest, older});
    ADD_FAILURE() << "a mismatched checkpoint loaded";
  } catch (const robust::CorruptArtifactError& e) {
    ADD_FAILURE() << "mismatch reported as corruption: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("num_envs mismatch"),
              std::string::npos)
        << e.what();
  }
  for (const std::string& path : {newest, older}) {
    EXPECT_TRUE(std::ifstream(path).good()) << path;
    EXPECT_FALSE(std::ifstream(path + ".corrupt").good()) << path;
  }

  TrainingSession matching(small_config(37), make_tasks({&sa}, {"a"}));
  EXPECT_EQ(load_newest_valid_checkpoint(matching, {newest, older}), newest);
  EXPECT_EQ(matching.epochs_completed(), 2);

  for (const std::string& path : {newest, older}) {
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  }
}

TEST(TrainingSession, StoppedEpochLeavesStateExactForResume) {
  const ChipletSystem sa = tiny_system_a();
  TrainingSession plain(small_config(33), make_tasks({&sa}, {"a"}));
  plain.train_epoch();
  plain.train_epoch();
  const TrainStats ref = plain.train_epoch();  // epoch 2, uninterrupted

  TrainingSession stopped(small_config(33), make_tasks({&sa}, {"a"}));
  stopped.train_epoch();
  stopped.train_epoch();
  robust::RunControl control;
  control.deadline = robust::Deadline::after_seconds(0.0);  // expired
  stopped.set_control(control);
  const TrainStats s = stopped.train_epoch();
  EXPECT_EQ(s.stop_reason, robust::StopReason::kDeadline);
  EXPECT_TRUE(s.degraded());
  EXPECT_EQ(s.steps, 0u);  // stopped before consuming any stream
  EXPECT_EQ(stopped.epochs_completed(), 2);

  // A cancel token reports its own reason (and wins over the deadline).
  control.cancel = robust::CancelToken::create();
  control.cancel.cancel();
  stopped.set_control(control);
  EXPECT_EQ(stopped.train_epoch().stop_reason,
            robust::StopReason::kCancelled);

  // The stopped session's checkpoint is the untouched epoch-2 state:
  // resuming from it replays the uninterrupted third epoch bit-exactly.
  const std::string path = temp_path("stop_resume.ckpt");
  stopped.save_checkpoint(path);
  TrainingSession resumed(small_config(33), make_tasks({&sa}, {"a"}));
  resumed.load_checkpoint(path);
  expect_same_stats(ref, resumed.train_epoch());
  std::remove(path.c_str());
}

TEST(TrainingSession, CancelledMidCollectionRewindsToLastCompletedEpoch) {
  const ChipletSystem sa = tiny_system_a();
  // With RND, the partial epoch must not fold its intrinsic-bonus errors
  // into the checkpointed RND statistics either.
  for (const bool use_rnd : {false, true}) {
    SCOPED_TRACE(use_rnd ? "with RND" : "without RND");
    TrainingSessionConfig config = small_config(41);
    config.ppo.use_rnd = use_rnd;
    TrainingSession donor(config, make_tasks({&sa}, {"a"}));
    donor.train_epoch();
    donor.train_epoch();
    const TrainStats ref = donor.train_epoch();  // uninterrupted third epoch

    // Same run, but a cancel fires mid-collection of the third epoch.
    robust::CancelToken token = robust::CancelToken::create();
    auto remaining = std::make_shared<std::atomic<long>>(-1);
    std::vector<SessionTask> tasks;
    tasks.push_back(
        {"a", &sa, std::make_unique<CancellingEvaluator>(token, remaining)});
    TrainingSession session(config, std::move(tasks));
    robust::RunControl control;
    control.cancel = token;
    session.set_control(control);
    session.train_epoch();
    session.train_epoch();
    const std::string before = temp_path("midcancel_before.ckpt");
    session.save_checkpoint(before);

    remaining->store(3);  // arm: cancel 3 evaluations into the next epoch
    const TrainStats s = session.train_epoch();
    EXPECT_EQ(s.stop_reason, robust::StopReason::kCancelled);
    EXPECT_GT(s.steps, 0u);  // the cancel really landed mid-collection
    EXPECT_EQ(session.epochs_completed(), 2);

    // The partial epoch's stream consumption was rewound: the stopped state
    // checkpoints byte-identically to the last completed epoch...
    const std::string after = temp_path("midcancel_after.ckpt");
    session.save_checkpoint(after);
    EXPECT_EQ(slurp(before), slurp(after));

    // ...so resuming replays the interrupted third epoch bit-exactly.
    TrainingSession resumed(config, make_tasks({&sa}, {"a"}));
    resumed.load_checkpoint(after);
    expect_same_stats(ref, resumed.train_epoch());
    std::remove(before.c_str());
    std::remove(after.c_str());
  }
}

TEST(TrainingSession, CheckpointFilesAreByteDeterministic) {
  const ChipletSystem sa = tiny_system_a();
  const std::string p1 = temp_path("det1.ckpt");
  const std::string p2 = temp_path("det2.ckpt");
  auto run = [&](const std::string& path) {
    TrainingSession session(small_config(19), make_tasks({&sa}, {"a"}));
    for (int e = 0; e < 2; ++e) session.train_epoch();
    session.save_checkpoint(path);
  };
  run(p1);
  run(p2);
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string ba(std::istreambuf_iterator<char>(a),
                       std::istreambuf_iterator<char>{});
  const std::string bb(std::istreambuf_iterator<char>(b),
                       std::istreambuf_iterator<char>{});
  EXPECT_EQ(ba, bb);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TrainingSession, CheckpointNamesActionStreamsByReplicaCount) {
  // One replica writes `task.0.action_rng`, the record existing one-replica
  // checkpoints carry, so they keep resuming; several replicas get one
  // record each.
  const ChipletSystem sa = tiny_system_a();
  const auto checkpoint_bytes = [&](std::size_t num_envs) {
    const std::string path = temp_path("names.ckpt");
    TrainingSession session(small_config(7, num_envs),
                            make_tasks({&sa}, {"a"}));
    session.train_epoch();
    session.save_checkpoint(path);
    const std::string bytes = slurp(path);
    std::remove(path.c_str());
    return bytes;
  };
  const std::string one = checkpoint_bytes(1);
  EXPECT_NE(one.find("task.0.action_rng"), std::string::npos);
  EXPECT_EQ(one.find("task.0.rng."), std::string::npos);
  const std::string three = checkpoint_bytes(3);
  EXPECT_EQ(three.find("task.0.action_rng"), std::string::npos);
  for (const char* name : {"task.0.rng.0", "task.0.rng.1", "task.0.rng.2"}) {
    EXPECT_NE(three.find(name), std::string::npos) << name;
  }
}

TEST(TrainingSession, NonCloneableEvaluatorTrainsOnOneReplica) {
  const ChipletSystem sa = tiny_system_a();
  const auto no_clone_task = [&] {
    std::vector<SessionTask> tasks;
    tasks.push_back({"a", &sa, std::make_unique<NoCloneEvaluator>()});
    return tasks;
  };
  // Replica 0 drives the task's own evaluator: every complete episode of
  // every epoch is one evaluation on it.
  TrainingSession session(small_config(5), no_clone_task());
  std::size_t scored = 0;
  for (int e = 0; e < 2; ++e) {
    const TrainStats stats = session.train_epoch();
    scored += stats.episodes - stats.dead_ends;
  }
  EXPECT_GT(scored, 0u);
  EXPECT_EQ(session.task(0).evaluator->num_evaluations(),
            static_cast<long>(scored));
  // Replicas beyond the first need clones.
  EXPECT_THROW(TrainingSession(small_config(5, 2), no_clone_task()),
               std::invalid_argument);
}

/// Every net parameter value, for "a rejected load changed nothing" checks.
std::vector<std::vector<float>> net_values(PpoCore& core) {
  std::vector<std::vector<float>> out;
  for (const nn::Parameter* p : core.net().parameters()) {
    out.emplace_back(p->value.data().begin(), p->value.data().end());
  }
  return out;
}

// A warm start that throws must leave the net exactly as it was, not with
// the layers read before the bad record: serve counts such a file as a
// warm-start miss and runs the job cold.
TEST(TrainingSession, RejectedWarmStartLeavesWeightsUntouched) {
  const ChipletSystem sa = tiny_system_a();
  const std::string path = temp_path("partial_warm.ckpt");
  TrainingSession donor(small_config(7), make_tasks({&sa}, {"a"}));
  donor.train_epoch();
  donor.save_checkpoint(path);
  const std::string blob = slurp(path);
  // Cut inside fc_shared's weights, after conv1-conv3 were read.
  const std::size_t record = blob.find("net.fc_shared.weight");
  ASSERT_NE(record, std::string::npos);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(blob.data(), static_cast<std::streamsize>(record + 200));
  }
  TrainingSession tuner(small_config(23), make_tasks({&sa}, {"a"}));
  const auto before = net_values(tuner.core());
  EXPECT_THROW(tuner.load_checkpoint(path, /*warm_start=*/true),
               std::runtime_error);
  EXPECT_EQ(net_values(tuner.core()), before) << "v2, truncated";

  // A net whose fc_shared differs in shape from the file's.
  donor.save_checkpoint(path);
  TrainingSessionConfig wider = small_config(23);
  wider.net.fc = 48;
  TrainingSession other(wider, make_tasks({&sa}, {"a"}));
  const auto other_before = net_values(other.core());
  EXPECT_THROW(other.load_checkpoint(path, /*warm_start=*/true),
               std::runtime_error);
  EXPECT_EQ(net_values(other.core()), other_before) << "v2, wrong shape";
  std::remove(path.c_str());
}

// minibatch and rnd.train_batch are loop strides in the update; zero would
// hang train_epoch, so construction rejects them, naming the field.
TEST(TrainingSession, RejectsZeroBatchSizes) {
  const ChipletSystem sa = tiny_system_a();
  const auto expect_rejected = [&](const TrainingSessionConfig& config,
                                   const std::string& field) {
    try {
      TrainingSession session(config, make_tasks({&sa}, {"a"}));
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  TrainingSessionConfig zero_minibatch = small_config(7);
  zero_minibatch.ppo.minibatch = 0;
  expect_rejected(zero_minibatch, "minibatch");
  TrainingSessionConfig zero_rnd_batch = small_config(7);
  zero_rnd_batch.ppo.use_rnd = true;
  zero_rnd_batch.ppo.rnd.train_batch = 0;
  expect_rejected(zero_rnd_batch, "train_batch");
  // Without RND the field is never used.
  zero_rnd_batch.ppo.use_rnd = false;
  EXPECT_NO_THROW(TrainingSession(zero_rnd_batch, make_tasks({&sa}, {"a"})));
}

TEST(TrainingSession, UpdateLanesNeverChangeCheckpointsOrStats) {
  // The default net at a batch of 64 and a partial one of 8, so every
  // layer's passes split over the lanes: a session on one lane, one with
  // its own three-lane pool (which also serves a three-replica collection),
  // and one lent a three-lane pool per update must save byte-identical
  // checkpoints and report identical statistics.
  const ChipletSystem sa = tiny_system_a();
  for (const std::size_t num_envs : {1u, 3u}) {
    for (const bool rnd : {false, true}) {
      SCOPED_TRACE("envs " + std::to_string(num_envs) +
                   (rnd ? " rnd" : " no rnd"));
      const auto run = [&](std::size_t threads, bool lend) {
        TrainingSessionConfig config;
        config.env.grid = 12;
        config.ppo.episodes_per_update = 24;
        config.ppo.update_epochs = 2;
        config.ppo.use_rnd = rnd;
        config.num_envs = num_envs;
        config.num_threads = threads;
        config.seed = 29;
        TrainingSession session(config, make_tasks({&sa}, {"a"}));
        parallel::ThreadPool lent(3);
        std::vector<TrainStats> stats;
        for (int e = 0; e < 2; ++e) {
          stats.push_back(session.train_epoch(lend ? &lent : nullptr));
        }
        return std::make_pair(saved_bytes(session, temp_path("lanes.ckpt")),
                              stats);
      };
      const auto [serial_bytes, serial_stats] = run(1, false);
      for (const auto& [threads, lend] :
           {std::pair<std::size_t, bool>{3, false}, {1, true}}) {
        SCOPED_TRACE(lend ? "lent lanes" : "own lanes");
        const auto [bytes, stats] = run(threads, lend);
        EXPECT_TRUE(bytes == serial_bytes);
        ASSERT_EQ(stats.size(), serial_stats.size());
        for (std::size_t e = 0; e < stats.size(); ++e) {
          EXPECT_EQ(stats[e].steps, serial_stats[e].steps);
          EXPECT_EQ(stats[e].policy_loss, serial_stats[e].policy_loss);
          EXPECT_EQ(stats[e].value_loss, serial_stats[e].value_loss);
          EXPECT_EQ(stats[e].entropy, serial_stats[e].entropy);
          EXPECT_EQ(stats[e].approx_kl, serial_stats[e].approx_kl);
          EXPECT_EQ(stats[e].grad_norm, serial_stats[e].grad_norm);
          EXPECT_EQ(stats[e].rnd_error, serial_stats[e].rnd_error);
        }
      }
      std::remove(temp_path("lanes.ckpt").c_str());
    }
  }
}

TEST(TrainingSession, ConcurrentSessionsEachUseTheirOwnPool) {
  // Each net holds its own executor, so two sessions with their own pools
  // may train at once in one process; each must save the checkpoint a
  // one-lane session saves.
  const ChipletSystem sa = tiny_system_a();
  const auto config = [](std::size_t threads) {
    TrainingSessionConfig c;
    c.env.grid = 12;
    c.ppo.episodes_per_update = 24;
    c.ppo.update_epochs = 2;
    c.num_threads = threads;
    c.seed = 31;
    return c;
  };
  TrainingSession serial(config(1), make_tasks({&sa}, {"a"}));
  for (int e = 0; e < 2; ++e) serial.train_epoch();
  const std::string want = saved_bytes(serial, temp_path("one_lane.ckpt"));

  TrainingSession first(config(2), make_tasks({&sa}, {"a"}));
  TrainingSession second(config(2), make_tasks({&sa}, {"a"}));
  std::thread other([&] {
    for (int e = 0; e < 2; ++e) second.train_epoch();
  });
  for (int e = 0; e < 2; ++e) first.train_epoch();
  other.join();
  EXPECT_TRUE(saved_bytes(first, temp_path("first.ckpt")) == want);
  EXPECT_TRUE(saved_bytes(second, temp_path("second.ckpt")) == want);
  for (const char* name : {"one_lane.ckpt", "first.ckpt", "second.ckpt"}) {
    std::remove(temp_path(name).c_str());
  }
}

TEST(TrainingSession, RejectsOutOfRangeThreadCount) {
  // A negative --threads cast to size_t must fail with a named field, not
  // as vector::reserve's length_error (or by spawning ~2^64 workers).
  const ChipletSystem sa = tiny_system_a();
  TrainingSessionConfig config = small_config(7, 2);
  config.num_threads = static_cast<std::size_t>(-1);
  try {
    TrainingSession session(config, make_tasks({&sa}, {"a"}));
    ADD_FAILURE() << "num_threads = SIZE_MAX was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rlplan::rl
