// Dedicated round-trip and corruption coverage for the parameter checkpoint
// format (src/nn/serialize.{h,cpp}): exact-bit save/load identity across
// ranks and value extremes, plus the error paths a damaged checkpoint must
// hit — missing file, bad magic, mismatched parameter lists, and truncation
// at EVERY byte boundary of a small checkpoint, after which the destination
// must be unchanged.
#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "robust/robust.h"
#include "util/rng.h"

namespace rlplan::nn {
namespace {

namespace fs = std::filesystem;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rlplan_serialize_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// A small parameter set with assorted ranks; values cover negatives, exact
/// powers of two, subnormals, and extremes — everything must survive the
/// binary round trip bit-for-bit.
std::vector<Parameter> make_params() {
  std::vector<Parameter> params;
  params.emplace_back("bias", std::vector<std::size_t>{5});
  params.emplace_back("weight", std::vector<std::size_t>{3, 4});
  params.emplace_back("conv", std::vector<std::size_t>{2, 3, 3});
  const float specials[] = {0.0f,
                            -0.0f,
                            1.0f,
                            -1.5f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.14159265f};
  std::size_t k = 0;
  for (Parameter& p : params) {
    for (std::size_t i = 0; i < p.value.numel(); ++i, ++k) {
      p.value[i] = specials[k % 8] * (1.0f + 0.01f * static_cast<float>(k));
    }
  }
  return params;
}

std::vector<Parameter*> pointers(std::vector<Parameter>& params) {
  std::vector<Parameter*> out;
  for (Parameter& p : params) out.push_back(&p);
  return out;
}

TEST_F(SerializeTest, RoundTripIsBitExact) {
  auto saved = make_params();
  save_parameters(pointers(saved), path("ckpt.bin"));

  auto loaded = make_params();
  for (Parameter& p : loaded) {
    for (std::size_t i = 0; i < p.value.numel(); ++i) p.value[i] = -99.0f;
  }
  load_parameters(pointers(loaded), path("ckpt.bin"));

  for (std::size_t k = 0; k < saved.size(); ++k) {
    ASSERT_EQ(saved[k].value.numel(), loaded[k].value.numel());
    for (std::size_t i = 0; i < saved[k].value.numel(); ++i) {
      // Bit comparison (EXPECT_EQ would pass -0.0 == 0.0 and fail on NaN).
      std::uint32_t a = 0, b = 0;
      std::memcpy(&a, &saved[k].value[i], 4);
      std::memcpy(&b, &loaded[k].value[i], 4);
      EXPECT_EQ(a, b) << saved[k].name << "[" << i << "]";
    }
  }
}

TEST_F(SerializeTest, RoundTripThroughRealNetwork) {
  Rng rng(21);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng, "fc1"));
  seq.add(std::make_unique<Linear>(8, 2, rng, "fc2"));
  save_parameters(seq.parameters(), path("net.bin"));

  Rng rng2(1234);
  Sequential other;
  other.add(std::make_unique<Linear>(4, 8, rng2, "fc1"));
  other.add(std::make_unique<Linear>(8, 2, rng2, "fc2"));
  load_parameters(other.parameters(), path("net.bin"));
  const auto pa = seq.parameters();
  const auto pb = other.parameters();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    for (std::size_t i = 0; i < pa[k]->value.numel(); ++i) {
      EXPECT_EQ(pa[k]->value[i], pb[k]->value[i]);
    }
  }
}

TEST_F(SerializeTest, EmptyParameterListRoundTrips) {
  save_parameters({}, path("empty.bin"));
  EXPECT_NO_THROW(load_parameters({}, path("empty.bin")));
}

TEST_F(SerializeTest, MissingFileThrows) {
  auto params = make_params();
  EXPECT_THROW(load_parameters(pointers(params), path("does_not_exist.bin")),
               std::runtime_error);
}

TEST_F(SerializeTest, UnwritablePathThrows) {
  auto params = make_params();
  EXPECT_THROW(
      save_parameters(pointers(params), path("no/such/dir/ckpt.bin")),
      std::runtime_error);
}

TEST_F(SerializeTest, BadMagicThrows) {
  std::ofstream(path("bad.bin"), std::ios::binary) << "NOTACKPTxxxxxxxx";
  auto params = make_params();
  EXPECT_THROW(load_parameters(pointers(params), path("bad.bin")),
               std::runtime_error);
}

TEST_F(SerializeTest, ParameterCountMismatchThrows) {
  auto saved = make_params();
  save_parameters(pointers(saved), path("ckpt.bin"));
  auto fewer = make_params();
  fewer.pop_back();
  EXPECT_THROW(load_parameters(pointers(fewer), path("ckpt.bin")),
               std::runtime_error);
}

// Truncation sweep: a checkpoint cut at ANY byte boundary must raise, never
// silently load garbage. This walks every prefix length of a small file
// (magic, counts, name, shape, and data regions all get hit).
TEST_F(SerializeTest, TruncationAtEveryByteThrows) {
  std::vector<Parameter> small;
  small.emplace_back("w", std::vector<std::size_t>{2, 2});
  small.emplace_back("b", std::vector<std::size_t>{2});
  for (Parameter& p : small) {
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      p.value[i] = static_cast<float>(i) + 0.5f;
    }
  }
  save_parameters(pointers(small), path("full.bin"));
  std::ifstream is(path("full.bin"), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  ASSERT_GT(bytes.size(), 40u);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::ofstream(path("cut.bin"), std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    auto dest = small;  // identical layout to the saved checkpoint
    EXPECT_THROW(load_parameters(pointers(dest), path("cut.bin")),
                 std::runtime_error)
        << "no error when truncated to " << cut << "/" << bytes.size()
        << " bytes";
  }
  // Sanity: the untruncated file still loads.
  auto dest = small;
  EXPECT_NO_THROW(load_parameters(pointers(dest), path("full.bin")));
}

/// Bit patterns of every parameter value, for "a rejected load changed
/// nothing" checks (so NaN payloads and signed zeros count).
std::vector<std::vector<std::uint32_t>> snapshot(
    const std::vector<Parameter>& params) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const Parameter& p : params) {
    std::vector<std::uint32_t> bits(p.value.numel());
    std::memcpy(bits.data(), p.value.data().data(),
                bits.size() * sizeof(float));
    out.push_back(std::move(bits));
  }
  return out;
}

// A load that throws must leave every destination parameter as it was, not
// hold the parameters read before the bad one: a wrong shape on the second
// parameter, and truncation at every byte (the tail cuts land inside the
// last tensor, after the others were read).
TEST_F(SerializeTest, RejectedLoadLeavesParametersUntouched) {
  auto saved = make_params();
  save_parameters(pointers(saved), path("ckpt.bin"));

  std::vector<Parameter> reshaped;
  reshaped.emplace_back("bias", std::vector<std::size_t>{5});
  reshaped.emplace_back("weight", std::vector<std::size_t>{4, 3});
  reshaped.emplace_back("conv", std::vector<std::size_t>{2, 3, 3});
  for (Parameter& p : reshaped) p.value.fill(7.0f);
  const auto before = snapshot(reshaped);
  EXPECT_THROW(load_parameters(pointers(reshaped), path("ckpt.bin")),
               std::runtime_error);
  EXPECT_EQ(snapshot(reshaped), before) << "wrong second shape";

  std::ifstream is(path("ckpt.bin"), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();
  auto dest = make_params();
  for (Parameter& p : dest) p.value.fill(-2.0f);
  const auto initial = snapshot(dest);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::ofstream(path("cut.bin"), std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    EXPECT_THROW(load_parameters(pointers(dest), path("cut.bin")),
                 std::runtime_error);
    ASSERT_EQ(snapshot(dest), initial)
        << "truncated to " << cut << "/" << bytes.size() << " bytes";
  }
  load_parameters(pointers(dest), path("ckpt.bin"));
  EXPECT_EQ(snapshot(dest), snapshot(saved));
}

// A corrupt name length or rank must throw runtime_error before allocating,
// not bad_alloc (a 2^40-byte name) or a giant shape vector.
TEST_F(SerializeTest, CorruptV1HeaderSizesThrowRuntimeError) {
  const auto write_v1 = [&](std::uint64_t name_len, const std::string& name,
                            std::uint64_t rank) {
    std::ofstream os(path("corrupt.bin"), std::ios::binary);
    os.write(kCheckpointMagicV1, kCheckpointMagicLen);
    const std::uint64_t count = 1;
    os.write(reinterpret_cast<const char*>(&count), sizeof(count));
    os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    os.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  };
  std::vector<Parameter> dest;
  dest.emplace_back("w", std::vector<std::size_t>{2});
  write_v1(std::uint64_t{1} << 40, "", 1);
  EXPECT_THROW(load_parameters(pointers(dest), path("corrupt.bin")),
               std::runtime_error);
  write_v1(1, "w", std::uint64_t{1} << 40);
  EXPECT_THROW(load_parameters(pointers(dest), path("corrupt.bin")),
               std::runtime_error);
}

// Readers split errors by cause: a fault of the file itself is a
// robust::CorruptArtifactError (a caller scanning several files may
// quarantine it); a well-formed file that does not fit the destination is a
// plain std::runtime_error.
TEST_F(SerializeTest, StateReaderTellsCorruptFileFromMismatch) {
  std::ostringstream os;
  {
    StateWriter w(os);
    w.u64("count", 3);
    w.tensor("t", Tensor(std::vector<std::size_t>{2, 2}));
    w.finish();
  }
  const std::string blob = os.str();
  // "ok", "corrupt" or "mismatch".
  const auto read_as = [](const std::string& bytes, const std::string& name,
                          const std::vector<std::size_t>& shape) {
    try {
      std::istringstream is(bytes);
      StateReader r(is);
      r.u64(name);
      Tensor t(shape);
      r.tensor("t", t);
      r.finish();
      return std::string("ok");
    } catch (const robust::CorruptArtifactError&) {
      return std::string("corrupt");
    } catch (const std::runtime_error&) {
      return std::string("mismatch");
    }
  };
  EXPECT_EQ(read_as(blob, "count", {2, 2}), "ok");
  EXPECT_EQ(read_as(blob, "count", {4}), "mismatch");
  EXPECT_EQ(read_as(blob, "other", {2, 2}), "corrupt");
  EXPECT_EQ(read_as("RLPNNv9\n" + blob.substr(kCheckpointMagicLen), "count",
                    {2, 2}),
            "corrupt");
  // Every prefix, the missing "end" record included.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_EQ(read_as(blob.substr(0, cut), "count", {2, 2}), "corrupt")
        << "truncated to " << cut << "/" << blob.size() << " bytes";
  }
}

}  // namespace
}  // namespace rlplan::nn
