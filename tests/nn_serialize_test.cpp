// Round-trip and corruption coverage for the checkpoint record stream
// (src/nn/serialize.{h,cpp}) through parameter_tensors: exact-bit
// save/load identity across ranks and value extremes, a real network, the
// check pass that stores nothing, and the error paths a damaged or
// mismatched stream must hit — bad magic, mismatched parameter lists,
// oversized header sizes, and truncation at EVERY byte of a small stream —
// each split by cause (corrupt file vs. mismatched destination).
// All-or-nothing loads of whole checkpoints are the session's job (its
// check pass runs before its assigning pass) and are tested in
// session_test.
#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "robust/robust.h"
#include "util/rng.h"

namespace rlplan::nn {
namespace {

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

std::string save(const std::vector<Parameter*>& params) {
  StateIo io;
  parameter_tensors(io, "p", params);
  io.finish();
  return io.bytes();
}

void load(const std::string& bytes, const std::vector<Parameter*>& params,
          bool assign = true) {
  StateIo io(bytes, assign);
  parameter_tensors(io, "p", params);
  io.finish();
}

/// "ok", "corrupt" (a fault of the file) or "mismatch" (a well-formed file
/// that does not fit the destination).
std::string load_as(const std::string& bytes,
                    const std::vector<Parameter*>& params) {
  try {
    load(bytes, params);
    return "ok";
  } catch (const robust::CorruptArtifactError&) {
    return "corrupt";
  } catch (const std::runtime_error&) {
    return "mismatch";
  }
}

/// Bit patterns of every parameter value (so NaN payloads and signed zeros
/// count).
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

TEST(StateIo, RoundTripIsBitExact) {
  auto saved = make_params();
  const std::string bytes = save(pointers(saved));

  auto loaded = make_params();
  for (Parameter& p : loaded) p.value.fill(-99.0f);
  load(bytes, pointers(loaded));
  EXPECT_EQ(snapshot(loaded), snapshot(saved));
}

TEST(StateIo, RoundTripThroughRealNetwork) {
  Rng rng(21);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng, "fc1"));
  seq.add(std::make_unique<Linear>(8, 2, rng, "fc2"));
  const std::string bytes = save(seq.parameters());

  Rng rng2(1234);
  Sequential other;
  other.add(std::make_unique<Linear>(4, 8, rng2, "fc1"));
  other.add(std::make_unique<Linear>(8, 2, rng2, "fc2"));
  load(bytes, other.parameters());
  const auto pa = seq.parameters();
  const auto pb = other.parameters();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    for (std::size_t i = 0; i < pa[k]->value.numel(); ++i) {
      EXPECT_EQ(pa[k]->value[i], pb[k]->value[i]);
    }
  }
}

TEST(StateIo, EmptyParameterListRoundTrips) {
  const std::string bytes = save({});
  EXPECT_NO_THROW(load(bytes, {}));
}

// A check pass validates the whole stream and stores nothing.
TEST(StateIo, CheckPassStoresNothing) {
  auto saved = make_params();
  const std::string bytes = save(pointers(saved));
  auto dest = make_params();
  for (Parameter& p : dest) p.value.fill(7.0f);
  const auto before = snapshot(dest);
  load(bytes, pointers(dest), /*assign=*/false);
  EXPECT_EQ(snapshot(dest), before);
  // ...and still rejects what the assigning pass would.
  auto fewer = make_params();
  fewer.pop_back();
  EXPECT_THROW(load(bytes, pointers(fewer), /*assign=*/false),
               std::runtime_error);
}

TEST(StateIo, BadMagicIsCorrupt) {
  auto params = make_params();
  EXPECT_THROW(load("NOTACKPTxxxxxxxx", pointers(params)),
               robust::CorruptArtifactError);
  // The retired weight-only format is not read.
  const std::string bytes = save(pointers(params));
  EXPECT_THROW(load("RLPNNv1\n" + bytes.substr(kCheckpointMagicLen),
                    pointers(params)),
               robust::CorruptArtifactError);
}

TEST(StateIo, ParameterCountAndShapeMismatchesAreNotCorruption) {
  auto saved = make_params();
  const std::string bytes = save(pointers(saved));
  auto fewer = make_params();
  fewer.pop_back();
  EXPECT_EQ(load_as(bytes, pointers(fewer)), "mismatch");

  std::vector<Parameter> reshaped;
  reshaped.emplace_back("bias", std::vector<std::size_t>{5});
  reshaped.emplace_back("weight", std::vector<std::size_t>{4, 3});
  reshaped.emplace_back("conv", std::vector<std::size_t>{2, 3, 3});
  EXPECT_EQ(load_as(bytes, pointers(reshaped)), "mismatch");

  // A renamed parameter reads as a record the file does not hold next.
  auto renamed = make_params();
  renamed[1].name = "weights";
  EXPECT_EQ(load_as(bytes, pointers(renamed)), "corrupt");
}

// Truncation sweep: a stream cut at ANY byte must raise CorruptArtifactError,
// never silently load garbage — magic, counts, names, shapes, data and the
// missing "end" record all get hit.
TEST(StateIo, TruncationAtEveryByteIsCorrupt) {
  std::vector<Parameter> small;
  small.emplace_back("w", std::vector<std::size_t>{2, 2});
  small.emplace_back("b", std::vector<std::size_t>{2});
  for (Parameter& p : small) {
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      p.value[i] = static_cast<float>(i) + 0.5f;
    }
  }
  const std::string bytes = save(pointers(small));
  ASSERT_GT(bytes.size(), 40u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto dest = small;
    EXPECT_EQ(load_as(bytes.substr(0, cut), pointers(dest)), "corrupt")
        << "truncated to " << cut << "/" << bytes.size() << " bytes";
  }
  auto dest = small;
  EXPECT_EQ(load_as(bytes, pointers(dest)), "ok");
}

// A corrupt record-name length or tensor rank throws CorruptArtifactError
// before allocating, not bad_alloc (a 2^40-byte name) or a giant shape.
TEST(StateIo, CorruptHeaderSizesAreCorrupt) {
  std::vector<Parameter> dest;
  dest.emplace_back("w", std::vector<std::size_t>{2});
  const std::string bytes = save(pointers(dest));
  const auto patched = [&](std::size_t offset, std::uint64_t value) {
    std::string bad = bytes;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    return bad;
  };
  // The first record's name length sits right after the magic.
  EXPECT_EQ(load_as(patched(kCheckpointMagicLen, std::uint64_t{1} << 40),
                    pointers(dest)),
            "corrupt");
  // The tensor's rank follows its name ("p.w") and kind byte.
  const std::size_t tensor_record = bytes.find("p.w") - sizeof(std::uint64_t);
  const std::size_t rank_at = tensor_record + sizeof(std::uint64_t) + 3 + 1;
  ASSERT_EQ(bytes[rank_at], 1);
  EXPECT_EQ(load_as(patched(rank_at, std::uint64_t{1} << 40), pointers(dest)),
            "corrupt");
}

// Every accessor splits errors by cause: a fault of the file itself is a
// robust::CorruptArtifactError (a caller scanning several files may
// quarantine it); a well-formed file that does not fit the destination is a
// plain std::runtime_error.
TEST(StateIo, TellsCorruptFileFromMismatch) {
  std::string blob;
  {
    StateIo io;
    std::uint64_t count = 3;
    io.u64("count", count);
    Tensor t(std::vector<std::size_t>{2, 2});
    io.tensor("t", t);
    std::vector<std::uint64_t> v{1, 2, 3};
    io.u64vec("v", v);
    io.expect("label", std::string("abc"), "label differs");
    io.finish();
    blob = io.bytes();
  }
  const auto read_as = [](const std::string& bytes, const std::string& name,
                          const std::vector<std::size_t>& shape,
                          std::size_t length, const std::string& label) {
    try {
      StateIo io(bytes, /*assign=*/true);
      std::uint64_t count = 0;
      io.u64(name, count);
      Tensor t(shape);
      io.tensor("t", t);
      std::vector<std::uint64_t> v(length);
      io.u64vec("v", v);
      io.expect("label", label, "label differs");
      io.finish();
      return std::string("ok");
    } catch (const robust::CorruptArtifactError&) {
      return std::string("corrupt");
    } catch (const std::runtime_error&) {
      return std::string("mismatch");
    }
  };
  EXPECT_EQ(read_as(blob, "count", {2, 2}, 3, "abc"), "ok");
  EXPECT_EQ(read_as(blob, "count", {4}, 3, "abc"), "mismatch");
  EXPECT_EQ(read_as(blob, "count", {2, 2}, 4, "abc"), "mismatch");
  EXPECT_EQ(read_as(blob, "count", {2, 2}, 3, "abd"), "mismatch");
  EXPECT_EQ(read_as(blob, "other", {2, 2}, 3, "abc"), "corrupt");
  EXPECT_EQ(read_as("RLPNNv9\n" + blob.substr(kCheckpointMagicLen), "count",
                    {2, 2}, 3, "abc"),
            "corrupt");
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_EQ(read_as(blob.substr(0, cut), "count", {2, 2}, 3, "abc"),
              "corrupt")
        << "truncated to " << cut << "/" << blob.size() << " bytes";
  }
}

// An RNG state is always four words: any other count is a corrupt file.
TEST(StateIo, RngRoundTripsAndRejectsOtherWordCounts) {
  Rng src(5);
  src.next();
  std::string blob;
  {
    StateIo io;
    io.rng("r", src);
    io.finish();
    blob = io.bytes();
  }
  Rng dst(99);
  {
    StateIo check(blob, /*assign=*/false);
    check.rng("r", dst);
    check.finish();
  }
  EXPECT_NE(dst.state(), src.state());
  StateIo io(blob, /*assign=*/true);
  io.rng("r", dst);
  io.finish();
  EXPECT_EQ(dst.state(), src.state());

  std::string three;
  {
    StateIo w;
    std::vector<std::uint64_t> v{1, 2, 3};
    w.u64vec("r", v);
    w.finish();
    three = w.bytes();
  }
  StateIo r(three, /*assign=*/true);
  EXPECT_THROW(r.rng("r", dst), robust::CorruptArtifactError);
}

}  // namespace
}  // namespace rlplan::nn
