#include "nn/serialize.h"

#include <array>
#include <cstring>
#include <stdexcept>

#include "robust/robust.h"

namespace rlplan::nn {

namespace {

// Record kinds. Values are part of the on-disk format; never renumber.
enum Kind : std::uint8_t {
  kU64 = 1,
  kF64 = 2,
  kF32 = 3,
  kString = 4,
  kTensor = 5,
  kU64Vec = 6,
  kEnd = 7,
};

constexpr char kEndRecordName[] = "end";

// Caps checked before allocating or skipping: a corrupt size must throw
// CorruptArtifactError, not bad_alloc.
constexpr std::uint64_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxRank = 16;
constexpr std::uint64_t kMaxLength = std::uint64_t{1} << 20;

const char* kind_name(std::uint8_t kind) {
  switch (kind) {
    case kU64: return "u64";
    case kF64: return "f64";
    case kF32: return "f32";
    case kString: return "string";
    case kTensor: return "tensor";
    case kU64Vec: return "u64vec";
    case kEnd: return "end";
    default: return "unknown";
  }
}

}  // namespace

StateIo::StateIo() { put(kCheckpointMagicV2, kCheckpointMagicLen); }

StateIo::StateIo(std::string_view bytes, bool assign)
    : saving_(false), assign_(assign), in_(bytes) {
  if (in_.substr(0, kCheckpointMagicLen) !=
      std::string_view(kCheckpointMagicV2, kCheckpointMagicLen)) {
    throw robust::CorruptArtifactError("checkpoint: bad v2 magic");
  }
  pos_ = kCheckpointMagicLen;
}

void StateIo::put(const void* p, std::size_t size) {
  out_.append(static_cast<const char*>(p), size);
}

void StateIo::take(void* p, std::size_t size, const std::string& name) {
  if (size > in_.size() - pos_) {
    throw robust::CorruptArtifactError(
        "checkpoint: truncated while reading '" + name + "'");
  }
  if (p != nullptr) std::memcpy(p, in_.data() + pos_, size);
  pos_ += size;
}

void StateIo::header(const std::string& name, std::uint8_t kind) {
  std::uint64_t len = name.size();
  if (saving_) {
    put(&len, sizeof(len));
    put(name.data(), name.size());
    put(&kind, 1);
    return;
  }
  take(&len, sizeof(len), name);
  if (len > kMaxNameLen) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt record name length while reading '" + name +
        "'");
  }
  const std::size_t at = pos_;
  take(nullptr, len, name);
  const std::string_view found = in_.substr(at, len);
  std::uint8_t found_kind = 0;
  take(&found_kind, 1, name);
  if (found != name || found_kind != kind) {
    throw robust::CorruptArtifactError(
        "checkpoint: expected record '" + name + "' (" + kind_name(kind) +
        "), found '" + std::string(found) + "' (" + kind_name(found_kind) +
        ")");
  }
}

void StateIo::fixed(const std::string& name, std::uint8_t kind, void* p,
                    std::size_t size) {
  header(name, kind);
  if (saving_) {
    put(p, size);
  } else {
    take(p, size, name);
  }
}

std::uint64_t StateIo::u64_word(const std::string& name, std::uint64_t v) {
  fixed(name, kU64, &v, sizeof(v));
  return v;
}

void StateIo::f64(const std::string& name, double& v) {
  double stored = v;
  fixed(name, kF64, &stored, sizeof(stored));
  if (assign_) v = stored;
}

void StateIo::f32(const std::string& name, float& v) {
  float stored = v;
  fixed(name, kF32, &stored, sizeof(stored));
  if (assign_) v = stored;
}

void StateIo::tensor(const std::string& name, Tensor& t) {
  header(name, kTensor);
  const std::size_t payload = t.numel() * sizeof(float);
  if (saving_) {
    const std::uint64_t rank = t.rank();
    put(&rank, sizeof(rank));
    for (const std::uint64_t d : t.shape()) put(&d, sizeof(d));
    put(t.data().data(), payload);
    return;
  }
  std::uint64_t rank = 0;
  take(&rank, sizeof(rank), name);
  if (rank > kMaxRank) {
    throw robust::CorruptArtifactError("checkpoint: corrupt tensor rank in '" +
                                       name + "'");
  }
  std::vector<std::size_t> shape(rank);
  for (std::size_t& d : shape) {
    std::uint64_t dim = 0;
    take(&dim, sizeof(dim), name);
    d = dim;
  }
  if (shape != t.shape()) {
    throw std::runtime_error("checkpoint: shape mismatch for tensor '" +
                             name + "'");
  }
  take(assign_ ? t.data().data() : nullptr, payload, name);
}

void StateIo::words(const std::string& name, std::span<std::uint64_t> v,
                    bool fixed_count) {
  header(name, kU64Vec);
  std::uint64_t count = v.size();
  if (saving_) {
    put(&count, sizeof(count));
    put(v.data(), v.size_bytes());
    return;
  }
  take(&count, sizeof(count), name);
  if (count > kMaxLength || (fixed_count && count != v.size())) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt u64vec length in '" + name + "'");
  }
  if (count != v.size()) {
    throw std::runtime_error("checkpoint: length mismatch for '" + name +
                             "'");
  }
  take(assign_ ? v.data() : nullptr, v.size_bytes(), name);
}

void StateIo::u64vec(const std::string& name, std::vector<std::uint64_t>& v) {
  words(name, v, /*fixed_count=*/false);
}

void StateIo::rng(const std::string& name, Rng& r) {
  std::array<std::uint64_t, 4> state = r.state();
  words(name, state, /*fixed_count=*/true);
  if (assign_) r.set_state(state);
}

void StateIo::expect(const std::string& name, std::uint64_t value,
                     const std::string& message, bool enforce) {
  std::uint64_t stored = value;
  fixed(name, kU64, &stored, sizeof(stored));
  if (enforce && stored != value) throw std::runtime_error(message);
}

void StateIo::expect(const std::string& name, float value,
                     const std::string& message, bool enforce) {
  float stored = value;
  fixed(name, kF32, &stored, sizeof(stored));
  if (enforce && stored != value) throw std::runtime_error(message);
}

void StateIo::expect(const std::string& name, const std::string& value,
                     const std::string& message, bool enforce) {
  header(name, kString);
  std::uint64_t len = value.size();
  if (saving_) {
    put(&len, sizeof(len));
    put(value.data(), value.size());
    return;
  }
  take(&len, sizeof(len), name);
  if (len > kMaxLength) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt string length in '" + name + "'");
  }
  const std::size_t at = pos_;
  take(nullptr, len, name);
  if (enforce && in_.substr(at, len) != value) {
    throw std::runtime_error(message);
  }
}

void StateIo::finish() { header(kEndRecordName, kEnd); }

void parameter_tensors(StateIo& io, const std::string& prefix,
                       const std::vector<Parameter*>& params) {
  io.expect(prefix + ".count", std::uint64_t{params.size()},
            "checkpoint: parameter count mismatch for '" + prefix + "'");
  for (Parameter* p : params) io.tensor(prefix + "." + p->name, p->value);
}

}  // namespace rlplan::nn
