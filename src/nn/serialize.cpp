#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "robust/robust.h"

namespace rlplan::nn {

namespace {

// v2 record kinds. Values are part of the on-disk format; never renumber.
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

void write_u64_raw(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64_raw(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw robust::CorruptArtifactError("checkpoint: truncated stream");
  return v;
}

void write_u64(std::ofstream& os, std::uint64_t v) { write_u64_raw(os, v); }

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

void save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_parameters: cannot open " + path);
  os.write(kCheckpointMagicV1, kCheckpointMagicLen);
  write_u64(os, params.size());
  for (const Parameter* p : params) {
    write_u64(os, p->name.size());
    os.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(os, p->value.rank());
    for (std::size_t d : p->value.shape()) write_u64(os, d);
    os.write(reinterpret_cast<const char*>(p->value.data().data()),
             static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("save_parameters: write failed: " + path);
}

void load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_parameters: cannot open " + path);
  char magic[kCheckpointMagicLen];
  is.read(magic, sizeof(magic));
  if (!is || std::string(magic, sizeof(magic)) != kCheckpointMagicV1) {
    throw robust::CorruptArtifactError("load_parameters: bad magic in " +
                                       path);
  }
  const std::uint64_t count = read_u64_raw(is);
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch");
  }
  std::vector<Tensor> staged;
  for (Parameter* p : params) {
    const std::uint64_t name_len = read_u64_raw(is);
    // Cap before allocating, as StateReader does: corruption must throw
    // CorruptArtifactError, not bad_alloc.
    if (name_len > 4096) {
      throw robust::CorruptArtifactError(
          "load_parameters: corrupt name length in " + path);
    }
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!is) {
      throw robust::CorruptArtifactError("load_parameters: truncated file " +
                                         path);
    }
    if (name != p->name) {
      throw std::runtime_error("load_parameters: expected parameter '" +
                               p->name + "', found '" + name + "'");
    }
    const std::uint64_t rank = read_u64_raw(is);
    if (rank > 16) {
      throw robust::CorruptArtifactError("load_parameters: corrupt rank for '" +
                                         name + "'");
    }
    std::vector<std::size_t> shape(rank);
    for (auto& d : shape) d = read_u64_raw(is);
    if (shape != p->value.shape()) {
      throw std::runtime_error("load_parameters: shape mismatch for '" +
                               name + "'");
    }
    staged.emplace_back(shape);
    is.read(reinterpret_cast<char*>(staged.back().data().data()),
            static_cast<std::streamsize>(p->value.numel() * sizeof(float)));
  }
  if (!is) {
    throw robust::CorruptArtifactError("load_parameters: truncated file " +
                                       path);
  }
  // Staged, so a rejected load leaves every parameter as it was.
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = staged[i];
}

// --- StateWriter -------------------------------------------------------------

StateWriter::StateWriter(std::ostream& os) : os_(&os) {
  os_->write(kCheckpointMagicV2, kCheckpointMagicLen);
}

void StateWriter::header(const std::string& name, std::uint8_t kind) {
  write_u64_raw(*os_, name.size());
  os_->write(name.data(), static_cast<std::streamsize>(name.size()));
  os_->write(reinterpret_cast<const char*>(&kind), 1);
}

void StateWriter::u64(const std::string& name, std::uint64_t v) {
  header(name, kU64);
  write_u64_raw(*os_, v);
}

void StateWriter::f64(const std::string& name, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  header(name, kF64);
  write_u64_raw(*os_, bits);
}

void StateWriter::f32(const std::string& name, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  header(name, kF32);
  os_->write(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

void StateWriter::str(const std::string& name, const std::string& v) {
  header(name, kString);
  write_u64_raw(*os_, v.size());
  os_->write(v.data(), static_cast<std::streamsize>(v.size()));
}

void StateWriter::tensor(const std::string& name, const Tensor& t) {
  header(name, kTensor);
  write_u64_raw(*os_, t.rank());
  for (std::size_t d : t.shape()) write_u64_raw(*os_, d);
  os_->write(reinterpret_cast<const char*>(t.data().data()),
             static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

void StateWriter::u64vec(const std::string& name,
                         std::span<const std::uint64_t> v) {
  header(name, kU64Vec);
  write_u64_raw(*os_, v.size());
  for (std::uint64_t x : v) write_u64_raw(*os_, x);
}

void StateWriter::finish() {
  header(kEndRecordName, kEnd);
  os_->flush();
  if (!*os_) throw std::runtime_error("checkpoint: write failed");
}

// --- StateReader -------------------------------------------------------------

StateReader::StateReader(std::istream& is) : is_(&is) {
  char magic[kCheckpointMagicLen];
  is_->read(magic, sizeof(magic));
  if (!*is_ || std::string(magic, sizeof(magic)) != kCheckpointMagicV2) {
    throw robust::CorruptArtifactError("checkpoint: bad v2 magic");
  }
}

void StateReader::header(const std::string& name, std::uint8_t kind) {
  const std::uint64_t name_len = read_u64_raw(*is_);
  // A wildly large length means corruption; reject before allocating.
  if (name_len > 4096) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt record name length while reading '" + name +
        "'");
  }
  std::string found(name_len, '\0');
  is_->read(found.data(), static_cast<std::streamsize>(name_len));
  std::uint8_t found_kind = 0;
  is_->read(reinterpret_cast<char*>(&found_kind), 1);
  if (!*is_) {
    throw robust::CorruptArtifactError("checkpoint: truncated while reading '" +
                                       name + "'");
  }
  if (found != name || found_kind != kind) {
    throw robust::CorruptArtifactError(
        "checkpoint: expected record '" + name + "' (" + kind_name(kind) +
        "), found '" + found + "' (" + kind_name(found_kind) + ")");
  }
}

std::uint64_t StateReader::u64(const std::string& name) {
  header(name, kU64);
  return read_u64_raw(*is_);
}

double StateReader::f64(const std::string& name) {
  header(name, kF64);
  const std::uint64_t bits = read_u64_raw(*is_);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

float StateReader::f32(const std::string& name) {
  header(name, kF32);
  std::uint32_t bits = 0;
  is_->read(reinterpret_cast<char*>(&bits), sizeof(bits));
  if (!*is_) throw robust::CorruptArtifactError("checkpoint: truncated stream");
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string StateReader::str(const std::string& name) {
  header(name, kString);
  const std::uint64_t len = read_u64_raw(*is_);
  if (len > (1ULL << 20)) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt string length in '" + name + "'");
  }
  std::string v(len, '\0');
  is_->read(v.data(), static_cast<std::streamsize>(len));
  if (!*is_) throw robust::CorruptArtifactError("checkpoint: truncated stream");
  return v;
}

void StateReader::tensor(const std::string& name, Tensor& out) {
  header(name, kTensor);
  const std::uint64_t rank = read_u64_raw(*is_);
  // Cap before allocating, like the string/u64vec readers: a corrupt rank
  // must throw, not attempt a giant allocation.
  if (rank > 16) {
    throw robust::CorruptArtifactError("checkpoint: corrupt tensor rank in '" +
                                       name + "'");
  }
  std::vector<std::size_t> shape(rank);
  for (auto& d : shape) d = read_u64_raw(*is_);
  if (shape != out.shape()) {
    throw std::runtime_error("checkpoint: shape mismatch for tensor '" +
                             name + "'");
  }
  is_->read(reinterpret_cast<char*>(out.data().data()),
            static_cast<std::streamsize>(out.numel() * sizeof(float)));
  if (!*is_) {
    throw robust::CorruptArtifactError("checkpoint: truncated tensor '" +
                                       name + "'");
  }
}

std::vector<std::uint64_t> StateReader::u64vec(const std::string& name) {
  header(name, kU64Vec);
  const std::uint64_t count = read_u64_raw(*is_);
  if (count > (1ULL << 20)) {
    throw robust::CorruptArtifactError(
        "checkpoint: corrupt u64vec length in '" + name + "'");
  }
  std::vector<std::uint64_t> v(count);
  for (auto& x : v) x = read_u64_raw(*is_);
  return v;
}

void StateReader::finish() { header(kEndRecordName, kEnd); }

// --- Parameter-list helpers --------------------------------------------------

void write_parameter_tensors(StateWriter& w, const std::string& prefix,
                             const std::vector<Parameter*>& params) {
  w.u64(prefix + ".count", params.size());
  for (const Parameter* p : params) w.tensor(prefix + "." + p->name, p->value);
}

void read_parameter_tensors(StateReader& r, const std::string& prefix,
                            const std::vector<Parameter*>& params) {
  const std::uint64_t count = r.u64(prefix + ".count");
  if (count != params.size()) {
    throw std::runtime_error("checkpoint: parameter count mismatch for '" +
                             prefix + "'");
  }
  std::vector<Tensor> staged;
  for (Parameter* p : params) {
    staged.emplace_back(p->value.shape());
    r.tensor(prefix + "." + p->name, staged.back());
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = staged[i];
}

int checkpoint_file_version(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  char magic[kCheckpointMagicLen];
  is.read(magic, sizeof(magic));
  if (!is) {
    throw robust::CorruptArtifactError("checkpoint: truncated file " + path);
  }
  const std::string m(magic, sizeof(magic));
  if (m == kCheckpointMagicV1) return 1;
  if (m == kCheckpointMagicV2) return 2;
  throw robust::CorruptArtifactError("checkpoint: unrecognized magic in " +
                                     path);
}

}  // namespace rlplan::nn
