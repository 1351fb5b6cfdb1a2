// Binary checkpointing: v1 weight-only files and the v2 typed record stream.
//
// v1 ("RLPNNv1\n", save_parameters/load_parameters): uint64 parameter count,
// then per parameter uint64 name length + bytes, uint64 rank, uint64 dims...,
// float32 data. Loading verifies names and shapes against the destination
// parameter list, so a checkpoint can only be restored into an
// identically-built network. This remains the format behind
// PolicyValueNet::save/load.
//
// v2 ("RLPNNv2\n", StateWriter/StateReader): a self-describing stream of
// named, typed records used by full-state training checkpoints
// (rl/session.h). Each record is
//
//   uint64 name length | name bytes | uint8 kind | payload
//
// with kinds u64, f64 (raw IEEE-754 bits — floating-point state round-trips
// bit-exactly), f32, string, tensor (uint64 rank, dims..., float32 data) and
// u64vec (uint64 count, values; RNG state snapshots). Readers consume
// records in writer order and validate every name, kind, and tensor shape,
// so any reordering, truncation, or corruption fails loudly with an error
// naming the offending record. finish() writes/expects a terminal "end"
// record, which turns silent tail truncation into an error as well.
//
// Errors split by cause, so a caller scanning several files can tell a bad
// file from a wrong caller: a fault of the file itself (bad magic,
// truncation, a record of the wrong name or kind, a missing end, an
// oversized count or rank) throws robust::CorruptArtifactError; a file that
// is well formed but does not fit the destination (parameter count, name in
// v1, tensor shape) throws a plain std::runtime_error. Both are
// std::runtime_errors.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace rlplan::nn {

inline constexpr char kCheckpointMagicV1[] = "RLPNNv1\n";
inline constexpr char kCheckpointMagicV2[] = "RLPNNv2\n";
inline constexpr std::size_t kCheckpointMagicLen = 8;

void save_parameters(const std::vector<Parameter*>& params,
                     const std::string& path);

/// Throws on I/O failure, a corrupt file or any name/shape mismatch (split
/// by cause as above), and then leaves every parameter as it was.
void load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path);

// --- v2 typed record stream -------------------------------------------------

class StateWriter {
 public:
  /// Writes the v2 magic immediately. `os` must outlive the writer.
  explicit StateWriter(std::ostream& os);

  void u64(const std::string& name, std::uint64_t v);
  void f64(const std::string& name, double v);
  void f32(const std::string& name, float v);
  void str(const std::string& name, const std::string& v);
  void tensor(const std::string& name, const Tensor& t);
  void u64vec(const std::string& name, std::span<const std::uint64_t> v);

  /// Terminal "end" record + flush; throws std::runtime_error if any write
  /// failed. Must be the last call.
  void finish();

 private:
  void header(const std::string& name, std::uint8_t kind);
  std::ostream* os_;
};

class StateReader {
 public:
  /// Verifies the v2 magic immediately (throws robust::CorruptArtifactError
  /// on mismatch). `is` must outlive the reader.
  explicit StateReader(std::istream& is);

  /// Each accessor consumes the next record and throws
  /// robust::CorruptArtifactError when its name or kind does not match, a
  /// count is oversized, or the stream ends early.
  std::uint64_t u64(const std::string& name);
  double f64(const std::string& name);
  float f32(const std::string& name);
  std::string str(const std::string& name);
  /// Shape of `out` must equal the stored shape (a plain
  /// std::runtime_error otherwise).
  void tensor(const std::string& name, Tensor& out);
  std::vector<std::uint64_t> u64vec(const std::string& name);

  /// Consumes the terminal "end" record; throws if absent (truncated tail).
  void finish();

 private:
  void header(const std::string& name, std::uint8_t kind);
  std::istream* is_;
};

/// Writes "<prefix>.count" then one tensor record "<prefix>.<param name>" per
/// parameter. The reader-side twin validates count, names, and shapes
/// against the destination list (same contract as the v1 loader) and assigns
/// nothing unless the whole block reads.
void write_parameter_tensors(StateWriter& w, const std::string& prefix,
                             const std::vector<Parameter*>& params);
void read_parameter_tensors(StateReader& r, const std::string& prefix,
                            const std::vector<Parameter*>& params);

/// Reads the leading magic of a checkpoint file and returns its version
/// (1 or 2). Throws std::runtime_error when the file cannot be opened and
/// robust::CorruptArtifactError on a short file or unknown magic.
int checkpoint_file_version(const std::string& path);

}  // namespace rlplan::nn
