// Binary checkpoints: the RLPNNv2 typed record stream.
//
// A file is the magic "RLPNNv2\n" followed by named, typed records, each
//
//   uint64 name length | name bytes | uint8 kind | payload
//
// with kinds u64, f64 (raw IEEE-754 bits — floating-point state round-trips
// bit-exactly), f32, string, tensor (uint64 rank, dims..., float32 data) and
// u64vec (uint64 count, values; RNG state snapshots). A terminal "end"
// record turns silent tail truncation into an error.
//
// Each component names its records, in order, in one function over a
// StateIo (Adam::state_io, RndBonus::state_io, PpoCore::state_io and the
// session's own, rl/session.h). Saving runs it to append every record.
// Reading runs the same function to consume the records in that order,
// validating every name, kind, tensor shape and expected value, and comes
// in two passes: an assigning pass stores each record into its destination
// as it reads, and a check pass validates the same records but stores
// nothing. TrainingSession::load_checkpoint runs a check pass over the whole
// file before the assigning pass, so a load that throws changes nothing.
//
// Errors split by cause, so a caller scanning several files can tell a bad
// file from a wrong caller: a fault of the file itself (bad magic,
// truncation, a record of the wrong name or kind, a missing end, an
// oversized name, rank, string or count) throws
// robust::CorruptArtifactError; a file that is well formed but does not fit
// the destination (a tensor shape, a vector length, a value expect() checks)
// throws a plain std::runtime_error. Both are std::runtime_errors.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layers.h"
#include "util/rng.h"

namespace rlplan::nn {

inline constexpr char kCheckpointMagicV2[] = "RLPNNv2\n";
inline constexpr std::size_t kCheckpointMagicLen = 8;

/// One pass of a component's checkpoint schema: saving, or one of the two
/// reading passes (see the file comment). Every accessor takes the record's
/// destination by reference: saving writes it, an assigning pass overwrites
/// it, a check pass leaves it alone.
class StateIo {
 public:
  /// Saving: records append to bytes(), which starts with the magic.
  StateIo();
  /// Reading `bytes`, which must outlive this object. Verifies the magic at
  /// once. With `assign` false this is a check pass that stores nothing.
  StateIo(std::string_view bytes, bool assign);

  /// True only on an assigning reading pass.
  bool assigning() const { return assign_; }

  /// An integral member. Returns the record's value on every pass (saving:
  /// `v`), so a schema can branch on it.
  template <std::integral T>
  std::uint64_t u64(const std::string& name, T& v) {
    const std::uint64_t stored = u64_word(name, static_cast<std::uint64_t>(v));
    if (assign_) v = static_cast<T>(stored);
    return stored;
  }
  void f64(const std::string& name, double& v);
  void f32(const std::string& name, float& v);
  /// The stored shape must equal `t`'s (a plain std::runtime_error
  /// otherwise). A check pass skips the payload.
  void tensor(const std::string& name, Tensor& t);
  /// The stored count must equal `v.size()` (a plain std::runtime_error
  /// otherwise).
  void u64vec(const std::string& name, std::vector<std::uint64_t>& v);
  /// A generator's four raw state words (any other count is corrupt).
  void rng(const std::string& name, Rng& r);

  /// A value the destination fixes rather than stores. Saving writes
  /// `value`; reading throws std::runtime_error(message) when the stored
  /// value differs and `enforce` is set.
  void expect(const std::string& name, std::uint64_t value,
              const std::string& message, bool enforce = true);
  void expect(const std::string& name, float value,
              const std::string& message, bool enforce = true);
  void expect(const std::string& name, const std::string& value,
              const std::string& message, bool enforce = true);

  /// The terminal "end" record. Must be the last call when saving; reading
  /// throws when it is absent (a truncated tail).
  void finish();

  /// The saved stream.
  const std::string& bytes() const { return out_; }

 private:
  std::uint64_t u64_word(const std::string& name, std::uint64_t v);
  void header(const std::string& name, std::uint8_t kind);
  /// A record whose payload is `size` bytes at `p`: saving appends them,
  /// reading overwrites them from the stream (on either pass).
  void fixed(const std::string& name, std::uint8_t kind, void* p,
             std::size_t size);
  /// A u64vec record read into `v`, or only skipped on a check pass. A count
  /// other than v.size() is corrupt when `fixed_count` is set and a mismatch
  /// otherwise.
  void words(const std::string& name, std::span<std::uint64_t> v,
             bool fixed_count);
  void put(const void* p, std::size_t size);
  /// Consumes `size` bytes into `p`, or skips them when `p` is null.
  void take(void* p, std::size_t size, const std::string& name);

  bool saving_ = true;
  bool assign_ = false;
  std::string out_;
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// A parameter list as "<prefix>.count" (expected to equal params.size())
/// then one tensor record "<prefix>.<param name>" per parameter.
void parameter_tensors(StateIo& io, const std::string& prefix,
                       const std::vector<Parameter*>& params);

}  // namespace rlplan::nn
