// Crash-safe artifact output.
#pragma once

#include <string>

namespace rlplan::util {

/// Atomically replaces `path` with `contents`: writes `<path>.tmp`, flushes,
/// then renames over the target, so readers never observe a truncated file —
/// a crash mid-write leaves the old artifact (or nothing) in place. Every
/// JSON/JSONL artifact writer (util::write_json_file, obs exports, bench
/// reports) and TrainingSession::save_checkpoint route through here.
///
/// Transient failures — including the "artifact_write" fault-injection site —
/// are retried internally with bounded exponential backoff; once attempts are
/// exhausted the last robust::TransientIoError propagates.
void atomic_write_file(const std::string& path, const std::string& contents);

}  // namespace rlplan::util
