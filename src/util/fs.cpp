#include "util/fs.h"

#include <cstdio>

#include "robust/fault.h"
#include "robust/robust.h"

namespace rlplan::util {

void atomic_write_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  robust::retry_with_backoff(
      [&] {
        if (robust::fault_point("artifact_write")) {
          throw robust::TransientIoError(path +
                                         ": injected artifact_write fault");
        }
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (f == nullptr) {
          throw robust::TransientIoError(tmp + ": cannot open for writing");
        }
        const std::size_t written =
            contents.empty() ? 0
                             : std::fwrite(contents.data(), 1,
                                           contents.size(), f);
        const bool flushed = std::fflush(f) == 0;
        std::fclose(f);
        if (written != contents.size() || !flushed) {
          std::remove(tmp.c_str());
          throw robust::TransientIoError(tmp + ": write failed");
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
          std::remove(tmp.c_str());
          throw robust::TransientIoError(path + ": rename failed");
        }
      });
}

}  // namespace rlplan::util
