#include "util/file_io.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace strober {
namespace util {

Status
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    namespace fs = std::filesystem;
    static std::atomic<uint64_t> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(serial.fetch_add(1));
    auto fail = [&](Status st) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return st;
    };
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
        return fail(errorf(ErrorCode::IoError, "cannot create '%s'",
                           tmp.c_str()));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out)
        return fail(errorf(ErrorCode::IoError,
                           "writing '%s' failed (disk full?)", tmp.c_str()));
    out.close();
    if (!out)
        return fail(errorf(ErrorCode::IoError,
                           "closing '%s' failed (disk full?)", tmp.c_str()));
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        return fail(errorf(ErrorCode::IoError, "renaming '%s' -> '%s': %s",
                           tmp.c_str(), path.c_str(),
                           ec.message().c_str()));
    return Status::ok();
}

} // namespace util
} // namespace strober
