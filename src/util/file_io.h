/**
 * @file
 * Crash-safe file replacement shared by every on-disk format (snapshot
 * files, farm manifests, stream entries, result-cache entries): a
 * reader sees either the previous file or the complete new one, never
 * a torn write.
 */

#ifndef STROBER_UTIL_FILE_IO_H
#define STROBER_UTIL_FILE_IO_H

#include <string>

#include "util/status.h"

namespace strober {
namespace util {

/**
 * Write @p bytes to a temp file next to @p path, then rename it over
 * @p path. The temp name is unique per writer (pid + per-process
 * serial), so concurrent writers of one path never clobber each other
 * mid-write and the last rename wins. Both the write and the close are
 * checked; on any failure the temp file is removed and an IoError is
 * returned.
 */
Status writeFileAtomic(const std::string &path, const std::string &bytes);

} // namespace util
} // namespace strober

#endif // STROBER_UTIL_FILE_IO_H
