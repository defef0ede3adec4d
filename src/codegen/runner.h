/**
 * @file
 * Bounded child-process runner: the one place the JIT (codegen/jit.h)
 * starts the host compiler. Each command runs as a direct child
 * (posix_spawnp, no shell) in a process group of its own, with stdin
 * from /dev/null, stdout + stderr captured to its log file, and the
 * caller's environment plus the command's own overrides. At most
 * a fixed number run at once; each is bounded by a wall-clock timeout,
 * on expiry of which its whole process group is SIGKILLed. Every child
 * is reaped before runCommands() returns, whatever the outcome.
 *
 * Failures are values (util::Status), never process exits, so the
 * simulator can degrade to the interpreter on a hung or failing
 * compiler exactly as it does when there is no compiler at all.
 */

#ifndef STROBER_CODEGEN_RUNNER_H
#define STROBER_CODEGEN_RUNNER_H

#include <chrono>
#include <string>
#include <vector>

#include "util/status.h"

namespace strober {
namespace codegen {

/** One child process to run. */
struct Command
{
    /** argv[0] is looked up on $PATH unless it contains a '/'. */
    std::vector<std::string> argv;
    /** Receives the child's stdout and stderr (truncated first). */
    std::string logPath;
    /** "NAME=value" entries that override the inherited environment. */
    std::vector<std::string> env = {};
};

/**
 * Run @p commands, at most @p maxParallel at once, starting them in
 * order. Each child gets @p timeout of wall clock from its own start.
 * Ok when every command exits 0. Otherwise no further command starts,
 * the running ones are killed, and the first failure observed comes
 * back naming the program, its exit code or signal and the head of its
 * log: Timeout for an expired child, IoError for anything else.
 */
util::Status runCommands(const std::vector<Command> &commands,
                         unsigned maxParallel,
                         std::chrono::milliseconds timeout);

} // namespace codegen
} // namespace strober

#endif // STROBER_CODEGEN_RUNNER_H
