#include "codegen/runner.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace strober {
namespace codegen {

using util::ErrorCode;
using util::Status;
using util::errorf;

namespace {

/** How often running children are polled for exit and expiry. */
constexpr std::chrono::milliseconds kPollInterval{2};

/** The first @p limit bytes of @p path ("" if unreadable). */
std::string
readHead(const std::string &path, size_t limit = 4096)
{
    std::ifstream in(path);
    std::string out(limit, '\0');
    in.read(out.data(), static_cast<std::streamsize>(limit));
    out.resize(static_cast<size_t>(in.gcount()));
    return out;
}

/** Start @p cmd in a new process group; -errno on failure. */
pid_t
spawn(const Command &cmd)
{
    std::vector<char *> argv;
    for (const std::string &a : cmd.argv)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    auto name = [](std::string_view var) {
        return var.substr(0, var.find('='));
    };
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e) {
        bool overridden = std::any_of(
            cmd.env.begin(), cmd.env.end(),
            [&](const std::string &o) { return name(o) == name(*e); });
        if (!overridden)
            envp.push_back(*e);
    }
    for (const std::string &o : cmd.env)
        envp.push_back(const_cast<char *>(o.c_str()));
    envp.push_back(nullptr);

    posix_spawn_file_actions_t files;
    posix_spawn_file_actions_init(&files);
    posix_spawn_file_actions_addopen(&files, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&files, STDOUT_FILENO,
                                     cmd.logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&files, STDOUT_FILENO, STDERR_FILENO);

    // Own process group (so a timeout can kill the compiler driver and
    // everything it started), default signal dispositions and an empty
    // mask whatever the calling thread had.
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setpgroup(&attr, 0);
    sigset_t none, defaults;
    sigemptyset(&none);
    posix_spawnattr_setsigmask(&attr, &none);
    sigemptyset(&defaults);
    for (int sig : {SIGINT, SIGTERM, SIGPIPE, SIGCHLD, SIGHUP})
        sigaddset(&defaults, sig);
    posix_spawnattr_setsigdefault(&attr, &defaults);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP |
                                        POSIX_SPAWN_SETSIGMASK |
                                        POSIX_SPAWN_SETSIGDEF);

    pid_t pid = -1;
    int rc = ::posix_spawnp(&pid, argv[0], &files, &attr, argv.data(),
                            envp.data());
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&files);
    return rc == 0 ? pid : -rc;
}

/** Kill @p pid's process group and reap @p pid. */
void
killAndReap(pid_t pid)
{
    ::kill(-pid, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
}

struct Running
{
    size_t index;
    pid_t pid;
    std::chrono::steady_clock::time_point start;
};

} // namespace

Status
runCommands(const std::vector<Command> &commands, unsigned maxParallel,
            std::chrono::milliseconds timeout)
{
    maxParallel = std::max(1u, maxParallel);
    std::vector<Running> running;
    size_t next = 0;
    Status failure;

    while (failure.isOk() && (next < commands.size() || !running.empty())) {
        while (failure.isOk() && next < commands.size() &&
               running.size() < maxParallel) {
            const Command &cmd = commands[next];
            pid_t pid = spawn(cmd);
            if (pid < 0) {
                failure = errorf(ErrorCode::IoError, "cannot start '%s': %s",
                                 cmd.argv[0].c_str(), std::strerror(-pid));
                break;
            }
            running.push_back({next++, pid, std::chrono::steady_clock::now()});
        }

        auto it = running.begin();
        while (failure.isOk() && it != running.end()) {
            const Command &cmd = commands[it->index];
            int wstatus = 0;
            pid_t r = ::waitpid(it->pid, &wstatus, WNOHANG);
            int err = errno;
            if (r == 0) {
                if (std::chrono::steady_clock::now() - it->start < timeout) {
                    ++it;
                    continue;
                }
                killAndReap(it->pid);
                failure = errorf(ErrorCode::Timeout,
                                 "'%s' timed out after %lld ms:\n%s",
                                 cmd.argv[0].c_str(),
                                 static_cast<long long>(timeout.count()),
                                 readHead(cmd.logPath).c_str());
            } else if (r < 0 && err == EINTR) {
                continue;
            } else {
                if (r < 0)
                    failure = errorf(ErrorCode::IoError,
                                     "lost track of '%s': %s",
                                     cmd.argv[0].c_str(), std::strerror(err));
                else if (WIFSIGNALED(wstatus))
                    failure = errorf(ErrorCode::IoError,
                                     "'%s' killed by signal %d:\n%s",
                                     cmd.argv[0].c_str(), WTERMSIG(wstatus),
                                     readHead(cmd.logPath).c_str());
                else if (WEXITSTATUS(wstatus) != 0)
                    failure = errorf(ErrorCode::IoError,
                                     "'%s' failed (exit %d):\n%s",
                                     cmd.argv[0].c_str(),
                                     WEXITSTATUS(wstatus),
                                     readHead(cmd.logPath).c_str());
            }
            it = running.erase(it);
        }
        if (failure.isOk() && !running.empty())
            std::this_thread::sleep_for(kPollInterval);
    }

    for (const Running &r : running)
        killAndReap(r.pid);
    return failure;
}

} // namespace codegen
} // namespace strober
