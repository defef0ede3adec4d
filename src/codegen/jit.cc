#include "codegen/jit.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include <dirent.h>
#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include "codegen/codegen.h"
#include "codegen/runner.h"
#include "util/env.h"
#include "util/logging.h"

#ifndef STROBER_HOST_CXX
#define STROBER_HOST_CXX ""
#endif

namespace strober {
namespace codegen {

using util::ErrorCode;
using util::Result;
using util::Status;
using util::errorf;

namespace {

/** Optimization level of every JIT compile. -O1 beat -O2 end to end
 *  on boom2w: half the compiler CPU, and no slower steady state on
 *  either compiled backend there. On rocket's plain backend the -O1
 *  medians are a few percent lower, inside the run-to-run spread
 *  (EXPERIMENTS.md, "JIT compile"). */
constexpr const char *kOptLevel = "-O1";

bool
isExecutableFile(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
           ::access(path.c_str(), X_OK) == 0;
}

/** Can @p compiler be started? An absolute or relative path must name
 *  an executable file; a bare name must resolve on $PATH, the same
 *  lookup the runner's posix_spawnp does. */
bool
compilerUsable(const std::string &compiler)
{
    if (compiler.empty())
        return false;
    if (compiler.find('/') != std::string::npos)
        return isExecutableFile(compiler);
    const char *env = std::getenv("PATH");
    std::string path = env != nullptr ? env : "/usr/bin:/bin";
    size_t begin = 0;
    for (;;) {
        size_t end = path.find(':', begin);
        std::string dir = path.substr(begin, end - begin);
        if (isExecutableFile((dir.empty() ? "." : dir) + "/" + compiler))
            return true;
        if (end == std::string::npos)
            return false;
        begin = end + 1;
    }
}

/** Best-effort removal of the JIT scratch directory and every file in
 *  it, whichever step left them. */
void
removeScratchDir(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

} // namespace

CompiledSim::~CompiledSim()
{
    if (handle != nullptr)
        ::dlclose(handle);
}

std::string
hostCompiler()
{
    if (util::envFlag("STROBER_DISABLE_JIT"))
        return "";
    const char *env = std::getenv("STROBER_CXX");
    if (env != nullptr && env[0] != '\0')
        return compilerUsable(env) ? env : "";
    const char *candidates[] = {STROBER_HOST_CXX, "c++", "g++", "clang++"};
    for (const char *c : candidates) {
        if (compilerUsable(c))
            return c;
    }
    return "";
}

Result<std::unique_ptr<CompiledSim>>
compileSimulator(const std::vector<std::string> &tus, const std::string &tag,
                 std::chrono::milliseconds timeout)
{
    std::string cxx = hostCompiler();
    if (cxx.empty())
        return Status(ErrorCode::Unsupported,
                      "no host C++ compiler available (set $STROBER_CXX, "
                      "or unset $STROBER_DISABLE_JIT)");

    const char *tmp = std::getenv("TMPDIR");
    std::string dirTemplate =
        std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp") +
        "/strober-jit-XXXXXX";
    std::vector<char> dirBuf(dirTemplate.begin(), dirTemplate.end());
    dirBuf.push_back('\0');
    if (::mkdtemp(dirBuf.data()) == nullptr)
        return errorf(ErrorCode::IoError,
                      "cannot create JIT scratch directory under '%s'",
                      dirTemplate.c_str());
    std::string dir = dirBuf.data();
    std::string so = dir + "/" + tag + ".so";

    // Every TU compiles to an object, concurrently; one step then links
    // them. The compiler's own temp files go to the scratch dir too, so
    // a killed compiler leaves none behind.
    const std::string tmpdirVar = "TMPDIR=" + dir;
    std::vector<Command> compiles;
    std::vector<std::string> objects;
    for (size_t i = 0; i < tus.size(); ++i) {
        std::string stem = dir + "/" + tag + "_" + std::to_string(i);
        std::string src = stem + ".cc";
        std::ofstream out(src, std::ios::trunc);
        out << tus[i];
        if (!out.flush()) {
            removeScratchDir(dir);
            return errorf(ErrorCode::IoError, "cannot write '%s'",
                          src.c_str());
        }
        objects.push_back(stem + ".o");
        compiles.push_back({{cxx, "-std=c++17", kOptLevel, "-fPIC", "-c",
                             "-o", objects.back(), src},
                            stem + ".log",
                            {tmpdirVar}});
    }
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    Status st = runCommands(compiles, cores, timeout);
    if (st.isOk()) {
        Command link{{cxx, "-shared", "-o", so},
                     dir + "/" + tag + "_link.log",
                     {tmpdirVar}};
        link.argv.insert(link.argv.end(), objects.begin(), objects.end());
        st = runCommands({link}, 1, timeout);
    }
    if (!st.isOk()) {
        removeScratchDir(dir);
        return Status(st.code(), "JIT compile failed: " + st.message());
    }

    void *handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    // The object stays mapped after dlopen; the files can go now.
    removeScratchDir(dir);
    if (handle == nullptr)
        return errorf(ErrorCode::IoError, "dlopen failed: %s", ::dlerror());

    std::unique_ptr<CompiledSim> sim(new CompiledSim());
    sim->handle = handle;
    sim->evalFn = reinterpret_cast<CompiledSim::Fn>(
        ::dlsym(handle, kEvalSymbol));
    sim->commitFn = reinterpret_cast<CompiledSim::Fn>(
        ::dlsym(handle, kCommitSymbol));
    const auto *numSlots = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumSlotsSymbol));
    const auto *numMems = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumMemsSymbol));
    if (sim->evalFn == nullptr || sim->commitFn == nullptr ||
        numSlots == nullptr || numMems == nullptr)
        return Status(ErrorCode::Corrupt,
                      "compiled module is missing entry points");
    sim->slots = *numSlots;
    sim->mems = *numMems;

    // Partitioned modules additionally stamp a chunk count and export
    // one eval function per chunk; a plain module has neither.
    const auto *numChunks = reinterpret_cast<const uint64_t *>(
        ::dlsym(handle, kNumChunksSymbol));
    if (numChunks != nullptr) {
        sim->chunkFns.reserve(*numChunks);
        for (uint64_t c = 0; c < *numChunks; ++c) {
            std::string sym = kChunkSymbolPrefix + std::to_string(c);
            auto fn = reinterpret_cast<CompiledSim::ChunkFn>(
                ::dlsym(handle, sym.c_str()));
            if (fn == nullptr)
                return errorf(ErrorCode::Corrupt,
                              "partitioned module is missing '%s'",
                              sym.c_str());
            sim->chunkFns.push_back(fn);
        }
    }
    return sim;
}

} // namespace codegen
} // namespace strober
