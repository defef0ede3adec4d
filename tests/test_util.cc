/**
 * @file
 * Unit tests for bit utilities, logging helpers, environment
 * variable and CLI count parsing, and the atomic file writer.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/env.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace strober {
namespace {

TEST(Bits, BitMask)
{
    EXPECT_EQ(bitMask(0), 0u);
    EXPECT_EQ(bitMask(1), 1u);
    EXPECT_EQ(bitMask(8), 0xffu);
    EXPECT_EQ(bitMask(32), 0xffffffffu);
    EXPECT_EQ(bitMask(63), 0x7fffffffffffffffull);
    EXPECT_EQ(bitMask(64), ~0ull);
}

TEST(Bits, Truncate)
{
    EXPECT_EQ(truncate(0x1ff, 8), 0xffu);
    EXPECT_EQ(truncate(0x100, 8), 0u);
    EXPECT_EQ(truncate(~0ull, 64), ~0ull);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 8), 0xffffffffffffff80ull);
    EXPECT_EQ(signExtend(0x7f, 8), 0x7full);
    EXPECT_EQ(signExtend(1, 1), ~0ull);
    EXPECT_EQ(signExtend(0, 1), 0u);
}

class SignExtendSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SignExtendSweep, RoundTripsThroughTruncate)
{
    unsigned w = GetParam();
    for (uint64_t v : {uint64_t(0), uint64_t(1), bitMask(w) >> 1,
                       bitMask(w)}) {
        uint64_t ext = signExtend(v, w);
        EXPECT_EQ(truncate(ext, w), v) << "width " << w << " value " << v;
        // The extension bits must replicate the sign bit.
        bool neg = bit(v, w - 1);
        if (w < 64) {
            EXPECT_EQ(ext >> w, neg ? bitMask(64 - w) : 0u)
                << "width " << w << " value " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SignExtendSweep,
                         ::testing::Values(1u, 2u, 5u, 8u, 16u, 31u, 32u,
                                           33u, 63u, 64u));

TEST(Bits, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xdeadbeef, 31, 28), 0xdu);
    EXPECT_EQ(bit(0b1010, 1), 1u);
    EXPECT_EQ(bit(0b1010, 2), 0u);
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffff, 7, 4, 0), 0xff0fu);
}

TEST(Bits, Clog2)
{
    EXPECT_EQ(clog2(0), 0u);
    EXPECT_EQ(clog2(1), 0u);
    EXPECT_EQ(clog2(2), 1u);
    EXPECT_EQ(clog2(3), 2u);
    EXPECT_EQ(clog2(1024), 10u);
    EXPECT_EQ(clog2(1025), 11u);
}

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(4097));
}

TEST(Logging, StrFmt)
{
    EXPECT_EQ(strfmt("a %d b %s", 42, "x"), "a 42 b x");
    EXPECT_EQ(strfmt("%08x", 0xbeef), "0000beef");
}

TEST(Logging, QuietSuppression)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    warn("this must not appear");
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

TEST(Env, ParseULongAcceptsPlainDecimal)
{
    EXPECT_EQ(util::parseULong("0"), 0ul);
    EXPECT_EQ(util::parseULong("42"), 42ul);
    EXPECT_EQ(util::parseULong("18446744073709551615"),
              18446744073709551615ul);
}

TEST(Env, ParseULongRejectsSignedAndGarbage)
{
    // strtoul would happily wrap "-1" to ULONG_MAX; the strict parser
    // must treat every one of these like an unset variable.
    EXPECT_FALSE(util::parseULong("").has_value());
    EXPECT_FALSE(util::parseULong("-1").has_value());
    EXPECT_FALSE(util::parseULong("+3").has_value());
    EXPECT_FALSE(util::parseULong(" 7").has_value());
    EXPECT_FALSE(util::parseULong("7 ").has_value());
    EXPECT_FALSE(util::parseULong("0x10").has_value());
    EXPECT_FALSE(util::parseULong("12abc").has_value());
    EXPECT_FALSE(util::parseULong("abc").has_value());
    // One digit past ULONG_MAX: overflow, not silent wrap.
    EXPECT_FALSE(util::parseULong("18446744073709551616").has_value());
}

TEST(Env, EnvULongFallbackAndPresence)
{
    bool present = true;
    ::unsetenv("STROBER_TEST_ENV_ULONG");
    EXPECT_EQ(util::envULong("STROBER_TEST_ENV_ULONG", 9, &present), 9ul);
    EXPECT_FALSE(present);

    ::setenv("STROBER_TEST_ENV_ULONG", "17", 1);
    EXPECT_EQ(util::envULong("STROBER_TEST_ENV_ULONG", 9, &present), 17ul);
    EXPECT_TRUE(present);

    // Garbage behaves exactly like unset: fallback, not-present.
    ::setenv("STROBER_TEST_ENV_ULONG", "-4", 1);
    EXPECT_EQ(util::envULong("STROBER_TEST_ENV_ULONG", 9, &present), 9ul);
    EXPECT_FALSE(present);
    ::unsetenv("STROBER_TEST_ENV_ULONG");
}

TEST(Env, ParseCountEnforcesBounds)
{
    EXPECT_EQ(util::parseCount("0"), 0ul);
    EXPECT_EQ(util::parseCount("7", 1, 7), 7ul);
    EXPECT_FALSE(util::parseCount("8", 1, 7).has_value());
    EXPECT_FALSE(util::parseCount("0", 1, 7).has_value());
    EXPECT_FALSE(util::parseCount("-1", 0, 7).has_value());
    EXPECT_FALSE(util::parseCount("abc").has_value());
    EXPECT_FALSE(util::parseCount("").has_value());
}

// The worker-count flags of strober run (--jobs/-j), strober-farm run
// (-j/--jobs, --workers) and strober-serve (--runners, --workers) all go
// through parseWorkerCountArg: a value outside 1..256 is a usage error
// (exit 2), never a wrapped or huge thread/process count.
TEST(Env, WorkerCountFlagOutOfRangeIsUsageError)
{
    EXPECT_EQ(util::parseWorkerCountArg("-j", "1"), 1u);
    EXPECT_EQ(util::parseWorkerCountArg("-j", "256"), 256u);
    for (const char *bad : {"-1", "abc", "0", "100000", "257", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(util::parseWorkerCountArg("-j", bad),
                    ::testing::ExitedWithCode(2), "-j: '.*' is not an "
                                                  "integer in 1\\.\\.256");
    }
    EXPECT_EXIT(util::parseCountArg("--keep", "4x"),
                ::testing::ExitedWithCode(2), "--keep");
}

TEST(FileIo, WriteFileAtomicReplacesAndLeavesNoTemp)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("strober_file_io_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = (dir / "f.bin").string();
    auto read = [&] {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    ASSERT_TRUE(util::writeFileAtomic(path, "first").isOk());
    EXPECT_EQ(read(), "first");
    ASSERT_TRUE(util::writeFileAtomic(path, "second").isOk());
    EXPECT_EQ(read(), "second");
    // A missing parent directory fails with IoError and leaves nothing.
    util::Status st =
        util::writeFileAtomic((dir / "missing" / "g.bin").string(), "x");
    EXPECT_EQ(st.code(), util::ErrorCode::IoError);
    // Only f.bin is left: no temp residue from either call.
    EXPECT_EQ(std::distance(fs::recursive_directory_iterator(dir),
                            fs::recursive_directory_iterator()),
              1);
    fs::remove_all(dir);
}

TEST(Env, EnvFlag)
{
    ::unsetenv("STROBER_TEST_ENV_FLAG");
    EXPECT_FALSE(util::envFlag("STROBER_TEST_ENV_FLAG"));
    ::setenv("STROBER_TEST_ENV_FLAG", "", 1);
    EXPECT_FALSE(util::envFlag("STROBER_TEST_ENV_FLAG"));
    ::setenv("STROBER_TEST_ENV_FLAG", "0", 1);
    EXPECT_FALSE(util::envFlag("STROBER_TEST_ENV_FLAG"));
    ::setenv("STROBER_TEST_ENV_FLAG", "1", 1);
    EXPECT_TRUE(util::envFlag("STROBER_TEST_ENV_FLAG"));
    ::setenv("STROBER_TEST_ENV_FLAG", "yes", 1);
    EXPECT_TRUE(util::envFlag("STROBER_TEST_ENV_FLAG"));
    ::unsetenv("STROBER_TEST_ENV_FLAG");
}

TEST(Env, ParseDurationMs)
{
    EXPECT_EQ(util::parseDurationMs("250ms"), 250ull);
    EXPECT_EQ(util::parseDurationMs("3s"), 3000ull);
    EXPECT_EQ(util::parseDurationMs("3"), 3000ull); // bare means seconds
    EXPECT_EQ(util::parseDurationMs("2m"), 120000ull);
    EXPECT_EQ(util::parseDurationMs("1h"), 3600000ull);
    EXPECT_EQ(util::parseDurationMs("0ms"), 0ull);

    EXPECT_FALSE(util::parseDurationMs("").has_value());
    EXPECT_FALSE(util::parseDurationMs("ms").has_value());
    EXPECT_FALSE(util::parseDurationMs("-5s").has_value());
    EXPECT_FALSE(util::parseDurationMs("5 s").has_value());
    EXPECT_FALSE(util::parseDurationMs("5d").has_value());
    // 2^64 ms-worth of hours overflows the multiply.
    EXPECT_FALSE(util::parseDurationMs("18446744073709551615h").has_value());
}

TEST(Env, Clocks)
{
    // Coarse sanity only: unix time is after 2020, monotonic advances.
    EXPECT_GT(util::nowUnixMs(), 1577836800000ull);
    uint64_t a = util::monotonicMs();
    uint64_t b = util::monotonicMs();
    EXPECT_GE(b, a);
}

TEST(Env, ProcessRssBytesSelf)
{
    // Our own RSS must be readable and nonzero; a dead pid reads as 0.
    EXPECT_GT(util::processRssBytes(::getpid()), 0ull);
    EXPECT_EQ(util::processRssBytes(-1), 0ull);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "panic: boom 7");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "fatal: bad config");
}

} // namespace
} // namespace strober
