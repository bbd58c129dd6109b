/**
 * Validation tests for the centralized SW_* environment knob parser.
 * parseEnvConfig() takes a getenv-shaped lookup, so the process
 * environment never has to be mutated here — which is also why these
 * tests can assert the full validation surface even though the
 * process-wide envConfig() snapshot is parse-once.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env_config.hh"
#include "mem/address_map.hh"

namespace strand
{
namespace
{

EnvConfig
parse(const std::map<std::string, std::string> &env)
{
    return parseEnvConfig([&env](const char *name) -> const char * {
        auto it = env.find(name);
        return it == env.end() ? nullptr : it->second.c_str();
    });
}

TEST(EnvConfig, UnsetKnobsLeaveDefaults)
{
    EnvConfig config = parse({});
    EXPECT_FALSE(config.ops.has_value());
    EXPECT_FALSE(config.threads.has_value());
    EXPECT_FALSE(config.crashPoints.has_value());
    EXPECT_FALSE(config.jobs.has_value());
    EXPECT_FALSE(config.tornWords.has_value());
    EXPECT_FALSE(config.crashSeed.has_value());
    EXPECT_FALSE(config.fuzzTrials.has_value());
    EXPECT_FALSE(config.fuzzSeed.has_value());
    EXPECT_FALSE(config.pmosan.has_value());
    EXPECT_FALSE(config.crashFork.has_value());
    EXPECT_FALSE(config.mediaPoison.has_value());
    EXPECT_FALSE(config.mediaFlips.has_value());
    EXPECT_FALSE(config.mediaDrop.has_value());
    EXPECT_FALSE(config.mediaSeed.has_value());
    EXPECT_FALSE(config.logLevel.has_value());
    EXPECT_EQ(config.outDir, "bench/out");
}

TEST(EnvConfig, LogLevelParsesAndRangeChecks)
{
    EXPECT_EQ(parse({{"SW_LOG", "0"}}).logLevel, 0u);
    EXPECT_EQ(parse({{"SW_LOG", "2"}}).logLevel, 2u);
    EXPECT_THROW(parse({{"SW_LOG", "3"}}), std::invalid_argument);
    EXPECT_THROW(parse({{"SW_LOG", "loud"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, MediaKnobsParseAndRangeCheck)
{
    EnvConfig config = parse({{"SW_MEDIA_POISON", "2"},
                              {"SW_MEDIA_FLIPS", "0"},
                              {"SW_MEDIA_DROP", "8"},
                              {"SW_MEDIA_SEED", "0xed1a"}});
    EXPECT_EQ(config.mediaPoison, 2u);
    EXPECT_EQ(config.mediaFlips, 0u); // 0 is valid: class disabled
    EXPECT_EQ(config.mediaDrop, 8u);  // ring depth is the ceiling
    EXPECT_EQ(config.mediaSeed, 0xed1au);
    // Counts beyond the admission-ring depth are meaningless.
    EXPECT_THROW(parse({{"SW_MEDIA_POISON", "9"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_MEDIA_DROP", "-1"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_MEDIA_SEED", "0xzz"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, PmosanParsesAsBool)
{
    EXPECT_EQ(parse({{"SW_PMOSAN", "1"}}).pmosan, true);
    EXPECT_EQ(parse({{"SW_PMOSAN", "0"}}).pmosan, false);
    EXPECT_FALSE(parse({}).pmosan.has_value());
    // Only 0/1 are accepted; anything else dies loudly.
    EXPECT_THROW(parse({{"SW_PMOSAN", "2"}}), std::invalid_argument);
    EXPECT_THROW(parse({{"SW_PMOSAN", "yes"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, CrashForkParsesAsBool)
{
    EXPECT_EQ(parse({{"SW_CRASH_FORK", "1"}}).crashFork, true);
    EXPECT_EQ(parse({{"SW_CRASH_FORK", "0"}}).crashFork, false);
    EXPECT_FALSE(parse({}).crashFork.has_value());
    // Only 0/1 are accepted; anything else dies loudly.
    EXPECT_THROW(parse({{"SW_CRASH_FORK", "2"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_CRASH_FORK", "fork"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, FuzzForkBranchParsesAsCount)
{
    EXPECT_EQ(parse({{"SW_FUZZ_FORK_BRANCH", "3"}}).fuzzForkBranch,
              3u);
    EXPECT_EQ(parse({{"SW_FUZZ_FORK_BRANCH", "0"}}).fuzzForkBranch,
              0u); // 0 is valid: branching off
    EXPECT_FALSE(parse({}).fuzzForkBranch.has_value());
    EXPECT_THROW(parse({{"SW_FUZZ_FORK_BRANCH", "-1"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_FUZZ_FORK_BRANCH", "branchy"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, KnobRegistryCoversEveryKnob)
{
    // The --help table is generated from envKnobs(); a knob missing
    // from the registry would be parsed but undocumented. Keep the
    // registry in sync with the parser by name.
    std::vector<std::string> expected = {
        "SW_OPS",         "SW_THREADS",   "SW_CRASH_POINTS",
        "SW_JOBS",        "SW_TORN_WORDS", "SW_CRASH_SEED",
        "SW_FUZZ_TRIALS", "SW_FUZZ_SEED", "SW_PMOSAN",
        "SW_CRASH_FORK",  "SW_FUZZ_FORK_BRANCH",
        "SW_MEDIA_POISON", "SW_MEDIA_FLIPS", "SW_MEDIA_DROP",
        "SW_MEDIA_SEED",  "SW_LOG",       "SW_OUT_DIR",
    };
    std::vector<std::string> actual;
    for (const EnvKnob &knob : envKnobs())
        actual.push_back(knob.name);
    EXPECT_EQ(actual, expected);

    std::string table = envKnobTable();
    for (const std::string &name : expected)
        EXPECT_NE(table.find(name), std::string::npos)
            << name << " missing from the --help knob table";
}

TEST(EnvConfig, EmptyValuesCountAsUnset)
{
    EnvConfig config = parse({{"SW_OPS", ""}, {"SW_OUT_DIR", ""}});
    EXPECT_FALSE(config.ops.has_value());
    EXPECT_EQ(config.outDir, "bench/out");
}

TEST(EnvConfig, ParsesEveryKnob)
{
    EnvConfig config = parse({{"SW_OPS", "120"},
                              {"SW_THREADS", "4"},
                              {"SW_CRASH_POINTS", "0"},
                              {"SW_JOBS", "8"},
                              {"SW_TORN_WORDS", "3"},
                              {"SW_OUT_DIR", "/tmp/out"}});
    EXPECT_EQ(config.ops, 120u);
    EXPECT_EQ(config.threads, 4u);
    EXPECT_EQ(config.crashPoints, 0u); // 0 is valid: disables injection
    EXPECT_EQ(config.jobs, 8u);
    EXPECT_EQ(config.tornWords, 3u);
    EXPECT_EQ(config.outDir, "/tmp/out");
}

TEST(EnvConfig, SeedKnobsAcceptDecimalAndHex)
{
    EnvConfig config = parse({{"SW_CRASH_SEED", "12345"},
                              {"SW_FUZZ_SEED", "0xf022"},
                              {"SW_FUZZ_TRIALS", "0"}});
    EXPECT_EQ(config.crashSeed, 12345u);
    EXPECT_EQ(config.fuzzSeed, 0xf022u);
    EXPECT_EQ(config.fuzzTrials, 0u); // 0 trials: campaign disabled

    // Seeds use the full 64-bit range.
    config = parse({{"SW_CRASH_SEED", "0xffffffffffffffff"}});
    EXPECT_EQ(config.crashSeed, ~std::uint64_t{0});
}

TEST(EnvConfig, MalformedSeedKnobsDieLoudly)
{
    EXPECT_THROW(parse({{"SW_CRASH_SEED", "abc"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_FUZZ_SEED", "0x12zz"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_CRASH_SEED", "-1"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_FUZZ_TRIALS", "many"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, MalformedValuesDieLoudly)
{
    // fatal() throws std::invalid_argument (see sim/logging.hh); a
    // typo'd knob must never silently fall back to a default.
    EXPECT_THROW(parse({{"SW_OPS", "abc"}}), std::invalid_argument);
    EXPECT_THROW(parse({{"SW_OPS", "12x"}}), std::invalid_argument);
    EXPECT_THROW(parse({{"SW_THREADS", "-3"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_CRASH_POINTS", "1e3"}}),
                 std::invalid_argument);
}

TEST(EnvConfig, OutOfRangeValuesDieLoudly)
{
    // Minimums: SW_OPS/SW_THREADS/SW_JOBS >= 1.
    EXPECT_THROW(parse({{"SW_OPS", "0"}}), std::invalid_argument);
    EXPECT_THROW(parse({{"SW_THREADS", "0"}}),
                 std::invalid_argument);
    EXPECT_THROW(parse({{"SW_JOBS", "0"}}), std::invalid_argument);
    // Admitting all words of a line is not torn at all.
    EXPECT_THROW(parse({{"SW_TORN_WORDS",
                         std::to_string(wordsPerLine)}}),
                 std::invalid_argument);
}

} // namespace
} // namespace strand
