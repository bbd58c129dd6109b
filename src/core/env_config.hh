/**
 * @file
 * Centralized, validated parsing of the SW_* environment knobs.
 *
 * Every bench and test knob lives here — nothing else in the tree
 * calls std::getenv — so the full knob surface is visible in one
 * place and malformed values fail loudly at startup instead of
 * silently falling back to defaults:
 *
 *   SW_OPS          operations per thread (>= 1)
 *   SW_THREADS      program threads (>= 1)
 *   SW_CRASH_POINTS crash points injected per crash cell
 *                   (>= 0; crash_matrix default 16)
 *   SW_JOBS         sweep worker threads (>= 1; default: hardware
 *                   concurrency; 1 reproduces serial execution)
 *   SW_TORN_WORDS   torn-cacheline injection: admit only this many
 *                   8-byte words of the final flushed line at each
 *                   crash point (0..7; unset disables tearing)
 *   SW_CRASH_SEED   seed for random crash-tick selection (any u64;
 *                   0x-prefixed hex accepted)
 *   SW_FUZZ_TRIALS  fuzz trials per campaign cell (0 disables cells)
 *   SW_FUZZ_SEED    campaign seed for fuzz trials (any u64;
 *                   0x-prefixed hex accepted)
 *   SW_PMOSAN       attach the online PMO-san persist-order checker
 *                   to every run (0/1; default off)
 *   SW_CRASH_FORK   forked-snapshot crash exploration: one warm run,
 *                   forked and rewound per crash point (0/1; default
 *                   off = two-run oracle mode)
 *   SW_FUZZ_FORK_BRANCH
 *                   forked fuzz branching: snapshot the machine at
 *                   adversary decision sites and explore this many
 *                   extra schedule suffixes per trial from the warm
 *                   prefix (>= 0; default 0 = off; a non-zero value
 *                   implies the forked trial path)
 *   SW_MEDIA_POISON max poisoned (uncorrectable) lines injected per
 *                   crash point (0..8; crash_matrix default 1)
 *   SW_MEDIA_FLIPS  max in-line bit flips injected per crash point
 *                   (0..8; crash_matrix default 1)
 *   SW_MEDIA_DROP   max trailing ADR admissions dropped per crash
 *                   point — partial drain (0..8; crash_matrix
 *                   default 2)
 *   SW_MEDIA_SEED   seed of the media-fault stream (any u64;
 *                   0x-prefixed hex accepted)
 *   SW_LOG          console log level: 0 quiet, 1 normal, 2 verbose
 *                   (verbose adds the crash-fork and fuzz-fork
 *                   snapshot capture/restore lines)
 *   SW_OUT_DIR      directory for JSON result files (default
 *                   bench/out)
 *
 * The knobs are also described by a data registry (envKnobs()), from
 * which every bench binary generates the same --help table — adding
 * a knob here without a registry row trips the env-config test.
 *
 * The environment is parsed once per process; sweep worker threads
 * may read the parsed config concurrently.
 */

#ifndef CORE_ENV_CONFIG_HH
#define CORE_ENV_CONFIG_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace strand
{

/** Parsed SW_* knobs; unset optionals mean "use the caller's default". */
struct EnvConfig
{
    std::optional<unsigned> ops;
    std::optional<unsigned> threads;
    std::optional<unsigned> crashPoints;
    std::optional<unsigned> jobs;
    std::optional<unsigned> tornWords;
    std::optional<std::uint64_t> crashSeed;
    std::optional<unsigned> fuzzTrials;
    std::optional<std::uint64_t> fuzzSeed;
    std::optional<bool> pmosan;
    std::optional<bool> crashFork;
    std::optional<unsigned> fuzzForkBranch;
    std::optional<unsigned> mediaPoison;
    std::optional<unsigned> mediaFlips;
    std::optional<unsigned> mediaDrop;
    std::optional<std::uint64_t> mediaSeed;
    /** Console log level (0 quiet / 1 normal / 2 verbose). */
    std::optional<unsigned> logLevel;
    std::string outDir = "bench/out";
};

/** One documented environment knob (the --help registry). */
struct EnvKnob
{
    const char *name;        ///< e.g. "SW_OPS"
    const char *constraints; ///< e.g. ">= 1", "0..7", "u64"
    const char *fallback;    ///< behaviour when unset
    const char *summary;     ///< one-line description
};

/** Every SW_* knob the tree reads, in documentation order. */
const std::vector<EnvKnob> &envKnobs();

/** The shared, aligned knob table every bench prints for --help. */
std::string envKnobTable();

/**
 * Parse the SW_* knobs through @p get (a getenv-shaped lookup).
 * Calls fatal() on malformed, negative, or out-of-range values.
 * Exposed separately from envConfig() so tests can exercise the
 * validation without mutating the process environment.
 */
EnvConfig parseEnvConfig(
    const std::function<const char *(const char *)> &get);

/** The process environment, parsed and validated once. */
const EnvConfig &envConfig();

/**
 * Worker threads for sweep execution: SW_JOBS if set, otherwise the
 * host's hardware concurrency (at least 1).
 */
unsigned envJobs();

} // namespace strand

#endif // CORE_ENV_CONFIG_HH
