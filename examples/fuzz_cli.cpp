// fuzz_cli: the differential fuzzing harness as a command-line tool.
//
//   fuzz_cli --runs N --seed S [--jobs N] [--timeout S]
//            [--designs a,b,c] [--max-mutations K]
//            [--fresh-cycles N] [--extra-trace N] [--gen-prob P]
//            [--fail-on fault,mismatch,overfit] [--no-reduce]
//            [--corpus DIR] [--check-determinism] [--quiet]
//   fuzz_cli --replay entry.fuzz [...]
//
// Each run mutates a known-good design, repairs it, and cross-checks
// the claimed repair against the golden design on fresh stimulus
// (src/fuzz/fuzzer.hpp documents the classification).  --replay
// re-executes corpus entries and asserts their recorded `expect`
// class, which is how checked-in reproducers become regressions.
//
// --fail-on picks the classes that make the sweep exit non-zero.
// The default (`fault,mismatch`) treats only tool bugs as fatal;
// CI's strict smoke adds `overfit` and pairs it with --extra-trace,
// because only a rich driving trace makes zero-overfit a fair demand.
//
// Exit codes:
//   0  no run classified in the --fail-on set (or all replayed
//      entries matched their expected class)
//   1  at least one --fail-on run (or a replay mismatch)
//   4  usage / unreadable input
#include <cstdio>
#include <cstring>
#include <iostream>

#include "fuzz/fuzzer.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

using namespace rtlrepair;

namespace {

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s --runs N --seed S [--jobs N] [--timeout S]\n"
        "          [--designs a,b,c] [--max-mutations K]\n"
        "          [--fresh-cycles N] [--extra-trace N]\n"
        "          [--gen-prob P] [--fail-on CLASSES] [--no-reduce]\n"
        "          [--corpus DIR] [--check-determinism]\n"
        "          [--no-incremental] [--fresh-batch N] [--quiet]\n"
        "       %s --replay entry.fuzz [entry2.fuzz ...]\n",
        prog, prog);
    return 4;
}

int
replayEntries(const std::vector<std::string> &paths,
              fuzz::FuzzConfig config)
{
    int bad = 0;
    for (const std::string &path : paths) {
        fuzz::CorpusEntry entry = fuzz::CorpusEntry::load(path);
        fuzz::FuzzCase fcase = fuzz::FuzzCase::fromCorpus(entry);
        fuzz::CaseResult result = fuzz::runCase(fcase, config);
        bool match = entry.expect.empty() ||
                     entry.expect == fuzz::toString(result.cls);
        std::string verdict =
            match ? "ok" : "EXPECTED " + entry.expect;
        std::printf("%-40s %-18s %s\n", path.c_str(),
                    fuzz::toString(result.cls), verdict.c_str());
        if (!match) {
            std::printf("  %s\n", result.detail.c_str());
            ++bad;
        }
    }
    return bad == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    fuzz::FuzzConfig config;
    config.jobs = 1;
    std::vector<std::string> replay_paths;
    bool quiet = false;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(4);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--runs") == 0) {
            config.runs = std::stoull(value("--runs"));
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            config.seed = std::stoull(value("--seed"));
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            config.jobs = static_cast<unsigned>(
                std::stoul(value("--jobs")));
        } else if (std::strcmp(argv[i], "--timeout") == 0) {
            config.repair_timeout = std::atof(value("--timeout"));
        } else if (std::strcmp(argv[i], "--designs") == 0) {
            for (const auto &d : split(value("--designs"), ','))
                config.designs.push_back(d);
        } else if (std::strcmp(argv[i], "--max-mutations") == 0) {
            config.max_mutations = std::atoi(value("--max-mutations"));
        } else if (std::strcmp(argv[i], "--fresh-cycles") == 0) {
            config.fresh_cycles =
                std::stoull(value("--fresh-cycles"));
        } else if (std::strcmp(argv[i], "--extra-trace") == 0) {
            config.extra_trace_cycles =
                std::stoull(value("--extra-trace"));
        } else if (std::strcmp(argv[i], "--fail-on") == 0) {
            config.fail_on.clear();
            for (const auto &tok : split(value("--fail-on"), ',')) {
                if (tok == "fault") {
                    config.fail_on.push_back(
                        fuzz::RunClass::PipelineFault);
                } else if (tok == "mismatch") {
                    config.fail_on.push_back(
                        fuzz::RunClass::OracleMismatch);
                } else if (tok == "overfit") {
                    config.fail_on.push_back(
                        fuzz::RunClass::RepairedOverfit);
                } else if (tok != "none") {
                    std::fprintf(stderr,
                                 "--fail-on: unknown class `%s` "
                                 "(fault, mismatch, overfit, none)\n",
                                 std::string(tok).c_str());
                    return 4;
                }
            }
        } else if (std::strcmp(argv[i], "--gen-prob") == 0) {
            config.gen_probability = std::atof(value("--gen-prob"));
        } else if (std::strcmp(argv[i], "--no-reduce") == 0) {
            config.reduce = false;
        } else if (std::strcmp(argv[i], "--corpus") == 0) {
            config.corpus_dir = value("--corpus");
        } else if (std::strcmp(argv[i], "--no-incremental") == 0) {
            config.incremental = false;
        } else if (std::strcmp(argv[i], "--fresh-batch") == 0) {
            config.fresh_batch = std::atoi(value("--fresh-batch"));
        } else if (std::strcmp(argv[i], "--check-determinism") == 0) {
            config.check_determinism = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            for (++i; i < argc; ++i)
                replay_paths.push_back(argv[i]);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return usage(argv[0]);
        }
    }

    // The repair pipeline's Info-level narration would drown the
    // one-line-per-run fuzz log.
    if (!verbose)
        setLogLevel(LogLevel::Warn);

    if (!replay_paths.empty())
        return replayEntries(replay_paths, config);

    fuzz::FuzzStats stats =
        fuzz::fuzz(config, quiet ? nullptr : &std::cout);
    if (quiet)
        std::cout << stats.summary();
    if (!stats.failures.empty()) {
        std::printf("--- reduced reproducers ---\n");
        for (const auto &[fcase, result] : stats.failures) {
            fuzz::CorpusEntry entry = fcase.toCorpus();
            entry.found = fuzz::toString(result.cls);
            entry.expect = entry.found;
            std::printf("%s  # %s\n", entry.serialize().c_str(),
                        result.detail.c_str());
        }
    }
    return stats.ok(config.fail_on) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 4;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 1;
    }
}
