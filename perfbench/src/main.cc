/**
 * @file
 * perfbench: the repository benchmark. See README.md beside this
 * directory; run.py builds this binary and gives it a JIT directory.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --jit-dir DIR [--smoke]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "driver.hh"

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    const std::string err = perfbench::parseArgs(
        std::vector<std::string>(argv + 1, argv + argc), opts);
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    return perfbench::runBenchmark(opts);
}
