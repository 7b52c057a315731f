/**
 * @file
 * reuse_e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one benchmark workload and prints, as its last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics (from a
 * run with span tracing at 1/1 sampling) with --trace 1.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: reuse_e2ebench --workload "
                 "kaldi-stream|autopilot-stream|eesen-seq|kaldi-serve "
                 "--seed N --seconds S --trace 0|1\n");
}

void
printResult(const e2e::RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    char buf[512];
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const e2e::Metric &m = r.metrics[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, nullptr, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, nullptr);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "0") != 0;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_workload || !(opt.seconds > 0.0) || argc % 2 != 1) {
        usage();
        return 2;
    }

    e2e::RunResult r;
    if (opt.workload == "kaldi-stream")
        r = e2e::runStream(opt, "Kaldi");
    else if (opt.workload == "autopilot-stream")
        r = e2e::runStream(opt, "AutoPilot");
    else if (opt.workload == "eesen-seq")
        r = e2e::runStream(opt, "EESEN");
    else if (opt.workload == "kaldi-serve")
        r = e2e::runServe(opt);
    else {
        usage();
        return 2;
    }
    for (const e2e::Metric &m : r.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "e2ebench: metric %s is not finite\n",
                         m.name.c_str());
            r.correct = false;
        }
    }
    if (r.failed > 0)
        r.correct = false;
    std::fflush(stderr);
    printResult(r);
    return r.correct ? 0 : 1;
}
