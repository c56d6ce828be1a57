// perfbench: the end-to-end and per-layer benchmark of the tuned
// multigrid service.  Normally driven through perfbench/run.py, which
// builds this binary and forwards its arguments:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tables <dir> --out <dir> [--tiny]
//   perfbench --regenerate-tables --tables <dir> --commit <sha>
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; everything else goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tables DIR --out DIR [--tiny]\n"
               "       perfbench --regenerate-tables --tables DIR "
               "--commit SHA\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      options.trace = value() != "0";
    } else if (flag == "--tables") {
      options.tables_dir = value();
    } else if (flag == "--out") {
      options.out_dir = value();
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--regenerate-tables") {
      options.regenerate = true;
    } else if (flag == "--commit") {
      options.commit = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.tables_dir.empty()) usage("--tables is required");
  if (!options.regenerate) {
    if (options.workload.empty()) usage("--workload is required");
    if (options.out_dir.empty()) usage("--out is required");
    if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.regenerate) return perfbench::regenerate_tables(options);
    perfbench::Report report;
    perfbench::tracer().set_enabled(options.trace);
    perfbench::run_workload(options, report);
    if (options.trace) {
      perfbench::run_ledger(options, report);
      perfbench::finish_trace(options, report);
    }
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    std::fprintf(stderr, "failed_frac: %lld / %lld\n",
                 static_cast<long long>(report.failed),
                 static_cast<long long>(report.attempted));
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
