// tcast_e2e — one workload of the end-to-end benchmark per process.
//
//   tcast_e2e --workload fig_sweep|packet_fresh|packet_resident|tcastd_mix
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--spans PATH] [--tcastd PATH] [--run-dir DIR]
//
// Prints one JSON object (Result::to_json) on stdout. bench/e2e/run.py
// builds this binary, runs it, checks the result and prints the metrics.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench/e2e/e2e.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tcast_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--spans PATH] [--tcastd PATH] "
               "[--run-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::e2e;
  Options opts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opts.workload = next();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opts.trace = next() != "0";
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else if (arg == "--spans") {
        opts.spans_path = next();
      } else if (arg == "--tcastd") {
        opts.tcastd_path = next();
      } else if (arg == "--run-dir") {
        opts.run_dir = next();
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  Result r;
  if (opts.workload == "fig_sweep") {
    r = run_fig_sweep(opts);
  } else if (opts.workload == "packet_fresh") {
    r = run_packet_fresh(opts);
  } else if (opts.workload == "packet_resident") {
    r = run_packet_resident(opts);
  } else if (opts.workload == "tcastd_mix") {
    if (opts.tcastd_path.empty()) return usage();
    r = run_tcastd_mix(opts);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    return usage();
  }
  std::printf("%s\n", r.to_json(opts).c_str());
  return 0;
}
