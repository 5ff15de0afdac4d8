// kfi_perfbench: the campaign benchmark's main program.
//
//   kfi_perfbench --workload masked|manifesting|fabric_local|fabric_remote
//                 --seed N --seconds S --trace 0|1 --tools DIR
//                 --work DIR --out DIR [--smoke]
//
// --trace 0 runs the workload end to end and prints the end-to-end
// metrics; --trace 1 drives each layer on its own instead and prints the
// per-layer metrics.  Either way the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit code
// 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: kfi_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --tools DIR --work DIR --out DIR [--smoke]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") opt.trace = value != "0";
    else if (arg == "--tools") opt.tools_dir = value;
    else if (arg == "--work") opt.work_dir = value;
    else if (arg == "--out") opt.out_dir = value;
    else {
      usage();
      return 2;
    }
  }
  if (opt.workload.empty() || opt.tools_dir.empty() || opt.work_dir.empty() ||
      opt.out_dir.empty() || !(opt.seconds > 0.0)) {
    usage();
    return 2;
  }
  try {
    perfbench::workload_specs(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kfi_perfbench: %s\n", e.what());
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  std::filesystem::create_directories(opt.out_dir);
  int rc = 1;
  try {
    rc = opt.trace ? perfbench::run_layers(opt)
                   : perfbench::run_end_to_end(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kfi_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::filesystem::remove_all(opt.work_dir);
  return rc;
}
