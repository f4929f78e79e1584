// Entry point of the NLIDB benchmark binary. perfbench/run.py builds it
// and passes the cache, span and stamp arguments; see README.md.
//
//   nlidb_perfbench --workload interactive|serve_open|routed_onboard
//                   --seed N --seconds S --trace 0|1
//                   --cache-dir DIR [--spans-out FILE]
//                   [--commit ID] [--source-tree HASH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, nlidb::perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-tree") {
      args->source_tree = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->cache_dir.empty() || args->seconds <= 0) {
    std::fprintf(stderr, "--cache-dir and a positive --seconds are required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  nlidb::perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const nlidb::perfbench::WorkloadSpec* spec =
      nlidb::perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? nlidb::perfbench::RunTraced(args, *spec)
                    : nlidb::perfbench::RunUntraced(args, *spec);
}
