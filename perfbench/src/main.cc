// csd_perfbench — the end-to-end benchmark driver (see perfbench/README.md).
//
//   csd_perfbench gen --workload W --seed N --seconds S --dir D
//   csd_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//   csd_perfbench setup --workload W --dir D
//
// `gen` writes the workload's inputs for a seed; `run` measures one
// workload over them and prints `load {...}` and then the result object
// as the last stdout line; `setup` only sets up, as `run` does, and
// prints {"setup_s": seconds from process start}. Exit status: 0 when
// every output check held, 1 when one failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "inputs.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: csd_perfbench gen|run|setup --workload "
               "mine-batch|annotate-read|ingest-mixed --seed N --seconds S "
               "[--trace 0|1] --dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csd::perfbench;
  const double process_start_s = NowSeconds();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (flags.count("workload") == 0 || flags.count("dir") == 0) return Usage();
  const std::string workload = flags["workload"];
  RunOptions options;
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                           : 10.0;
  options.trace = flags["trace"] == "1";
  options.dir = flags["dir"];
  options.process_start_s = process_start_s;
  if (!(options.seconds > 0.0)) return Usage();

  if (command == "gen") {
    csd::Status s =
        GenerateInputs(workload, options.seed, options.seconds, options.dir);
    if (!s.ok()) {
      std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "setup") {
    csd::Result<double> setup_s = MeasureSetup(workload, options);
    if (!setup_s.ok()) {
      std::fprintf(stderr, "setup: %s\n", setup_s.status().ToString().c_str());
      return 1;
    }
    std::printf("{\"setup_s\": %.9g}\n", setup_s.value());
    return 0;
  }
  if (command != "run") return Usage();

  Report report;
  if (workload == "mine-batch") {
    RunMineBatch(options, &report);
  } else if (workload == "annotate-read") {
    RunAnnotateRead(options, &report);
  } else if (workload == "ingest-mixed") {
    RunIngestMixed(options, &report);
  } else {
    return Usage();
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
