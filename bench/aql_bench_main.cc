// aql_bench: unified driver for the paper-figure sweeps.
//
//   aql_bench --list                     enumerate registered sweeps
//   aql_bench --run <name> [--run ...]   run selected sweeps
//   aql_bench --all                      run every registered sweep
//
// The selected sweeps share one pool of --jobs worker threads: workers take
// cells in sweep order, then cell order, and each sweep is rendered,
// printed and written as soon as its last cell lands, in selection order.
//
// Options:
//   --jobs N         worker threads for (scenario, policy) cells
//                    (default: hardware concurrency; results are identical
//                    for every N — cells are seeded per-cell)
//   --island-threads N
//                    worker threads advancing host islands INSIDE a fleet
//                    cell (default 1 = sequential). Orthogonal to --jobs;
//                    output is byte-identical for every N (the determinism
//                    contract in docs/ARCHITECTURE.md), so goldens and
//                    --stable-json comparisons never depend on it.
//                    Single-machine cells are unaffected.
//   --quick          scaled-down simulated durations (CI smoke)
//   --out DIR        output directory for BENCH_<name>.json (default ".")
//   --stable-json    omit wall-clock timing from JSON (byte-comparable runs)
//   --no-json        skip JSON emission entirely
//   --cell ID        run a single cell by id (render skipped); for CI perf
//                    probes that time one full-mode cell without paying for
//                    its siblings. --jobs is clamped to 1, so a --cell
//                    --island-threads benchmark measures island parallelism
//                    alone.
//   --profile        accepted and ignored: every timed JSON already carries
//                    each cell's time split and each sweep's render time,
//                    and every cell carries its work counters
//                    (docs/BENCH_FORMAT.md). Kept for callers that still
//                    pass it.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/experiment/registry.h"
#include "src/metrics/table.h"

namespace aql {
namespace {

void Usage(FILE* out) {
  std::fprintf(out,
               "usage: aql_bench (--list | --all | --run <name>...) "
               "[--jobs N] [--island-threads N] "
               "[--quick] [--out DIR] "
               "[--stable-json] [--no-json] [--cell ID]\n"
               "--profile is accepted and ignored (timing and counters are always "
               "written)\n");
}

// Parses a thread count: a whole decimal number in [1, INT_MAX] with no
// trailing characters. Exits with code 2 otherwise.
int ParseThreads(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > INT_MAX) {
    std::fprintf(stderr, "aql_bench: %s must be an integer in [1, %d], got '%s'\n",
                 flag.c_str(), INT_MAX, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ListSweeps(const SweepOptions& options) {
  TextTable table({"sweep", "cells", "description"});
  for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
    table.AddRow({spec->name, std::to_string(spec->build(options).size()),
                  spec->description});
  }
  std::printf("%zu registered sweeps (cell counts for %s mode):\n%s",
              SweepRegistry::Instance().size(), options.quick ? "quick" : "full",
              table.ToString().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  SweepOptions options;
  options.jobs = DefaultJobs();

  bool list = false;
  bool all = false;
  bool write_json = true;
  bool stable_json = false;
  std::string out_dir = ".";
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aql_bench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--run") {
      names.push_back(value());
    } else if (arg == "--jobs") {
      options.jobs = ParseThreads(arg, value());
    } else if (arg == "--island-threads") {
      options.island_threads = ParseThreads(arg, value());
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--profile") {
      // Ignored (see the header comment).
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--stable-json") {
      stable_json = true;
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg == "--cell") {
      options.only_cell = value();
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "aql_bench: unknown argument: %s\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }

  if (list) {
    return ListSweeps(options);
  }
  if (all) {
    for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
      if (std::find(names.begin(), names.end(), spec->name) == names.end()) {
        names.push_back(spec->name);
      }
    }
  }
  if (names.empty()) {
    Usage(stderr);
    return 2;
  }

  if (!options.only_cell.empty() && names.size() != 1) {
    std::fprintf(stderr, "aql_bench: --cell wants exactly one --run sweep\n");
    return 2;
  }
  if (!options.only_cell.empty()) {
    // A single cell is a single unit of cell-pool work: clamp --jobs (which
    // defaults to hardware concurrency) so the header, the timed JSON and
    // the engine all agree the run has no sibling work. --island-threads is
    // then the only parallelism in play — exactly what a --cell island
    // benchmark wants to measure.
    options.jobs = 1;
  }
  std::vector<const SweepSpec*> specs;
  for (const std::string& name : names) {
    const SweepSpec* spec = SweepRegistry::Instance().Find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "aql_bench: unknown sweep: %s (try --list)\n", name.c_str());
      return 2;
    }
    specs.push_back(spec);
  }

  char islands[32] = "";
  if (options.island_threads > 1) {
    std::snprintf(islands, sizeof(islands), ", island-threads=%d",
                  options.island_threads);
  }
  size_t failed_cells = 0;
  RunSweeps(specs, options, [&](SweepResult result) {
    const char* name = result.name.c_str();
    std::printf("=== %s (%s%s, jobs=%d%s) ===\n", name, options.quick ? "quick" : "full",
                stable_json ? ", stable-json" : "", options.jobs, islands);
    std::fputs(result.text.c_str(), stdout);
    std::printf("[%s] %zu cells in %.2fs\n", name, result.cells.size(),
                result.wall_seconds);
    if (result.failed_cells > 0) {
      // A failed cell is recorded (structured `error` entry in the JSON) and
      // the remaining cells and sweeps still run; the non-zero exit below
      // keeps CI from mistaking a partial document for a clean one.
      std::fprintf(stderr, "[%s] %zu cell(s) FAILED (see per-cell error entries)\n",
                   name, result.failed_cells);
      failed_cells += result.failed_cells;
    }
    if (write_json) {
      // --stable-json writes the deterministic projection (no wall-clock
      // fields), byte-comparable across runs and thread counts.
      const std::string path =
          WriteSweepJson(result, out_dir, /*include_timing=*/!stable_json);
      std::printf("[%s] wrote %s\n", name, path.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  });
  if (failed_cells > 0) {
    std::fprintf(stderr, "aql_bench: %zu cell(s) failed across %zu sweep(s)\n",
                 failed_cells, names.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aql

int main(int argc, char** argv) { return aql::Main(argc, argv); }
