// Tests for the sweep engine: thread-count invariance of results (per-cell
// RNG seeding), the shared pool's heaviest-first order and failure containment,
// the sweep registry, JSON emission, quick-mode scaling, the split between
// host-clock timing (timed JSON only) and work counters (every JSON),
// byte-compares of every sweep against its committed golden on one shared
// pool, and a check on those goldens that no cell runs twice.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/json_out.h"
#include "src/experiment/registry.h"
#include "src/experiment/sweep.h"
#include "src/sim/rng.h"

namespace aql {
namespace {

SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.description = "engine test sweep";
  spec.build = [](const SweepOptions&) {
    std::vector<SweepCell> cells;
    for (int s = 1; s <= 2; ++s) {
      for (const char* pol : {"xen", "aql"}) {
        SweepCell cell;
        cell.id = "S" + std::to_string(s) + "/" + pol;
        cell.scenario = ColocationScenario(s);
        cell.scenario.warmup = Ms(300);
        cell.scenario.measure = Ms(400);
        cell.policy =
            std::string(pol) == "aql" ? PolicySpec::Aql() : PolicySpec::Xen();
        cell.trace_cursors = true;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  spec.render = [](SweepContext& ctx) {
    ctx.Summary("cells", static_cast<double>(ctx.cells().size()));
  };
  return spec;
}

// A sweep of short Xen cells on the S1 colocation scenario, one per id.
SweepSpec ColocationSpec(const std::string& name, std::vector<std::string> ids,
                         TimeNs measure = Ms(200)) {
  SweepSpec spec;
  spec.name = name;
  spec.description = "engine test sweep";
  spec.build = [ids, measure](const SweepOptions&) {
    std::vector<SweepCell> cells;
    for (const std::string& id : ids) {
      SweepCell cell;
      cell.id = id;
      cell.scenario = ColocationScenario(1);
      cell.scenario.warmup = Ms(100);
      cell.scenario.measure = measure;
      cell.policy = PolicySpec::Xen();
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  return spec;
}

// Mid-run cell failure: the broken cell gets a structured `error` entry,
// every sibling still runs to completion, its sweep's render step is
// skipped (it would read the missing result) and failed_cells reports the
// damage so aql_bench can exit non-zero. The next sweep on the shared pool
// still runs and renders.
TEST(SweepEngineTest, FailedCellIsRecordedAndSiblingsStillRun) {
  SweepSpec partial = ColocationSpec("partial", {"ok/a", "broken", "ok/b"});
  const auto build = partial.build;
  partial.build = [build](const SweepOptions& options) {
    std::vector<SweepCell> cells = build(options);
    cells[1].scenario.vms[0].app = "no_such_app";
    return cells;
  };
  bool partial_rendered = false;
  partial.render = [&partial_rendered](SweepContext&) { partial_rendered = true; };
  SweepSpec clean = ColocationSpec("clean", {"c"});
  bool clean_rendered = false;
  clean.render = [&clean_rendered](SweepContext&) { clean_rendered = true; };

  SweepOptions opts;
  opts.jobs = 2;
  std::vector<SweepResult> results;
  RunSweeps({&partial, &clean}, opts,
            [&results](SweepResult r) { results.push_back(std::move(r)); });
  ASSERT_EQ(results.size(), 2u);
  const SweepResult& r = results[0];

  EXPECT_EQ(r.failed_cells, 1u);
  EXPECT_FALSE(partial_rendered);
  EXPECT_NE(r.text.find("render skipped"), std::string::npos);
  ASSERT_EQ(r.cells.size(), 3u);
  EXPECT_TRUE(r.cells[0].error.empty());
  EXPECT_NE(r.cells[1].error.find("no_such_app"), std::string::npos);
  EXPECT_TRUE(r.cells[2].error.empty());
  // The siblings genuinely ran, before and after the failure.
  EXPECT_GT(r.cells[0].result.events_processed, 0u);
  EXPECT_GT(r.cells[2].result.events_processed, 0u);

  // JSON carries the structured error for the broken cell and full results
  // for the others.
  const std::string json = SweepJson(r, /*include_timing=*/false).Dump();
  EXPECT_NE(json.find("\"error\": \"unknown application: no_such_app\""),
            std::string::npos);
  EXPECT_NE(json.find("\"failed_cells\": 1"), std::string::npos);

  // The failure stays inside its sweep.
  EXPECT_TRUE(clean_rendered);
  EXPECT_EQ(results[1].failed_cells, 0u);
  EXPECT_GT(results[1].cells[0].result.events_processed, 0u);
  EXPECT_EQ(results[0].failed_cells + results[1].failed_cells, 1u);
}

// Runs `specs` on one pool of `jobs` workers and returns the sweep names in
// emission order, checking that every cell of every sweep ran.
std::vector<std::string> EmissionOrder(const std::vector<const SweepSpec*>& specs,
                                       int jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  std::vector<std::string> emitted;
  RunSweeps(specs, opts, [&emitted](SweepResult r) {
    EXPECT_EQ(r.failed_cells, 0u);
    for (const CellResult& c : r.cells) {
      EXPECT_GT(c.result.events_processed, 0u) << r.name << "/" << c.cell.id;
    }
    emitted.push_back(r.name);
  });
  return emitted;
}

// The sweep with the heaviest cell is claimed first and emitted first, once
// each, whatever the order given: the one 3.1 s cell outweighs three 0.3 s
// cells. Sweeps whose heaviest cells cost the same keep the order given.
TEST(SweepEngineTest, SweepsAreEmittedOnceHeaviestFirst) {
  const SweepSpec slow = ColocationSpec("slow", {"long"}, Ms(3000));
  const SweepSpec fast = ColocationSpec("fast", {"a", "b", "c"});
  const SweepSpec a = ColocationSpec("a", {"x", "y"});
  const SweepSpec b = ColocationSpec("b", {"x", "y"});
  for (const int jobs : {1, 2}) {
    EXPECT_EQ(EmissionOrder({&fast, &slow}, jobs),
              (std::vector<std::string>{"slow", "fast"}))
        << "jobs " << jobs;
    EXPECT_EQ(EmissionOrder({&b, &a}, jobs), (std::vector<std::string>{"b", "a"}))
        << "jobs " << jobs;
  }
}

TEST(SweepEngineTest, ThreadCountDoesNotAffectResults) {
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;

  const SweepResult r1 = RunSweep(TinySpec(), serial);
  const SweepResult r4 = RunSweep(TinySpec(), parallel);

  ASSERT_EQ(r1.cells.size(), r4.cells.size());
  for (size_t i = 0; i < r1.cells.size(); ++i) {
    const CellResult& a = r1.cells[i];
    const CellResult& b = r4.cells[i];
    EXPECT_EQ(a.cell.id, b.cell.id);
    EXPECT_EQ(a.result.events_processed, b.result.events_processed) << a.cell.id;
    // Metric values must match cell-for-cell, bit for bit.
    ASSERT_EQ(a.result.reports.size(), b.result.reports.size()) << a.cell.id;
    for (size_t r = 0; r < a.result.reports.size(); ++r) {
      EXPECT_EQ(a.result.reports[r].metrics, b.result.reports[r].metrics)
          << a.cell.id << " vCPU " << r;
    }
    EXPECT_EQ(a.result.cpu_utilization, b.result.cpu_utilization) << a.cell.id;
    EXPECT_EQ(a.result.detected_types, b.result.detected_types) << a.cell.id;
    ASSERT_EQ(a.cursor_trace.size(), b.cursor_trace.size()) << a.cell.id;
    for (size_t t = 0; t < a.cursor_trace.size(); ++t) {
      EXPECT_EQ(a.cursor_trace[t].io, b.cursor_trace[t].io);
      EXPECT_EQ(a.cursor_trace[t].llcf, b.cursor_trace[t].llcf);
    }
  }

  // The deterministic JSON projection is byte-identical.
  EXPECT_EQ(SweepJson(r1, /*include_timing=*/false).Dump(),
            SweepJson(r4, /*include_timing=*/false).Dump());
}

TEST(SweepEngineTest, SeedSaltChangesStreams) {
  SweepOptions a;
  SweepOptions b;
  b.seed_salt = a.seed_salt + 1;
  const SweepResult ra = RunSweep(TinySpec(), a);
  const SweepResult rb = RunSweep(TinySpec(), b);
  EXPECT_TRUE(ra.cells[0].result.events_processed != rb.cells[0].result.events_processed ||
              ra.cells[0].result.cpu_utilization != rb.cells[0].result.cpu_utilization);
}

TEST(SweepEngineTest, TimingStaysOutOfStableJsonAndCountersStayIn) {
  // Host-clock readings (each cell's profile split, the sweep's render
  // time) and the worker count are always measured but ride with the
  // timing fields only; the work counters are results and appear in both
  // forms. Run on a fleet sweep, whose cells add a fleet_epochs counter.
  const SweepSpec* spec = SweepRegistry::Instance().Find("fleet_hotspot");
  ASSERT_NE(spec, nullptr);
  SweepOptions options;
  options.quick = true;
  options.jobs = 1;

  const SweepResult r = RunSweep(*spec, options);
  const std::string stable = SweepJson(r, /*include_timing=*/false).Dump();
  EXPECT_NE(stable.find("\"counters\""), std::string::npos);
  EXPECT_NE(stable.find("\"fleet_epochs\""), std::string::npos);

  const std::string timed = SweepJson(r, /*include_timing=*/true).Dump();
  for (const char* key :
       {"\"profile\"", "\"sim_seconds\"", "\"render_seconds\"", "\"jobs\""}) {
    EXPECT_EQ(stable.find(key), std::string::npos) << key;
    EXPECT_NE(timed.find(key), std::string::npos) << key;
  }
}

#ifdef AQL_GOLDEN_DIR
std::string Golden(const std::string& sweep) {
  const std::string path =
      std::string(AQL_GOLDEN_DIR) + "/quick/BENCH_" + sweep + ".json";
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden: " << path;
  std::ostringstream golden;
  golden << f.rdbuf();
  return golden.str();
}

// The sweep name of a BENCH_<name>.json file; any other file name unchanged.
std::string SweepOfFile(const std::string& file) {
  const std::string prefix = "BENCH_";
  const std::string suffix = ".json";
  if (file.size() > prefix.size() + suffix.size() && file.rfind(prefix, 0) == 0 &&
      file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return file.substr(prefix.size(), file.size() - prefix.size() - suffix.size());
  }
  return file;
}

// Every registered sweep has a quick golden and a full-mode digest, and no
// other golden or digest exists. CI's byte gates walk the goldens, so a
// sweep registered without one would go unchecked.
TEST(SweepEngineTest, RegisteredSweepsCoverTheFigures) {
  std::set<std::string> registered;
  for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
    registered.insert(spec->name);
  }
  std::set<std::string> quick;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(AQL_GOLDEN_DIR) + "/quick")) {
    quick.insert(SweepOfFile(entry.path().filename().string()));
  }
  std::ifstream sums(std::string(AQL_GOLDEN_DIR) + "/full/SHA256SUMS");
  ASSERT_TRUE(sums.good());
  std::set<std::string> digests;
  std::string digest;
  std::string file;
  while (sums >> digest >> file) {
    digests.insert(SweepOfFile(file));
  }
  EXPECT_EQ(quick, registered);
  EXPECT_EQ(digests, registered);
  EXPECT_EQ(SweepRegistry::Instance().Find("nonexistent"), nullptr);
}

// A cell's stable JSON without its "id" line: two cells that run the same
// scenario under the same policy dump the same text.
std::string CellWithoutId(const JsonValue& cell) {
  std::string text = cell.Dump();
  const size_t start = text.find("\n  \"id\": ");
  EXPECT_NE(start, std::string::npos) << text;
  if (start != std::string::npos) {
    text.erase(start, text.find('\n', start + 1) - start);
  }
  return text;
}

// Each cell runs once: no sweep repeats one of its own cells, and cells that
// repeat across sweeps are exactly the shared cells docs/BENCH_FORMAT.md
// lists. Each of those belongs to a figure that `--run NAME` regenerates
// alone. Reads the committed quick goldens; runs no sweep.
TEST(GoldenTest, OnlyListedCellsRepeatAcrossSweeps) {
  std::map<std::string, std::vector<std::string>> runs;  // cell -> "sweep:id"s
  for (const SweepSpec* spec : SweepRegistry::Instance().All()) {
    std::string error;
    const JsonValue doc = JsonValue::Parse(Golden(spec->name), &error);
    ASSERT_TRUE(doc.IsObject()) << spec->name << ": " << error;
    for (const JsonValue& cell : doc.Find("cells")->Items()) {
      runs[CellWithoutId(cell)].push_back(spec->name + ":" +
                                          cell.Find("id")->AsString());
    }
  }
  std::set<std::vector<std::string>> shared;
  for (auto& [cell, ids] : runs) {
    if (ids.size() < 2) {
      continue;
    }
    std::set<std::string> sweeps;
    for (const std::string& id : ids) {
      sweeps.insert(id.substr(0, id.find(':')));
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(sweeps.size(), ids.size())
        << "a sweep runs one cell twice: " << testing::PrintToString(ids);
    shared.insert(ids);
  }

  std::set<std::vector<std::string>> expected = {
      {"fig6_effectiveness:S5/aql", "fig8_comparison:aql", "table5_clusters:S5"},
      {"fig6_effectiveness:S5/xen", "fig8_comparison:xen"},
      {"fig6_effectiveness:four_socket/aql", "fig7_customization:full"},
  };
  for (const std::string app : {"astar", "bzip2", "gcc", "omnetpp", "xalancbmk"}) {
    expected.insert({"ablation:insert/dip/" + app, "table3x_recognition:rec/" + app});
  }
  for (const std::string s : {"1", "2", "3", "4"}) {
    expected.insert({"fig6_effectiveness:S" + s + "/aql", "table5_clusters:S" + s});
  }
  for (const std::string app : {"numa_mcf", "numa_stream"}) {
    expected.insert(
        {"fig6x_numa:numa/" + app + "/aql", "table3x_recognition:rec/" + app});
    expected.insert(
        {"fig6x_numa:numa/" + app + "/xen", "table3x_recognition:base/" + app});
  }
  EXPECT_EQ(shared, expected);
}

// Byte-compares a one-worker quick-mode --stable-json run of `sweep` against
// its committed golden (tests/goldens/README.md records when each was last
// re-baselined).
void ExpectMatchesGolden(const char* sweep) {
  const SweepSpec* spec = SweepRegistry::Instance().Find(sweep);
  ASSERT_NE(spec, nullptr) << sweep;
  SweepOptions options;
  options.quick = true;
  options.jobs = 1;
  const SweepResult result = RunSweep(*spec, options);
  EXPECT_EQ(SweepJson(result, /*include_timing=*/false).Dump(), Golden(sweep))
      << sweep << ": stable JSON diverged from the committed golden — the "
      << "engine changed results, not just speed";
}

// The timed document `aql_bench` writes without --stable-json: its
// host-clock fields differ on every run, so no golden can pin them; check
// their shape instead.
void ExpectWellFormedTimedJson(const SweepResult& r) {
  std::string error;
  const JsonValue doc =
      JsonValue::Parse(SweepJson(r, /*include_timing=*/true).Dump(), &error);
  ASSERT_TRUE(doc.IsObject()) << r.name << ": " << error;
  for (const char* key : {"bench", "options", "summary", "tables", "cells", "timing"}) {
    EXPECT_NE(doc.Find(key), nullptr) << r.name << ": missing " << key;
  }
  const JsonValue* timing = doc.Find("timing");
  ASSERT_NE(timing, nullptr) << r.name;
  EXPECT_EQ(timing->size(), 2u) << r.name << ": timing must hold exactly two keys";
  EXPECT_NE(timing->Find("total_wall_seconds"), nullptr) << r.name;
  EXPECT_NE(timing->Find("render_seconds"), nullptr) << r.name;
  const JsonValue* cells = doc.Find("cells");
  ASSERT_NE(cells, nullptr) << r.name;
  EXPECT_FALSE(cells->Items().empty()) << r.name;
  for (const JsonValue& cell : cells->Items()) {
    const std::string id = cell.Find("id")->AsString();
    const JsonValue* wall = cell.Find("wall_seconds");
    ASSERT_NE(wall, nullptr) << r.name << " " << id;
    EXPECT_GE(wall->AsDouble(), 0.0) << r.name << " " << id;
    EXPECT_NE(cell.Find("counters"), nullptr) << r.name << " " << id;
  }
}

// Every registered sweep on one shared pool of 4 workers, as
// `aql_bench --all --quick --jobs 4` runs them: cells of different sweeps
// interleave on the workers, and each sweep must be emitted once, equal its
// golden and write a well-formed timed document. The goldens are the
// `--jobs 1` output, so this is also every sweep's jobs-invariance check.
TEST(GoldenTest, EverySweepReproducesItsGoldenOnOneSharedPool) {
  const std::vector<const SweepSpec*> specs = SweepRegistry::Instance().All();
  SweepOptions options;
  options.quick = true;
  options.jobs = 4;
  std::map<std::string, int> emitted;
  RunSweeps(specs, options, [&emitted](SweepResult r) {
    ++emitted[r.name];
    EXPECT_EQ(SweepJson(r, /*include_timing=*/false).Dump(), Golden(r.name))
        << r.name << ": stable JSON diverged from the committed golden";
    ExpectWellFormedTimedJson(r);
  });
  EXPECT_EQ(emitted.size(), specs.size());
  for (const SweepSpec* spec : specs) {
    EXPECT_EQ(emitted[spec->name], 1) << spec->name;
  }
}

// One worker, one sweep: the two cheapest goldens.
TEST(GoldenTest, Table5QuickMatchesCommittedGolden) {
  ExpectMatchesGolden("table5_clusters");
}

TEST(GoldenTest, Fig4QuickMatchesCommittedGolden) {
  ExpectMatchesGolden("fig4_vtrs_traces");
}

#endif  // AQL_GOLDEN_DIR

TEST(SweepOptionsTest, QuickModeScalesWindows) {
  SweepOptions full;
  EXPECT_EQ(full.Measure(Sec(10)), Sec(10));
  EXPECT_EQ(full.Warmup(Sec(2)), Sec(2));
  EXPECT_EQ(full.Repeats(3), 3);

  SweepOptions quick;
  quick.quick = true;
  // Calibrated preset: repeats collapse to one before windows shrink, and
  // the window floors keep vTRS recognition faithful (no LLCF->LLCO
  // misreads from cold caches / too few decisions).
  EXPECT_EQ(quick.Measure(Sec(20)), Sec(2));
  EXPECT_EQ(quick.Measure(Sec(10)), Ms(1500));  // floor
  EXPECT_EQ(quick.Warmup(Sec(2)), Ms(600));     // floor
  EXPECT_EQ(quick.Repeats(3), 1);
}

TEST(RngTest, DeriveSeedIsStableAndSpread) {
  EXPECT_EQ(Rng::DeriveSeed(42, 7), Rng::DeriveSeed(42, 7));
  EXPECT_NE(Rng::DeriveSeed(42, 7), Rng::DeriveSeed(42, 8));
  EXPECT_NE(Rng::DeriveSeed(42, 7), Rng::DeriveSeed(43, 7));
}

TEST(JsonOutTest, ObjectsKeepInsertionOrderAndEscape) {
  JsonValue doc = JsonValue::Object();
  doc.Set("zeta", 1).Set("alpha", "a\"b\nc").Set("flag", true);
  JsonValue arr = JsonValue::Array();
  arr.Push(1.5).Push(JsonValue());
  doc.Set("list", std::move(arr));
  const std::string text = doc.Dump();
  EXPECT_LT(text.find("zeta"), text.find("alpha"));
  EXPECT_NE(text.find("\"a\\\"b\\nc\""), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("null"), std::string::npos);
}

TEST(JsonOutTest, NumbersRoundTrip) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(JsonNumber(2.0), "2");
}

TEST(JsonOutTest, ParseRoundTripsDumpedDocuments) {
  JsonValue doc = JsonValue::Object();
  doc.Set("text", "a\"b\nc\t\\d")
      .Set("int", static_cast<int64_t>(-42))
      .Set("uint", static_cast<uint64_t>(16250939874642925813ULL))
      .Set("third", 1.0 / 3.0)
      .Set("flag", false)
      .Set("nothing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Push(0.1).Push(static_cast<int64_t>(7)).Push("x");
  doc.Set("list", std::move(arr));
  const std::string text = doc.Dump();

  std::string error;
  const JsonValue parsed = JsonValue::Parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  // Bit-exact round trip: re-dumping the parsed document reproduces the
  // original text, including the 64-bit seed and the shortest-form double.
  EXPECT_EQ(parsed.Dump(), text);
  EXPECT_EQ(parsed.Find("text")->AsString(), "a\"b\nc\t\\d");
  EXPECT_EQ(parsed.Find("int")->AsInt(), -42);
  EXPECT_EQ(parsed.Find("uint")->AsUint(), 16250939874642925813ULL);
  EXPECT_EQ(parsed.Find("third")->AsDouble(), 1.0 / 3.0);
  EXPECT_EQ(parsed.Find("flag")->AsBool(), false);
  EXPECT_TRUE(parsed.Find("nothing")->IsNull());
  EXPECT_EQ(parsed.Find("list")->Items().size(), 3u);
  EXPECT_EQ(parsed.Find("missing"), nullptr);
}

TEST(JsonOutTest, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\" 1}", "{\"a\": }", "tru",
                          "\"unterminated", "{\"a\":1} trailing", "nan"}) {
    std::string error;
    const JsonValue v = JsonValue::Parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    EXPECT_TRUE(v.IsNull());
  }
  // Pathological nesting must fail cleanly, not blow the stack.
  std::string deep(100000, '[');
  std::string error;
  JsonValue::Parse(deep, &error);
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

}  // namespace
}  // namespace aql
