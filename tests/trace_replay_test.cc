// Tests for the trace-driven workload backend: strict schema validation
// (docs/TRACE_FORMAT.md), the stream view and replay models of
// TraceSource, the workload-source dispatch, the registered trace_replay
// sweep's determinism contract (jobs / island-threads), and the
// byte-level round trip against the reference emitter scripts/trace_gen.py.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/experiment/registry.h"
#include "src/experiment/runner.h"
#include "src/experiment/sweep.h"
#include "src/workload/source.h"
#include "src/workload/trace_replay.h"

namespace aql {
namespace {

std::string ReadFileText(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

void WriteFileText(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

std::string ParseError(const std::string& text) {
  TraceData data;
  std::string error;
  EXPECT_FALSE(ParseTrace(text, &data, &error)) << "accepted: " << text;
  return error;
}

// --- schema validation ------------------------------------------------------

TEST(TraceParseTest, AcceptsMinimalTrace) {
  TraceData data;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "{\"aql_trace\": 1, \"streams\": 1}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 1000}\n",
      &data, &error))
      << error;
  EXPECT_EQ(data.name, "trace");
  EXPECT_EQ(data.wrap, 0);
  ASSERT_EQ(data.streams.size(), 1u);
  ASSERT_EQ(data.streams[0].ops.size(), 1u);
  EXPECT_EQ(data.streams[0].ops[0].burst, 1000);
  EXPECT_FALSE(data.streams[0].has_io);
}

TEST(TraceParseTest, DefaultMemIsInheritedAndOverridable) {
  TraceData data;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "{\"aql_trace\": 1, \"streams\": 2, \"name\": \"t\", "
      "\"default_mem\": {\"wss_bytes\": 4096, \"llc_refs_per_ns\": 0.01, "
      "\"ipc\": 1.5, \"remote_fraction\": 0.25}}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 500}\n"
      "{\"stream\": 1, \"op\": \"io\", \"at\": 10, \"burst_ns\": 500, "
      "\"wss_bytes\": 8192}\n",
      &data, &error))
      << error;
  EXPECT_EQ(data.name, "t");
  const MemProfile& a = data.streams[0].ops[0].mem;
  EXPECT_EQ(a.wss_bytes, 4096u);
  EXPECT_DOUBLE_EQ(a.llc_refs_per_ns, 0.01);
  EXPECT_DOUBLE_EQ(a.instructions_per_ns, 1.5);
  EXPECT_DOUBLE_EQ(a.remote_fraction, 0.25);
  const MemProfile& b = data.streams[1].ops[0].mem;
  EXPECT_EQ(b.wss_bytes, 8192u);  // overridden
  EXPECT_DOUBLE_EQ(b.llc_refs_per_ns, 0.01);  // inherited
  EXPECT_TRUE(data.streams[1].has_io);
  EXPECT_FALSE(data.streams[0].has_io);
}

TEST(TraceParseTest, BlankLinesAreSkipped) {
  TraceData data;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "{\"aql_trace\": 1, \"streams\": 1}\n"
      "\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 1}\n"
      "\n",
      &data, &error))
      << error;
  EXPECT_EQ(data.streams[0].ops.size(), 1u);
}

TEST(TraceParseTest, RejectsMissingHeader) {
  const std::string err =
      ParseError("{\"stream\": 0, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 1}\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("aql_trace"), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsEmptyDocument) {
  EXPECT_NE(ParseError("").find("empty trace"), std::string::npos);
  EXPECT_NE(ParseError("\n\n").find("empty trace"), std::string::npos);
}

TEST(TraceParseTest, RejectsUnsupportedVersion) {
  const std::string err = ParseError("{\"aql_trace\": 2, \"streams\": 1}\n");
  EXPECT_NE(err.find("unsupported trace version 2"), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsBadStreamCount) {
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 0}\n").find("streams"),
            std::string::npos);
  EXPECT_NE(ParseError("{\"aql_trace\": 1}\n").find("streams"), std::string::npos);
}

TEST(TraceParseTest, RejectsInvalidJsonWithLineNumber) {
  const std::string err = ParseError(
      "{\"aql_trace\": 1, \"streams\": 1}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 1}\n"
      "not json\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("invalid JSON"), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsUnknownOpKind) {
  const std::string err = ParseError(
      "{\"aql_trace\": 1, \"streams\": 1}\n"
      "{\"stream\": 0, \"op\": \"write\", \"at\": 0, \"burst_ns\": 1}\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown op kind \"write\""), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsOutOfRangeStream) {
  const std::string err = ParseError(
      "{\"aql_trace\": 1, \"streams\": 2}\n"
      "{\"stream\": 2, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 1}\n");
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsOutOfOrderArrivals) {
  const std::string err = ParseError(
      "{\"aql_trace\": 1, \"streams\": 1}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 100, \"burst_ns\": 1}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 99, \"burst_ns\": 1}\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("non-decreasing"), std::string::npos) << err;
}

TEST(TraceParseTest, RejectsNonIntegerOrMissingFields) {
  // Fractional arrival.
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"compute\", \"at\": 1.5, "
                       "\"burst_ns\": 1}\n")
                .find("\"at\""),
            std::string::npos);
  // Missing / nonpositive burst on work-carrying ops.
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"compute\", \"at\": 0}\n")
                .find("burst_ns"),
            std::string::npos);
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"io\", \"at\": 0, \"burst_ns\": 0}\n")
                .find("burst_ns"),
            std::string::npos);
  // remote_fraction outside [0, 1].
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"compute\", \"at\": 0, "
                       "\"burst_ns\": 1, \"remote_fraction\": 1.5}\n")
                .find("remote_fraction"),
            std::string::npos);
}

TEST(TraceParseTest, RejectsOpsAfterEndAndBurstOnEnd) {
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"end\", \"at\": 5, \"burst_ns\": 1}\n")
                .find("\"end\" must not carry"),
            std::string::npos);
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1}\n"
                       "{\"stream\": 0, \"op\": \"end\", \"at\": 5}\n"
                       "{\"stream\": 0, \"op\": \"compute\", \"at\": 6, "
                       "\"burst_ns\": 1}\n")
                .find("continues after"),
            std::string::npos);
}

TEST(TraceParseTest, RejectsBadWrapConfigurations) {
  // end ops are incompatible with cyclic replay.
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1, \"wrap_ns\": 100}\n"
                       "{\"stream\": 0, \"op\": \"end\", \"at\": 5}\n")
                .find("cyclic"),
            std::string::npos);
  // wrap must exceed every arrival.
  EXPECT_NE(ParseError("{\"aql_trace\": 1, \"streams\": 1, \"wrap_ns\": 100}\n"
                       "{\"stream\": 0, \"op\": \"compute\", \"at\": 100, "
                       "\"burst_ns\": 1}\n")
                .find("must exceed every arrival"),
            std::string::npos);
}

TEST(TraceParseTest, LoadPrefixesErrorsWithPath) {
  TraceData data;
  std::string error;
  EXPECT_FALSE(LoadTraceFile("nonexistent_trace.jsonl", &data, &error));
  EXPECT_NE(error.find("nonexistent_trace.jsonl"), std::string::npos) << error;
}

// --- source view ------------------------------------------------------------

TEST(TraceSourceTest, ReportsStreamsIoAndModels) {
  TraceData data;
  std::string error;
  ASSERT_TRUE(ParseTrace(
      "{\"aql_trace\": 1, \"streams\": 2, \"wrap_ns\": 1000}\n"
      "{\"stream\": 0, \"op\": \"io\", \"at\": 100, \"burst_ns\": 10}\n"
      "{\"stream\": 0, \"op\": \"compute\", \"at\": 600, \"burst_ns\": 20}\n"
      "{\"stream\": 1, \"op\": \"compute\", \"at\": 0, \"burst_ns\": 5}\n",
      &data, &error))
      << error;
  TraceSource source(std::make_shared<TraceData>(std::move(data)));
  ASSERT_EQ(source.Streams(), 2);
  EXPECT_TRUE(source.StreamHasIo(0));
  EXPECT_FALSE(source.StreamHasIo(1));
  EXPECT_EQ(source.MakeModels().size(), 2u);
}

// --- backend dispatch -------------------------------------------------------

TEST(WorkloadSourceTest, DispatchErrorsAreDescriptive) {
  WorkloadSourceSpec spec;
  std::string error;

  spec.backend = "mystery";
  EXPECT_EQ(MakeWorkloadSource(spec, &error), nullptr);
  EXPECT_NE(error.find("unknown workload backend"), std::string::npos) << error;

  spec.backend = "catalog";
  spec.app = "no_such_app";
  EXPECT_EQ(MakeWorkloadSource(spec, &error), nullptr);
  EXPECT_NE(error.find("unknown application"), std::string::npos) << error;

  spec.backend = "trace";
  spec.trace_path = "nonexistent_trace.jsonl";
  EXPECT_EQ(MakeWorkloadSource(spec, &error), nullptr);
  EXPECT_NE(error.find("nonexistent_trace.jsonl"), std::string::npos) << error;
}

TEST(WorkloadSourceTest, CatalogBackendReportsStreamsIoAndModels) {
  WorkloadSourceSpec spec;
  spec.backend = "catalog";
  spec.app = "pure_io";
  spec.vcpus = 2;
  std::string error;
  auto source = MakeWorkloadSource(spec, &error);
  ASSERT_NE(source, nullptr) << error;
  EXPECT_EQ(source->Streams(), 2);
  EXPECT_TRUE(source->StreamHasIo(0));
  EXPECT_TRUE(source->StreamHasIo(1));
  EXPECT_EQ(source->MakeModels().size(), 2u);

  WorkloadSourceSpec burn;
  burn.backend = "catalog";
  burn.app = "llco_list";
  std::string burn_error;
  auto burn_source = MakeWorkloadSource(burn, &burn_error);
  ASSERT_NE(burn_source, nullptr) << burn_error;
  EXPECT_EQ(burn_source->Streams(), 1);
  EXPECT_FALSE(burn_source->StreamHasIo(0));
  EXPECT_EQ(burn_source->MakeModels().size(), 1u);
}

// --- end-to-end replay ------------------------------------------------------

TEST(TraceReplayScenarioTest, ReplayedVmReportsLatencyMetrics) {
  const char* path = "trace_scenario_test.jsonl";
  // 100 requests/s, 100 us each, cyclic.
  std::ostringstream trace;
  trace << "{\"aql_trace\": 1, \"streams\": 1, \"wrap_ns\": 1000000000, "
           "\"name\": \"minitrace\", \"default_mem\": {\"wss_bytes\": 65536, "
           "\"llc_refs_per_ns\": 0.0001}}\n";
  for (int i = 0; i < 100; ++i) {
    trace << "{\"stream\": 0, \"op\": \"io\", \"at\": " << i * 10000000
          << ", \"burst_ns\": 100000}\n";
  }
  WriteFileText(path, trace.str());

  ScenarioSpec spec;
  spec.name = "trace_unit";
  spec.machine = SingleSocketMachine(2);
  spec.trace_path = path;
  spec.vms.push_back(VmSpec{kTraceAppName, 1});
  spec.vms.push_back(VmSpec{"llcf_list2", 1});
  spec.warmup = Ms(300);
  spec.measure = Ms(700);

  const ScenarioResult result = RunScenario(spec, PolicySpec::Xen(), RunOptions{});
  bool found = false;
  for (const GroupPerf& g : result.groups) {
    if (g.name == "minitrace") {
      found = true;
      EXPECT_GT(g.metrics.at("ops_per_s"), 0.0);
      EXPECT_GT(g.metrics.at("latency_mean_us"), 0.0);
      EXPECT_GT(g.primary, 0.0);
    }
  }
  EXPECT_TRUE(found) << "trace VM group missing from scenario result";

  // Identical reruns are byte-deterministic (replay consumes no RNG).
  const ScenarioResult again = RunScenario(spec, PolicySpec::Xen(), RunOptions{});
  EXPECT_EQ(result.GroupPrimary("minitrace"), again.GroupPrimary("minitrace"));
  EXPECT_EQ(result.events_processed, again.events_processed);
}

// --- registered sweep: determinism contract ---------------------------------

std::string StableDump(const SweepResult& result) {
  return SweepJson(result, /*include_timing=*/false).Dump();
}

TEST(TraceReplaySweepTest, IsRegistered) {
  EXPECT_NE(SweepRegistry::Instance().Find("trace_replay"), nullptr);
}

TEST(TraceReplaySweepTest, QuickRunIsJobAndIslandCountInvariant) {
  const SweepSpec* spec = SweepRegistry::Instance().Find("trace_replay");
  ASSERT_NE(spec, nullptr);
  SweepOptions serial;
  serial.quick = true;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  SweepOptions islands = parallel;
  islands.island_threads = 8;
  const std::string s1 = StableDump(RunSweep(*spec, serial));
  const std::string s4 = StableDump(RunSweep(*spec, parallel));
  const std::string s8 = StableDump(RunSweep(*spec, islands));
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s8);
}

// --- reference emitter round trip -------------------------------------------

TEST(TraceGenTest, PythonEmitterMatchesSweepWriterByteForByte) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  // The sweep's build hook writes the C++-emitted traces to bench_traces/.
  const SweepSpec* spec = SweepRegistry::Instance().Find("trace_replay");
  ASSERT_NE(spec, nullptr);
  SweepOptions opts;
  opts.quick = true;
  (void)spec->build(opts);

  const std::string cmd = std::string("python3 \"") + AQL_SOURCE_DIR +
                          "/scripts/trace_gen.py\" --all -d trace_gen_out "
                          "> /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  for (const char* kind : {"io", "lolcf", "llcf", "llco", "membw"}) {
    const std::string name = std::string("trace_") + kind + ".jsonl";
    const std::string cpp_text = ReadFileText("bench_traces/" + name);
    const std::string py_text = ReadFileText("trace_gen_out/" + name);
    ASSERT_FALSE(cpp_text.empty()) << name;
    EXPECT_EQ(cpp_text, py_text) << name << ": the reference emitter and the "
                                 << "sweep's writer diverged";
    // And the emitted document satisfies its own spec.
    TraceData data;
    std::string error;
    EXPECT_TRUE(ParseTrace(py_text, &data, &error)) << name << ": " << error;
  }
}

}  // namespace
}  // namespace aql
