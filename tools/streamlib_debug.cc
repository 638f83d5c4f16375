// streamlib_debug: flight-recorder + time-travel topology debugger CLI.
//
// Records a demo topology run to an SLFR file and drives the deterministic
// replayer over it (DESIGN.md §11):
//
//   streamlib_debug record --out=R.slfr [--tuples=N] [--seed=S]
//                          [--diverge-at=K] [--faults] [--alo]
//   streamlib_debug replay --in=R.slfr
//   streamlib_debug step --in=R.slfr [--count=N]
//   streamlib_debug break --in=R.slfr (--task=T --tuple=N | --first-fault)
//   streamlib_debug dump-state --in=R.slfr [--at=M]
//   streamlib_debug dump-trace --in=R.slfr [--limit=N]
//   streamlib_debug bisect --a=A.slfr --b=B.slfr
//
// The built-in demo topology (1 spout -> 1 relay -> 2 CountMin shards + 2
// HyperLogLog shards -> combiners) satisfies the replay determinism
// contract, so `replay` verifies the re-execution against the recorded
// run summary and exits nonzero on any divergence. `bisect` binary-
// searches the earliest emission where two recordings' sketch states
// part ways; `--diverge-at=K` plants such a divergence for testing.
//
// `break --task=T` needs a task with an input queue. The demo runs with
// the default EngineConfig, so relay (task 1) is fused into the spout
// (task 0) and neither can be broken on; the sketch shards (tasks 2-5)
// are queued.
//
// Exit codes: 0 success, 1 divergence/verification failure, 2 usage or
// I/O error (a breakpoint that can never fire included).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/state_debug.h"
#include "core/cardinality/hyperloglog.h"
#include "core/frequency/count_min_sketch.h"
#include "platform/components.h"
#include "platform/engine.h"
#include "platform/recorder.h"
#include "platform/replay.h"
#include "platform/stream_operators.h"

namespace {

using namespace streamlib;
using namespace streamlib::platform;

// ---------------------------------------------------------- flag parsing

struct Flags {
  std::string out;
  std::string in;
  std::string a;
  std::string b;
  uint64_t tuples = 2000;
  uint64_t seed = 42;
  int64_t diverge_at = -1;
  bool faults = false;
  bool alo = false;
  uint64_t count = 10;
  int64_t at = -1;
  uint64_t limit = 10;
  int64_t task = -1;
  int64_t tuple = -1;
  bool first_fault = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 0; i < argc; i++) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.compare(0, prefix.size(), prefix) == 0) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    if (auto v = value_of("out")) {
      flags->out = *v;
    } else if (auto v = value_of("in")) {
      flags->in = *v;
    } else if (auto v = value_of("a")) {
      flags->a = *v;
    } else if (auto v = value_of("b")) {
      flags->b = *v;
    } else if (auto v = value_of("tuples")) {
      flags->tuples = std::stoull(*v);
    } else if (auto v = value_of("seed")) {
      flags->seed = std::stoull(*v);
    } else if (auto v = value_of("diverge-at")) {
      flags->diverge_at = std::stoll(*v);
    } else if (auto v = value_of("count")) {
      flags->count = std::stoull(*v);
    } else if (auto v = value_of("at")) {
      flags->at = std::stoll(*v);
    } else if (auto v = value_of("limit")) {
      flags->limit = std::stoull(*v);
    } else if (auto v = value_of("task")) {
      flags->task = std::stoll(*v);
    } else if (auto v = value_of("tuple")) {
      flags->tuple = std::stoll(*v);
    } else if (arg == "--faults") {
      flags->faults = true;
    } else if (arg == "--alo") {
      flags->alo = true;
    } else if (arg == "--first-fault") {
      flags->first_fault = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- demo topology

/// Word stream feeding the demo topology. Deterministic in (seed, tuples);
/// `diverge_at` >= 0 swaps that one emission for an out-of-vocabulary
/// word, planting a divergence for bisect to find.
struct WordStream {
  Rng rng;
  uint64_t produced = 0;
  uint64_t total;
  int64_t diverge_at;

  WordStream(uint64_t seed, uint64_t total, int64_t diverge_at)
      : rng(seed), total(total), diverge_at(diverge_at) {}

  std::optional<Tuple> Next() {
    if (produced >= total) return std::nullopt;
    const uint64_t index = produced++;
    std::string word = "w" + std::to_string(rng.NextBounded(40));
    if (diverge_at >= 0 && index == static_cast<uint64_t>(diverge_at)) {
      word = "DIVERGENT";
    }
    return Tuple::Of(std::move(word), static_cast<int64_t>(index));
  }
};

/// The fixed demo topology. Its shape (and therefore its fingerprint) is
/// independent of the word-stream parameters, so any recording made by
/// `record` replays against it. Structure obeys the determinism contract:
/// single spout task, single relay task, every run-phase bolt has one
/// producer task, combiners are fed only by the finish pass.
Topology BuildDemoTopology(uint64_t seed, uint64_t tuples,
                           int64_t diverge_at) {
  TopologyBuilder builder;
  builder.AddSpout("words", [seed, tuples, diverge_at]() {
    auto stream = std::make_shared<WordStream>(seed, tuples, diverge_at);
    return std::make_unique<GeneratorSpout>(
        [stream]() { return stream->Next(); });
  });
  builder.AddBolt(
      "relay",
      []() {
        return std::make_unique<FunctionBolt>(
            [](const Tuple& input, OutputCollector* collector) {
              collector->Emit(input);
            });
      },
      1, {{"words", Grouping::Shuffle()}});
  builder.AddBolt(
      "cm",
      []() {
        return std::make_unique<SketchBolt<CountMinSketch>>(
            CountMinSketch(1024, 4),
            [](CountMinSketch& sketch, const Tuple& t) {
              sketch.Add(t.Str(0));
            },
            FieldKeyBatchUpdate<CountMinSketch>(0));
      },
      2, {{"relay", Grouping::Fields(0)}});
  builder.AddBolt(
      "hll",
      []() {
        return std::make_unique<SketchBolt<HyperLogLog>>(
            HyperLogLog(10, /*sparse=*/false),
            [](HyperLogLog& sketch, const Tuple& t) {
              sketch.Add(t.Str(0));
            },
            FieldKeyBatchUpdate<HyperLogLog>(0));
      },
      2, {{"relay", Grouping::Fields(0)}});
  builder.AddBolt(
      "cm_merge",
      []() {
        return std::make_unique<SketchCombinerBolt<CountMinSketch>>(
            CountMinSketch(1024, 4));
      },
      1, {{"cm", Grouping::Global()}});
  builder.AddBolt(
      "hll_merge",
      []() {
        return std::make_unique<SketchCombinerBolt<HyperLogLog>>(
            HyperLogLog(10, /*sparse=*/false));
      },
      1, {{"hll", Grouping::Global()}});
  return builder.Build().value();
}

EngineConfig DemoConfig(uint64_t seed, bool faults, bool alo) {
  EngineConfig config;
  config.seed = seed;
  config.semantics =
      alo ? DeliverySemantics::kAtLeastOnce : DeliverySemantics::kAtMostOnce;
  config.telemetry_sample_interval_ms = 0;
  if (faults) {
    config.faults.seed = seed ^ 0xfau;
    config.faults.drop_tuple_prob = 0.01;
    config.faults.duplicate_tuple_prob = 0.01;
    config.faults.delay_delivery_prob = 0.005;
    config.faults.delay_max_micros = 20;
    config.faults.bolt_throw_prob = 0.005;
    config.faults.task_crash_prob = 0.005;
  }
  // Long enough that only fault-hit roots time out, short enough that the
  // recording does not idle long waiting them out.
  if (alo) config.ack_timeout_seconds = 5.0;
  return config;
}

// ------------------------------------------------------------- utilities

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 2;
}

Result<std::unique_ptr<ReplayEngine>> LoadReplay(const std::string& path) {
  Result<RecordedRun> run = ReadRecording(path);
  if (!run.ok()) return run.status();
  const uint64_t seed = run.value().config.seed;
  auto engine = std::make_unique<ReplayEngine>(
      BuildDemoTopology(seed, 0, -1), std::move(run).value());
  Status prepared = engine->Prepare();
  if (!prepared.ok()) return prepared;
  return engine;
}

std::string DescribeRecord(const RecordedEmission& record) {
  const std::string task = "spout_task=" + std::to_string(record.spout_task);
  if (record.tuple.IsBarrier()) {
    return task + " epoch cut " + std::to_string(record.tuple.barrier_epoch());
  }
  return task + " " + record.tuple.ToString();
}

void PrintTaskStates(const ReplayEngine& engine) {
  for (size_t i = 0; i < engine.task_count(); i++) {
    const TaskMetrics& m = engine.task_metrics(i);
    std::printf("  task %zu %s[%u]: emitted=%llu executed=%llu acked=%llu "
                "failed=%llu exceptions=%llu",
                i, m.component().c_str(), m.task_index(),
                static_cast<unsigned long long>(m.emitted()),
                static_cast<unsigned long long>(m.executed()),
                static_cast<unsigned long long>(m.acked()),
                static_cast<unsigned long long>(m.failed()),
                static_cast<unsigned long long>(m.bolt_exceptions()));
    std::optional<std::vector<uint8_t>> blob = engine.TaskStateBlob(i);
    if (blob.has_value()) {
      Result<std::string> described = state::DescribeBlob(*blob);
      std::printf("  state: %s", described.ok()
                                     ? described.value().c_str()
                                     : described.status().ToString().c_str());
    }
    std::printf("\n");
  }
}

// --------------------------------------------------------------- commands

int CmdRecord(const Flags& flags) {
  if (flags.out.empty()) {
    std::fprintf(stderr, "record: --out=PATH required\n");
    return 2;
  }
  const Topology topology =
      BuildDemoTopology(flags.seed, flags.tuples, flags.diverge_at);
  EngineConfig config = DemoConfig(flags.seed, flags.faults, flags.alo);
  Result<std::unique_ptr<RunRecorder>> recorder =
      RunRecorder::Create(flags.out, config, topology);
  if (!recorder.ok()) return Fail("record", recorder.status());
  config.recorder = recorder.value().get();

  TopologyEngine engine(
      BuildDemoTopology(flags.seed, flags.tuples, flags.diverge_at), config);
  engine.Run();
  const Status finalized = recorder.value()->Finalize();
  if (!finalized.ok()) return Fail("record: finalize", finalized);
  std::printf("recorded %llu records (%llu bytes) to %s\n",
              static_cast<unsigned long long>(
                  recorder.value()->records_written()),
              static_cast<unsigned long long>(
                  recorder.value()->bytes_written()),
              flags.out.c_str());
  return 0;
}

int CmdReplay(const Flags& flags) {
  Result<std::unique_ptr<ReplayEngine>> engine = LoadReplay(flags.in);
  if (!engine.ok()) return Fail("replay", engine.status());
  ReplayEngine& replay = *engine.value();
  while (replay.Run() != ReplayStop::kEnd) {
  }
  std::printf("replayed %llu emissions\n",
              static_cast<unsigned long long>(replay.emissions_processed()));
  PrintTaskStates(replay);
  const Status verdict = replay.CompareWithRecorded();
  if (!verdict.ok()) {
    std::fprintf(stderr, "%s\n", verdict.ToString().c_str());
    return 1;
  }
  std::printf("replay matches recorded run summary\n");
  return 0;
}

int CmdStep(const Flags& flags) {
  Result<std::unique_ptr<ReplayEngine>> engine = LoadReplay(flags.in);
  if (!engine.ok()) return Fail("step", engine.status());
  ReplayEngine& replay = *engine.value();
  for (uint64_t i = 0; i < flags.count; i++) {
    const ReplayStop stop = replay.Step();
    std::printf("step %llu: emissions=%llu/%llu pending=%zu\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(
                    replay.emissions_processed()),
                static_cast<unsigned long long>(replay.total_emissions()),
                replay.pending_deliveries());
    if (stop == ReplayStop::kEnd) {
      std::printf("end of recording\n");
      break;
    }
  }
  return 0;
}

int CmdBreak(const Flags& flags) {
  Result<std::unique_ptr<ReplayEngine>> engine = LoadReplay(flags.in);
  if (!engine.ok()) return Fail("break", engine.status());
  ReplayEngine& replay = *engine.value();
  Breakpoint breakpoint{Breakpoint::Kind::kFirstFault, 0, 0};
  if (!flags.first_fault) {
    if (flags.task < 0 || flags.tuple < 0) {
      std::fprintf(stderr,
                   "break: need --task=T --tuple=N or --first-fault\n");
      return 2;
    }
    breakpoint = Breakpoint{Breakpoint::Kind::kTaskTuple,
                            static_cast<size_t>(flags.task),
                            static_cast<uint64_t>(flags.tuple)};
  }
  const Status added = replay.AddBreakpoint(breakpoint);
  if (!added.ok()) return Fail("break", added);
  const ReplayStop stop = replay.Run();
  if (stop != ReplayStop::kBreakpoint) {
    std::printf("breakpoint never fired (replay ran to end)\n");
    PrintTaskStates(replay);
    return 1;
  }
  std::printf("breakpoint hit: emissions=%llu/%llu pending=%zu\n",
              static_cast<unsigned long long>(replay.emissions_processed()),
              static_cast<unsigned long long>(replay.total_emissions()),
              replay.pending_deliveries());
  PrintTaskStates(replay);
  return 0;
}

int CmdDumpState(const Flags& flags) {
  Result<std::unique_ptr<ReplayEngine>> engine = LoadReplay(flags.in);
  if (!engine.ok()) return Fail("dump-state", engine.status());
  ReplayEngine& replay = *engine.value();
  const uint64_t at = flags.at >= 0 ? static_cast<uint64_t>(flags.at)
                                    : replay.total_emissions();
  const Status ran = replay.RunToEmission(at);
  if (!ran.ok()) return Fail("dump-state", ran);
  std::printf("state after %llu emissions:\n",
              static_cast<unsigned long long>(replay.emissions_processed()));
  PrintTaskStates(replay);
  return 0;
}

int CmdDumpTrace(const Flags& flags) {
  Result<RecordedRun> run = ReadRecording(flags.in);
  if (!run.ok()) return Fail("dump-trace", run.status());
  const RecordedRun& recording = run.value();
  std::printf("%zu recorded records, %llu of them emissions (seed 0x%llx)\n",
              recording.emissions.size(),
              static_cast<unsigned long long>(recording.EmissionCount()),
              static_cast<unsigned long long>(recording.config.seed));
  const size_t n =
      std::min<size_t>(flags.limit, recording.emissions.size());
  for (size_t i = 0; i < n; i++) {
    std::printf("  [%zu] %s\n", i,
                DescribeRecord(recording.emissions[i]).c_str());
  }
  if (n < recording.emissions.size()) {
    std::printf("  ... %zu more\n", recording.emissions.size() - n);
  }
  return 0;
}

int CmdBisect(const Flags& flags) {
  Result<RecordedRun> run_a = ReadRecording(flags.a);
  if (!run_a.ok()) return Fail("bisect: --a", run_a.status());
  Result<RecordedRun> run_b = ReadRecording(flags.b);
  if (!run_b.ok()) return Fail("bisect: --b", run_b.status());

  const uint64_t seed_a = run_a.value().config.seed;
  const uint64_t seed_b = run_b.value().config.seed;
  ReplayTarget a{[seed_a]() { return BuildDemoTopology(seed_a, 0, -1); },
                 &run_a.value()};
  ReplayTarget b{[seed_b]() { return BuildDemoTopology(seed_b, 0, -1); },
                 &run_b.value()};
  Result<std::optional<uint64_t>> divergence = FindFirstDivergence(a, b);
  if (!divergence.ok()) return Fail("bisect", divergence.status());
  if (!divergence.value().has_value()) {
    std::printf("no divergence: %llu emissions replay to identical state\n",
                static_cast<unsigned long long>(run_a.value().EmissionCount()));
    return 0;
  }
  const uint64_t index = *divergence.value();
  std::printf("first divergence at emission %llu\n",
              static_cast<unsigned long long>(index));
  // The index counts emissions only; epoch-cut records are skipped.
  auto show = [index](const char* name, const RecordedRun& run) {
    uint64_t seen = 0;
    for (const RecordedEmission& record : run.emissions) {
      if (record.tuple.IsBarrier() || seen++ < index) continue;
      std::printf("  %s[%llu] = %s\n", name,
                  static_cast<unsigned long long>(index),
                  DescribeRecord(record).c_str());
      return;
    }
    std::printf("  %s has no emission %llu (recording ends)\n", name,
                static_cast<unsigned long long>(index));
  };
  show("a", run_a.value());
  show("b", run_b.value());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: streamlib_debug COMMAND [flags]\n"
      "  record     --out=PATH [--tuples=N] [--seed=S] [--diverge-at=K]\n"
      "             [--faults] [--alo]\n"
      "  replay     --in=PATH\n"
      "  step       --in=PATH [--count=N]\n"
      "  break      --in=PATH (--task=T --tuple=N | --first-fault)\n"
      "  dump-state --in=PATH [--at=M]\n"
      "  dump-trace --in=PATH [--limit=N]\n"
      "  bisect     --a=PATH --b=PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  if (!ParseFlags(argc - 2, argv + 2, &flags)) return 2;

  if (command == "record") return CmdRecord(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "step") return CmdStep(flags);
  if (command == "break") return CmdBreak(flags);
  if (command == "dump-state") return CmdDumpState(flags);
  if (command == "dump-trace") return CmdDumpTrace(flags);
  if (command == "bisect") return CmdBisect(flags);
  return Usage();
}
