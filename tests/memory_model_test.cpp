// Memory-model backends (pram/faults.hpp, docs/fault-models.md): unit
// behaviour of CellFaultMap and SharedMemory under faults, the reliable
// backend's regression guarantee across execution backends, the semantic
// contract of the persistent-cache discipline (write-back reads, amnesia on
// failure, persist()/cadence/halt flushes), format round-trips for the new
// schedule moves / meta keys / checkpoint state, backend-aware audit
// checks, and the determinism matrix — two identical runs, record→replay,
// and checkpoint→resume all land on the identical outcome — for both
// non-reliable models under random, burst, and chaos adversaries.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "fault/adversaries.hpp"
#include "pram/engine.hpp"
#include "pram/faults.hpp"
#include "pram/memory.hpp"
#include "programs/programs.hpp"
#include "replay/checkpoint.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "test_util.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using ::rfsp::testing::ChaosAdversary;
using ::rfsp::testing::LambdaAdversary;
using ::rfsp::testing::LambdaProgram;

FaultDecision no_faults(const MachineView&) { return {}; }

// --- Names -------------------------------------------------------------------

TEST(MemoryModelNames, RoundTripAndReject) {
  for (MemoryModel m : {MemoryModel::kReliable, MemoryModel::kFaultyCells,
                        MemoryModel::kPersistentCache}) {
    EXPECT_EQ(memory_model_from_string(to_string(m)), m);
  }
  EXPECT_THROW(memory_model_from_string("flaky"), ConfigError);
  EXPECT_THROW(memory_model_from_string(""), ConfigError);
}

// --- CellFaultMap units ------------------------------------------------------

TEST(FaultMap, BuildIsDeterministicAndFullyRemappedUnderAutoSpares) {
  const FaultyCellsOptions opt{.seed = 7, .cells = 5};
  const CellFaultMap a = CellFaultMap::build(opt, 64);
  const CellFaultMap b = CellFaultMap::build(opt, 64);
  EXPECT_EQ(a.static_faults(), 5u);
  EXPECT_EQ(a.spare_cells(), 5u);   // kSparesAuto: every fault absorbed
  EXPECT_EQ(a.unremapped(), 0u);
  std::vector<Addr> spares;
  for (Addr c = 0; c < 64; ++c) {
    EXPECT_EQ(a.is_dead(c), b.is_dead(c));
    EXPECT_EQ(a.is_remapped(c), b.is_remapped(c));
    EXPECT_EQ(a.translate(c), b.translate(c));
    EXPECT_FALSE(a.is_dead(c));  // all remapped, none observably stuck
    if (a.is_remapped(c)) {
      EXPECT_GE(a.translate(c), 64u);  // spares live past the address space
      spares.push_back(a.translate(c));
    } else {
      EXPECT_EQ(a.translate(c), c);
    }
  }
  EXPECT_EQ(spares.size(), 5u);
  std::sort(spares.begin(), spares.end());
  EXPECT_EQ(std::unique(spares.begin(), spares.end()), spares.end());
}

TEST(FaultMap, ExhaustedSparesLeaveDeterministicallyDeadCells) {
  const FaultyCellsOptions opt{.seed = 11, .cells = 6, .spares = 2};
  const CellFaultMap a = CellFaultMap::build(opt, 32);
  const CellFaultMap b = CellFaultMap::build(opt, 32);
  EXPECT_EQ(a.spare_cells(), 2u);
  EXPECT_EQ(a.unremapped(), 4u);
  for (Addr c = 0; c < 32; ++c) {
    EXPECT_EQ(a.is_dead(c), b.is_dead(c));
    if (a.is_dead(c)) {
      EXPECT_EQ(a.garbage(c), b.garbage(c));     // seeded, reproducible
      EXPECT_EQ(a.garbage(c), a.garbage(c));     // and stable per cell
    }
  }
}

TEST(FaultMap, InjectSeversRemapsAndRecordsEffectiveMovesOnly) {
  CellFaultMap map = CellFaultMap::build({.seed = 3, .cells = 2}, 32);
  Addr remapped = 32, ok = 32;
  for (Addr c = 0; c < 32; ++c) {
    if (map.is_remapped(c) && remapped == 32) remapped = c;
    if (!map.is_remapped(c) && !map.is_dead(c) && ok == 32) ok = c;
  }
  ASSERT_LT(remapped, 32u);
  ASSERT_LT(ok, 32u);

  EXPECT_TRUE(map.inject(remapped));  // severs the spare redirection
  EXPECT_TRUE(map.is_dead(remapped));
  EXPECT_EQ(map.unremapped(), 1u);
  EXPECT_FALSE(map.inject(remapped));  // already dead: no-op, not recorded
  EXPECT_TRUE(map.inject(ok));
  EXPECT_EQ(map.unremapped(), 2u);
  EXPECT_EQ(map.injected(), (std::vector<Addr>{remapped, ok}));
}

// --- SharedMemory under a fault map ------------------------------------------

TEST(SharedMemoryFaults, DeadCellsDropWritesAndReturnGarbage) {
  const CellFaultMap map =
      CellFaultMap::build({.seed = 11, .cells = 3, .spares = 0}, 16);
  ASSERT_EQ(map.unremapped(), 3u);
  SharedMemory mem(16, &map);
  for (Addr c = 0; c < 16; ++c) {
    if (map.is_dead(c)) {
      EXPECT_FALSE(mem.write(c, 42));
      EXPECT_EQ(mem.read(c), map.garbage(c));
    } else {
      EXPECT_TRUE(mem.write(c, 42));
      EXPECT_EQ(mem.read(c), 42);
    }
  }
  EXPECT_EQ(mem.dropped_writes(), 3u);
  // The flat whole-memory view is unavailable under a fault map.
  EXPECT_THROW(mem.words(), std::logic_error);
}

TEST(SharedMemoryFaults, RemappedCellsReadBackThroughSpares) {
  const CellFaultMap map = CellFaultMap::build({.seed = 5, .cells = 4}, 32);
  SharedMemory mem(32, &map);
  EXPECT_EQ(mem.storage_size(), 32u + 4u);  // spares appended past the space
  for (Addr c = 0; c < 32; ++c) {
    EXPECT_TRUE(mem.write(c, static_cast<Word>(100 + c)));
  }
  for (Addr c = 0; c < 32; ++c) {
    EXPECT_EQ(mem.read(c), static_cast<Word>(100 + c));
  }
  EXPECT_EQ(mem.dropped_writes(), 0u);
}

// The bounds diagnostic names the offending address and processor (the old
// message reported only the memory size).
TEST(SharedMemoryFaults, BoundsMessageNamesCellAndPid) {
  SharedMemory mem(8);
  try {
    mem.write(99, 1, /*pid=*/3);
    FAIL() << "out-of-bounds write did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 99"), std::string::npos) << what;
    EXPECT_NE(what.find("memory size 8"), std::string::npos) << what;
    EXPECT_NE(what.find("pid 3"), std::string::npos) << what;
  }
  try {
    (void)mem.read(12);  // engine-internal access: no processor to blame
    FAIL() << "out-of-bounds read did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 12"), std::string::npos) << what;
    EXPECT_EQ(what.find("pid"), std::string::npos) << what;
  }
}

// --- Engine config gates -----------------------------------------------------

TEST(MemoryModelConfig, IncompatibleModesAreConfigErrors) {
  const WriteAllConfig config{.n = 8, .p = 2};
  const auto program = make_writeall(WriteAllAlgo::kX, config);
  {
    EngineOptions options;
    options.memory_model = MemoryModel::kFaultyCells;
    options.unit_cost_snapshot = true;
    EXPECT_THROW(Engine(*program, options), ConfigError);
  }
  {
    EngineOptions options;
    options.memory_model = MemoryModel::kPersistentCache;
    options.bit_atomic_writes = true;
    EXPECT_THROW(Engine(*program, options), ConfigError);
  }
}

TEST(MemoryModelConfig, ModelMovesRequireTheirModel) {
  const WriteAllConfig config{.n = 8, .p = 2};
  // cell_faults under the (default) reliable model.
  {
    const auto program = make_writeall(WriteAllAlgo::kX, config);
    Engine engine(*program);
    LambdaAdversary adversary([](const MachineView&) {
      FaultDecision d;
      d.cell_faults.push_back(0);
      return d;
    });
    EXPECT_THROW(engine.run(adversary), AdversaryViolation);
  }
  // cache_drop under the faulty-cells model.
  {
    const auto program = make_writeall(WriteAllAlgo::kX, config);
    EngineOptions options;
    options.memory_model = MemoryModel::kFaultyCells;
    options.faulty_cells = {.seed = 1, .cells = 1};
    Engine engine(*program, options);
    LambdaAdversary adversary([](const MachineView&) {
      FaultDecision d;
      d.cache_drop.push_back(0);
      return d;
    });
    EXPECT_THROW(engine.run(adversary), AdversaryViolation);
  }
}

// --- Reliable backend: regression guarantee ----------------------------------

// Selecting kReliable explicitly is the default engine bit for bit, across
// both execution backends.
TEST(ReliableModel, ExplicitSelectionMatchesDefaultAcrossBackends) {
  const WriteAllConfig config{.n = 64, .p = 8};
  EngineOptions base;
  base.max_slots = 4000;
  ChaosAdversary baseline_adversary(91, /*allow_torn=*/false);
  const WriteAllOutcome baseline =
      run_writeall(WriteAllAlgo::kX, config, baseline_adversary, base);
  ASSERT_TRUE(baseline.solved);

  for (const char* backend : {"sequential", "batch"}) {
    SCOPED_TRACE(backend);
    EngineOptions options = base;
    options.memory_model = MemoryModel::kReliable;
    if (std::string(backend) == "batch") options.batch = true;
    ChaosAdversary adversary(91, /*allow_torn=*/false);
    const WriteAllOutcome outcome =
        run_writeall(WriteAllAlgo::kX, config, adversary, options);
    EXPECT_EQ(outcome.run.tally, baseline.run.tally);
    EXPECT_EQ(outcome.solved, baseline.solved);
  }
}

// persist_every = 1 flushes every completed cycle, so for COMMON-disciplined
// programs the persistent-cache model is observably the reliable machine —
// same memory image, same tally apart from the flush count.
TEST(PersistentCache, CadenceOneMatchesReliable) {
  const WriteAllConfig config{.n = 48, .p = 6};
  const auto program = make_writeall(WriteAllAlgo::kX, config);
  EngineOptions reliable_options;
  reliable_options.max_slots = 4000;
  Engine reliable(*program, reliable_options);
  ChaosAdversary reliable_adversary(17, /*allow_torn=*/false);
  const RunResult expect = reliable.run(reliable_adversary);
  ASSERT_TRUE(expect.goal_met);

  EngineOptions cached_options = reliable_options;
  cached_options.memory_model = MemoryModel::kPersistentCache;
  cached_options.persistent_cache = {.persist_every = 1};
  Engine cached(*program, cached_options);
  ChaosAdversary cached_adversary(17, /*allow_torn=*/false);
  const RunResult got = cached.run(cached_adversary);

  EXPECT_GT(got.tally.persists, 0u);
  WorkTally masked = got.tally;
  masked.persists = expect.tally.persists;
  EXPECT_EQ(masked, expect.tally);
  EXPECT_EQ(got.goal_met, expect.goal_met);
  for (Addr c = 0; c < program->memory_size(); ++c) {
    ASSERT_EQ(cached.memory().read(c), reliable.memory().read(c)) << c;
  }
}

// --- Persistent-cache semantics ----------------------------------------------

EngineOptions amnesia_options(std::uint64_t persist_every, Slot max_slots) {
  EngineOptions options;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache = {.persist_every = persist_every};
  options.max_slots = max_slots;
  return options;
}

TEST(PersistentCache, FailureDiscardsUnpersistedWrites) {
  // pid 1 idles alive so failing pid 0 cannot strand the machine (2(i)).
  LambdaProgram program(2, 4,
                        [](Pid pid, std::uint64_t cycle, CycleContext& ctx) {
    if (pid == 0 && cycle == 0) ctx.write(0, 5);
    return true;  // never halt: only the cadence/persist()/failure matter
  });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 1) d.fail_after_cycle.push_back(0);
    if (view.slot() == 3) d.restart.push_back(0);
    return d;
  });
  Engine engine(program, amnesia_options(/*persist_every=*/0, 6));
  const RunResult result = engine.run(adversary);
  EXPECT_TRUE(result.slot_limit);
  EXPECT_EQ(engine.memory().read(0), 0);  // the write died with the cache
  EXPECT_EQ(result.tally.persists, 0u);
}

TEST(PersistentCache, PersistOpPublishesBeforeTheFailure) {
  LambdaProgram program(2, 4,
                        [](Pid pid, std::uint64_t cycle, CycleContext& ctx) {
    if (pid == 0 && cycle == 0) ctx.write(0, 5);
    if (pid == 0 && cycle == 1) ctx.persist();
    return true;
  });
  // pid 0 stays down (pid 1 keeps the machine live): a restart would boot
  // it back to cycle 0 and repeat the write + persist.
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 2) d.fail_after_cycle.push_back(0);
    return d;
  });
  Engine engine(program, amnesia_options(/*persist_every=*/0, 6));
  const RunResult result = engine.run(adversary);
  EXPECT_EQ(engine.memory().read(0), 5);
  EXPECT_EQ(result.tally.persists, 1u);
}

TEST(PersistentCache, HaltFlushesImplicitly) {
  LambdaProgram program(1, 4, [](Pid, std::uint64_t cycle, CycleContext& ctx) {
    if (cycle == 0) {
      ctx.write(0, 5);
      return true;
    }
    return false;  // halt in cycle 1: the implicit flush publishes cell 0
  });
  LambdaAdversary adversary(no_faults);
  Engine engine(program, amnesia_options(/*persist_every=*/0, 8));
  const RunResult result = engine.run(adversary);
  EXPECT_EQ(engine.memory().read(0), 5);
  EXPECT_EQ(result.tally.persists, 1u);
}

// Write-back semantics: a processor reads its own un-persisted writes.
TEST(PersistentCache, ProcessorReadsItsOwnCachedWrites) {
  LambdaProgram program(1, 4, [](Pid, std::uint64_t cycle, CycleContext& ctx) {
    if (cycle == 0) {
      ctx.write(0, 7);
      return true;
    }
    if (cycle == 1) {
      ctx.write(1, ctx.read(0));  // cell 0 is only in the cache here
      return true;
    }
    return false;
  });
  LambdaAdversary adversary(no_faults);
  Engine engine(program, amnesia_options(/*persist_every=*/0, 8));
  engine.run(adversary);
  EXPECT_EQ(engine.memory().read(1), 7);
}

TEST(PersistentCache, CacheDropMoveDiscardsTheCache) {
  LambdaProgram program(1, 4, [](Pid, std::uint64_t cycle, CycleContext& ctx) {
    if (cycle == 0) ctx.write(0, 5);
    return true;
  });
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.slot() == 1) d.cache_drop.push_back(0);
    return d;
  });
  Engine engine(program, amnesia_options(/*persist_every=*/0, 4));
  const RunResult result = engine.run(adversary);
  EXPECT_EQ(engine.memory().read(0), 0);
  EXPECT_EQ(result.tally.persists, 0u);
}

TEST(PersistentCache, PersistOpIsAModelViolationElsewhere) {
  LambdaProgram program(1, 4, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.persist();
    return false;
  });
  LambdaAdversary adversary(no_faults);
  Engine engine(program);
  EXPECT_THROW(engine.run(adversary), ModelViolation);
}

// --- Faulty cells: unsolvable gate -------------------------------------------

TEST(FaultyCells, ExcessDensityIsReportedUnsolvable) {
  const WriteAllConfig config{.n = 32, .p = 4};
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = 9, .cells = 3, .spares = 0};
  LambdaAdversary adversary(no_faults);
  const WriteAllOutcome outcome =
      run_writeall(WriteAllAlgo::kX, config, adversary, options);
  EXPECT_TRUE(outcome.unsolvable);
  EXPECT_FALSE(outcome.solved);
  EXPECT_EQ(outcome.run.tally.slots, 0u);  // refused up front, never ran
}

TEST(FaultyCells, RemappedDensitySolvesLikeReliable) {
  const WriteAllConfig config{.n = 64, .p = 8};
  EngineOptions options;
  options.max_slots = 4000;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = 9, .cells = 12};  // auto spares: absorbed
  ChaosAdversary adversary(23, /*allow_torn=*/false);
  const WriteAllOutcome outcome =
      run_writeall(WriteAllAlgo::kX, config, adversary, options);
  EXPECT_TRUE(outcome.solved);

  // The remap is free: the tally matches the reliable run move for move.
  EngineOptions reliable = options;
  reliable.memory_model = MemoryModel::kReliable;
  ChaosAdversary again(23, /*allow_torn=*/false);
  const WriteAllOutcome baseline =
      run_writeall(WriteAllAlgo::kX, config, again, reliable);
  EXPECT_EQ(outcome.run.tally, baseline.run.tally);
}

// --- Format round-trips ------------------------------------------------------

TEST(ModelFormats, ScheduleCarriesCellFaultAndCacheDropMoves) {
  FaultSchedule schedule;
  ScheduleEntry entry;
  entry.slot = 4;
  entry.decision.fail_after_cycle = {1};
  entry.decision.cell_faults = {7, 7, 30};
  entry.decision.cache_drop = {0, 2};
  schedule.entries.push_back(entry);
  EXPECT_EQ(schedule.move_count(), 6u);

  const FaultSchedule back = schedule_from_jsonl(schedule_to_jsonl(schedule));
  EXPECT_EQ(back, schedule);
}

TEST(ModelFormats, ReproMetaRoundTripsModelOptions) {
  {
    ReproSpec spec;
    spec.algo = WriteAllAlgo::kX;
    spec.n = 48;
    spec.p = 8;
    spec.memory_model = MemoryModel::kFaultyCells;
    spec.faulty_cells = {.seed = 41, .cells = 6, .spares = 3};
    FaultSchedule schedule;
    write_meta(spec, schedule, ProbeStatus::kSolved);
    const ReproSpec back = spec_from_meta(schedule);
    EXPECT_EQ(back.memory_model, MemoryModel::kFaultyCells);
    EXPECT_EQ(back.faulty_cells.seed, 41u);
    EXPECT_EQ(back.faulty_cells.cells, 6u);
    EXPECT_EQ(back.faulty_cells.spares, 3u);
  }
  {
    ReproSpec spec;
    spec.algo = WriteAllAlgo::kV;
    spec.n = 32;
    spec.p = 4;
    spec.memory_model = MemoryModel::kPersistentCache;
    spec.persistent_cache = {.persist_every = 16};
    FaultSchedule schedule;
    write_meta(spec, schedule, ProbeStatus::kSolved);
    const ReproSpec back = spec_from_meta(schedule);
    EXPECT_EQ(back.memory_model, MemoryModel::kPersistentCache);
    EXPECT_EQ(back.persistent_cache.persist_every, 16u);
  }
  {
    // Reliable specs stamp no model keys: files stay byte-compatible.
    ReproSpec spec;
    spec.algo = WriteAllAlgo::kX;
    spec.n = 8;
    spec.p = 2;
    FaultSchedule schedule;
    write_meta(spec, schedule, ProbeStatus::kSolved);
    EXPECT_FALSE(schedule.meta.contains("memory_model"));
    EXPECT_FALSE(schedule.meta.contains("fault_seed"));
    EXPECT_FALSE(schedule.meta.contains("persist_every"));
  }
}

TEST(ModelFormats, CheckpointCarriesCachesAndInjectedFaults) {
  EngineCheckpoint cp;
  cp.slot = 12;
  cp.tally.persists = 3;
  cp.memory = {1, 2, 3};
  cp.status = {ProcStatus::kLive, ProcStatus::kLive};
  cp.states.emplace_back(std::vector<Word>{1});
  cp.states.emplace_back(std::vector<Word>{2});
  cp.caches.push_back({.entries = {{.addr = 1, .value = -7}},
                       .unpersisted_cycles = 2});
  cp.caches.push_back({});  // trivial but present: must survive verbatim
  cp.injected_faults = {0, 2};

  const std::string bytes = encode_checkpoint(cp);
  const EngineCheckpoint back = decode_checkpoint(bytes);
  EXPECT_EQ(back, cp);
  EXPECT_EQ(encode_checkpoint(back), bytes);  // canonical
}

// Engine::checkpoint stamps the run's memory model into the meta (the
// spare budget only when it is set) and nothing under the reliable model;
// the codec reads back what it wrote and refuses a malformed value.
TEST(ModelFormats, EngineCheckpointCarriesModelMeta) {
  using Meta = std::map<std::string, std::string>;
  const auto program = make_writeall(WriteAllAlgo::kX, {.n = 16, .p = 4});
  const auto meta_under = [&](const EngineOptions& options) {
    return Engine(*program, options).checkpoint().meta;
  };
  EXPECT_TRUE(meta_under({}).empty());

  EngineOptions cells;
  cells.memory_model = MemoryModel::kFaultyCells;
  cells.faulty_cells = {.seed = 7, .cells = 3, .spares = 2};
  EXPECT_EQ(meta_under(cells), (Meta{{"memory_model", "faulty-cells"},
                                     {"fault_seed", "7"},
                                     {"fault_cells", "3"},
                                     {"fault_spares", "2"}}));
  MemoryModel model = MemoryModel::kReliable;
  FaultyCellsOptions faulty_cells;
  PersistentCacheOptions persistent_cache;
  read_memory_model_meta(meta_under(cells), model, faulty_cells,
                         persistent_cache);
  EXPECT_EQ(model, MemoryModel::kFaultyCells);
  EXPECT_EQ(faulty_cells.seed, 7u);
  EXPECT_EQ(faulty_cells.cells, 3u);
  EXPECT_EQ(faulty_cells.spares, 2u);
  cells.faulty_cells.spares = kSparesAuto;
  EXPECT_FALSE(meta_under(cells).contains("fault_spares"));

  EngineOptions cache;
  cache.memory_model = MemoryModel::kPersistentCache;
  cache.persistent_cache.persist_every = 5;
  EXPECT_EQ(meta_under(cache), (Meta{{"memory_model", "persistent-cache"},
                                     {"persist_every", "5"}}));

  EXPECT_THROW(read_memory_model_meta({{"fault_cells", "x"}}, model,
                                      faulty_cells, persistent_cache),
               ConfigError);
  EXPECT_THROW(read_memory_model_meta({{"memory_model", "flaky"}}, model,
                                      faulty_cells, persistent_cache),
               ConfigError);
}

// --- Backend-aware audit -----------------------------------------------------

TEST(ModelAudit, DeadCellWritesAreFlagged) {
  const FaultyCellsOptions fault_options{.seed = 11, .cells = 3, .spares = 0};
  const CellFaultMap map = CellFaultMap::build(fault_options, 16);
  Addr dead = 16;
  for (Addr c = 0; c < 16; ++c) {
    if (map.is_dead(c)) {
      dead = c;
      break;
    }
  }
  ASSERT_LT(dead, 16u);

  LambdaProgram program(1, 16, [dead](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(dead, 1);
    return false;
  });
  Auditor auditor;
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = fault_options;
  options.audit = &auditor;
  options.max_slots = 8;
  Engine engine(program, options);
  LambdaAdversary adversary(no_faults);
  engine.run(adversary);
  EXPECT_EQ(auditor.report().count(AuditCheck::kDeadWrite), 1u);
}

// The amnesia twin must read through the audited processor's real cache —
// otherwise every cached read under the persistent model would diff against
// the twin and drown the report in false positives.
TEST(ModelAudit, PersistentCacheRunsAuditClean) {
  const WriteAllConfig config{.n = 32, .p = 4};
  Auditor auditor;
  EngineOptions options;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache = {.persist_every = 4};
  options.audit = &auditor;
  options.max_slots = 4000;
  RandomAdversary adversary(7, {.fail_prob = 0.08, .restart_prob = 0.6});
  const WriteAllOutcome outcome =
      run_writeall(WriteAllAlgo::kX, config, adversary, options);
  EXPECT_TRUE(outcome.solved);
  EXPECT_EQ(auditor.report().total(), 0u)
      << to_string(auditor.report().violations.front().check) << ": "
      << auditor.report().violations.front().detail;
}

// --- Determinism matrix ------------------------------------------------------

// One run's observable outcome, violations included: the determinism
// contract is "bit-identical or identically broken".
struct Observed {
  bool ran = false;
  bool solved = false;
  bool slot_limit = false;
  bool deadlock = false;
  WorkTally tally;
  std::string error;

  bool operator==(const Observed&) const = default;
};

Observed observe(WriteAllAlgo algo, const WriteAllConfig& config,
                 Adversary& adversary, const EngineOptions& options,
                 const EngineCheckpoint* resume = nullptr) {
  Observed o;
  try {
    const WriteAllOutcome outcome =
        run_writeall(algo, config, adversary, options, resume);
    o.ran = true;
    o.solved = outcome.solved;
    o.slot_limit = outcome.run.slot_limit;
    o.deadlock = outcome.run.deadlock;
    o.tally = outcome.run.tally;
  } catch (const ModelViolation& e) {
    o.error = std::string("model: ") + e.what();
  } catch (const AdversaryViolation& e) {
    o.error = std::string("adversary: ") + e.what();
  }
  return o;
}

std::unique_ptr<Adversary> make_model_adversary(const std::string& name,
                                                std::uint64_t seed,
                                                MemoryModel model,
                                                Addr memory_size) {
  if (name == "random") {
    return std::make_unique<RandomAdversary>(
        seed, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.6});
  }
  if (name == "burst") {
    return std::make_unique<BurstAdversary>(
        BurstAdversaryOptions{.period = 3, .count = 3});
  }
  return std::make_unique<ChaosAdversary>(seed, /*allow_torn=*/false, model,
                                          memory_size);
}

// Straight run == re-run == record→replay == checkpoint→resume, per model
// and adversary. Chaos plays the model-specific moves (cell_faults /
// cache_drop) too, so the new schedule arrays and checkpoint state are on
// the replay/resume path, not just in format unit tests.
void check_model_determinism(MemoryModel model, const std::string& adversary,
                             std::uint64_t seed) {
  SCOPED_TRACE(std::string(to_string(model)) + " x " + adversary);
  const WriteAllConfig config{.n = 48, .p = 8};
  EngineOptions options;
  // Bounded: injected cell faults can strike goal cells, making the
  // instance silently unsolvable — the run must then stop at the slot
  // limit, identically everywhere.
  options.max_slots = 3000;
  options.memory_model = model;
  if (model == MemoryModel::kFaultyCells) {
    options.faulty_cells = {.seed = seed, .cells = 6};
  } else {
    options.persistent_cache = {.persist_every = 4};
  }
  const Addr memory_size =
      make_writeall(WriteAllAlgo::kX, config)->memory_size();

  const auto straight_adversary =
      make_model_adversary(adversary, seed, model, memory_size);
  const Observed straight =
      observe(WriteAllAlgo::kX, config, *straight_adversary, options);

  // Re-run: same seed, same outcome.
  const auto again_adversary =
      make_model_adversary(adversary, seed, model, memory_size);
  EXPECT_EQ(observe(WriteAllAlgo::kX, config, *again_adversary, options),
            straight);

  // Record → replay, with checkpoints captured along the way.
  FaultSchedule schedule;
  std::vector<EngineCheckpoint> checkpoints;
  EngineOptions recording = options;
  recording.checkpoint_every = 7;
  recording.on_checkpoint = [&](const EngineCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const auto recorded_adversary =
      make_model_adversary(adversary, seed, model, memory_size);
  RecordingAdversary recorder(*recorded_adversary, schedule);
  EXPECT_EQ(observe(WriteAllAlgo::kX, config, recorder, recording), straight)
      << "checkpoint capture or recording perturbed the run";

  ReplayAdversary replayer(schedule);
  EXPECT_EQ(observe(WriteAllAlgo::kX, config, replayer, options), straight);

  // Resume from a sample of the captured checkpoints.
  for (std::size_t i = 0; i < checkpoints.size();
       i += std::max<std::size_t>(checkpoints.size() / 4, 1)) {
    const EngineCheckpoint& cp = checkpoints[i];
    const auto resumed_adversary =
        make_model_adversary(adversary, seed, model, memory_size);
    EXPECT_EQ(observe(WriteAllAlgo::kX, config, *resumed_adversary, options,
                      &cp),
              straight)
        << "resume from slot " << cp.slot << " diverged";
  }
}

TEST(ModelDeterminism, FaultyCellsUnderRandom) {
  check_model_determinism(MemoryModel::kFaultyCells, "random", 1001);
}
TEST(ModelDeterminism, FaultyCellsUnderBurst) {
  check_model_determinism(MemoryModel::kFaultyCells, "burst", 1002);
}
TEST(ModelDeterminism, FaultyCellsUnderChaos) {
  check_model_determinism(MemoryModel::kFaultyCells, "chaos", 1003);
}
TEST(ModelDeterminism, PersistentCacheUnderRandom) {
  check_model_determinism(MemoryModel::kPersistentCache, "random", 2001);
}
TEST(ModelDeterminism, PersistentCacheUnderBurst) {
  check_model_determinism(MemoryModel::kPersistentCache, "burst", 2002);
}
TEST(ModelDeterminism, PersistentCacheUnderChaos) {
  check_model_determinism(MemoryModel::kPersistentCache, "chaos", 2003);
}

// Non-reliable models force the interpreter: requesting the batched backend
// must not change a single observable.
TEST(ModelDeterminism, BatchRequestFallsBackIdentically) {
  const WriteAllConfig config{.n = 48, .p = 8};
  EngineOptions options;
  options.max_slots = 3000;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache = {.persist_every = 4};
  ChaosAdversary a(55, false, MemoryModel::kPersistentCache, 0);
  const Observed interpreted =
      observe(WriteAllAlgo::kX, config, a, options);
  options.batch = true;
  ChaosAdversary b(55, false, MemoryModel::kPersistentCache, 0);
  EXPECT_EQ(observe(WriteAllAlgo::kX, config, b, options), interpreted);
}

// End-to-end reproducer: a recorded faulty-cells run re-probes to its
// recorded status from the meta alone.
TEST(ModelDeterminism, ProbeReplaysFromMetaAlone) {
  const WriteAllConfig config{.n = 48, .p = 8};
  EngineOptions options;
  options.max_slots = 3000;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = 77, .cells = 6};
  const Addr memory_size =
      make_writeall(WriteAllAlgo::kX, config)->memory_size();
  ChaosAdversary inner(77, false, MemoryModel::kFaultyCells, memory_size);
  FaultSchedule schedule;
  RecordingAdversary recorder(inner, schedule);
  const Observed straight =
      observe(WriteAllAlgo::kX, config, recorder, options);
  ASSERT_TRUE(straight.ran);

  ReproSpec spec;
  spec.algo = WriteAllAlgo::kX;
  spec.n = config.n;
  spec.p = config.p;
  spec.max_slots = options.max_slots;
  spec.memory_model = options.memory_model;
  spec.faulty_cells = options.faulty_cells;
  write_meta(spec, schedule,
             straight.solved ? ProbeStatus::kSolved : ProbeStatus::kUnsolved);

  // A fresh spec parsed back from the meta reproduces the run.
  const FaultSchedule reparsed =
      schedule_from_jsonl(schedule_to_jsonl(schedule));
  const ProbeResult result = probe(spec_from_meta(reparsed), reparsed);
  EXPECT_EQ(result.status, straight.solved ? ProbeStatus::kSolved
                                           : ProbeStatus::kUnsolved);
  EXPECT_EQ(result.tally, straight.tally);
}

}  // namespace
}  // namespace rfsp
