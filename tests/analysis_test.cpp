// The model-conformance auditor (src/analysis, docs/analysis.md).
//
// Mutation tests: plant one violation of each audit class in a synthetic
// program and assert the auditor pinpoints it — right class, right slot,
// right processor(s) (and cell/values where applicable) — without the
// engine aborting the run. Conformance matrix: every shipped Write-All
// algorithm must audit clean under the full adversary matrix, and every
// archived corpus reproducer must audit clean too (the *adversary* may be
// the violator there, never the algorithm).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "analysis/oblivious.hpp"
#include "fault/adversaries.hpp"
#include "fault/halving.hpp"
#include "pram/engine.hpp"
#include "programs/programs.hpp"
#include "replay/repro.hpp"
#include "replay/schedule.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace rfsp {
namespace {

using testing::ChaosAdversary;
using testing::LambdaAdversary;
using testing::LambdaProgram;

FaultDecision no_faults(const MachineView&) { return {}; }

// Run `program` fault-free under an Auditor and return the report. The run
// itself must not throw: in audit mode the engine widens its enforced
// budgets so the auditor can report over-budget cycles instead.
AuditReport audit_run(const Program& program,
                      LambdaAdversary::Decide decide = no_faults) {
  Auditor auditor;
  EngineOptions options;
  options.audit = &auditor;
  options.max_slots = 64;
  Engine engine(program, options);
  LambdaAdversary adversary(std::move(decide));
  engine.run(adversary);
  return auditor.take_report();
}

// --- Mutation: one planted violation per audit class ------------------------

TEST(AuditMutation, OverBudgetReadsArePinpointedNotFatal) {
  LambdaProgram program(2, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);  // budget is 4
    ctx.write(0, 1);
    return false;
  });
  const AuditReport report = audit_run(program);
  EXPECT_EQ(report.count(AuditCheck::kReadBudget), 2u);  // one per processor
  EXPECT_EQ(report.total(), 2u);
  ASSERT_FALSE(report.violations.empty());
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kReadBudget);
  EXPECT_EQ(v.context.slot, 0);
  EXPECT_EQ(v.context.pid(), 0);
  EXPECT_EQ(report.max_reads_in_cycle, 5u);
  EXPECT_EQ(report.read_budget, 4u);
}

TEST(AuditMutation, OverBudgetWritesArePinpointed) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, 1);
    ctx.write(1, 1);
    ctx.write(2, 1);  // budget is 2, storage cap 4
    return false;
  });
  const AuditReport report = audit_run(program);
  EXPECT_EQ(report.count(AuditCheck::kWriteBudget), 1u);
  ASSERT_EQ(report.total(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kWriteBudget);
  EXPECT_EQ(v.context.slot, 0);
  EXPECT_EQ(v.context.pid(), 0);
  EXPECT_EQ(report.max_writes_in_cycle, 3u);
}

TEST(AuditMutation, ReadAfterWriteIsAPhaseOrderViolation) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.read(0);
    ctx.write(1, 1);
    ctx.read(2);  // an update cycle is read*, compute, write*
    return false;
  });
  const AuditReport report = audit_run(program);
  EXPECT_EQ(report.count(AuditCheck::kPhaseOrder), 1u);
  ASSERT_EQ(report.total(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kPhaseOrder);
  EXPECT_EQ(v.context.slot, 0);
  EXPECT_EQ(v.context.pid(), 0);
}

TEST(AuditMutation, RestartSurvivingPrivateStateIsAmnesiaViolation) {
  // The "private" counter lives outside ProcessorState, so failing the
  // processor does not wipe it — exactly what §2.1 point 3 forbids. The
  // fresh-boot twin advances the same hidden counter one step further and
  // diverges on the written value.
  std::uint64_t hidden = 0;
  LambdaProgram program(1, 8, [&](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, static_cast<Word>(++hidden));
    return hidden < 8;
  });
  const AuditReport report =
      audit_run(program, [](const MachineView& view) {
        FaultDecision d;
        if (view.slot() == 0) {
          d.fail_after_cycle = {0};
          d.restart = {0};
        }
        return d;
      });
  EXPECT_GE(report.count(AuditCheck::kAmnesia), 1u);
  ASSERT_FALSE(report.violations.empty());
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kAmnesia);
  EXPECT_EQ(v.context.slot, 1);  // first post-restart cycle
  EXPECT_EQ(v.context.pid(), 0);
  EXPECT_EQ(report.restarts_watched, 1u);
  EXPECT_GE(report.twin_cycles, 1u);
}

TEST(AuditMutation, AmnesiaCleanProgramSpawnsTwinsButNoFindings) {
  LambdaProgram program(2, 8, [](Pid pid, std::uint64_t k, CycleContext& ctx) {
    ctx.write(pid, static_cast<Word>(k + 1));  // depends only on (pid, k)
    return k < 6;
  });
  const AuditReport report =
      audit_run(program, [](const MachineView& view) {
        FaultDecision d;
        if (view.slot() == 1) {
          d.fail_after_cycle = {1};
          d.restart = {1};
        }
        return d;
      });
  EXPECT_EQ(report.count(AuditCheck::kAmnesia), 0u);
  EXPECT_EQ(report.restarts_watched, 1u);
  EXPECT_GE(report.twin_cycles, 1u);
}

TEST(AuditMutation, AbortedCycleWriteDisagreementIsCaught) {
  // Both processors write cell 0 with different values; the adversary kills
  // the disagreeing writer mid-cycle every slot, so the engine's commit
  // never sees the conflict — only the auditor's started-cycle check does.
  LambdaProgram program(
      2, 8,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, 1 + static_cast<Word>(pid));
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 1; });
  const AuditReport report =
      audit_run(program, [](const MachineView& view) {
        FaultDecision d;
        if (view.trace(1).started) d.fail_mid_cycle = {1};
        return d;
      });
  EXPECT_EQ(report.count(AuditCheck::kWriteAgreement), 1u);
  ASSERT_EQ(report.total(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kWriteAgreement);
  EXPECT_EQ(v.context.slot, 0);
  EXPECT_EQ(v.context.cell, 0);
  EXPECT_EQ(v.context.pids, (std::vector<Pid>{0, 1}));
  EXPECT_EQ(v.context.values, (std::vector<Word>{1, 2}));
}

TEST(AuditMutation, WeakModelFlagsNonDesignatedConcurrentValues) {
  LambdaProgram program(
      2, 8,
      [](Pid pid, std::uint64_t, CycleContext& ctx) {
        ctx.write(0, pid == 0 ? 1 : 7);  // designated WEAK value is 1
        return false;
      },
      [](const SharedMemory& mem) { return mem.read(0) == 1; });
  Auditor auditor;
  EngineOptions options;
  options.audit = &auditor;
  options.model = CrcwModel::kWeak;
  options.max_slots = 4;
  Engine engine(program, options);
  LambdaAdversary adversary([](const MachineView& view) {
    FaultDecision d;
    if (view.trace(1).started) d.fail_mid_cycle = {1};
    return d;
  });
  engine.run(adversary);
  const AuditReport& report = auditor.report();
  EXPECT_EQ(report.count(AuditCheck::kWriteAgreement), 1u);
  ASSERT_EQ(report.total(), 1u);
  EXPECT_EQ(report.violations.front().context.cell, 0);
  EXPECT_EQ(report.violations.front().context.pids.front(), 1u);
}

TEST(AuditMutation, HiddenNondeterminismFailsTheObliviousnessProbe) {
  // The written value depends on a counter shared across runs, so a
  // bit-exact replay of the (empty) fault schedule produces a different
  // trace. Caught only by comparing fingerprints across the two runs.
  std::uint64_t calls = 0;
  LambdaProgram program(1, 8, [&](Pid, std::uint64_t, CycleContext& ctx) {
    ctx.write(0, static_cast<Word>(++calls));
    return false;
  });
  Auditor first, second;
  for (Auditor* auditor : {&first, &second}) {
    EngineOptions options;
    options.audit = auditor;
    options.max_slots = 4;
    Engine engine(program, options);
    LambdaAdversary adversary(no_faults);
    engine.run(adversary);
  }
  AuditReport& report = first.report_mutable();
  EXPECT_TRUE(report.ok());
  diff_fingerprints(first, second, report);
  EXPECT_EQ(report.count(AuditCheck::kOblivious), 1u);
  ASSERT_EQ(report.total(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.check, AuditCheck::kOblivious);
  EXPECT_EQ(v.context.slot, 0);
  EXPECT_EQ(v.context.pid(), 0);
}

// --- Audit-mode engine semantics ---------------------------------------------

TEST(AuditMode, WithoutAuditOverBudgetStillThrows) {
  LambdaProgram program(1, 8, [](Pid, std::uint64_t, CycleContext& ctx) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);
    return false;
  });
  Engine engine(program);
  LambdaAdversary adversary(no_faults);
  EXPECT_THROW(engine.run(adversary), ModelViolation);
}

TEST(AuditMode, StorageCapStillThrowsUnderAudit) {
  LambdaProgram program(1, 16, [](Pid, std::uint64_t, CycleContext& ctx) {
    for (Addr a = 0; a < kReadCap + 1; ++a) ctx.read(a);
    return false;
  });
  Auditor auditor;
  EngineOptions options;
  options.audit = &auditor;
  Engine engine(program, options);
  LambdaAdversary adversary(no_faults);
  EXPECT_THROW(engine.run(adversary), ModelViolation);
  // The widened-budget cycles before the cap are still reported.
  EXPECT_EQ(auditor.report().count(AuditCheck::kReadBudget), 1u);
}

TEST(AuditMode, ViolationCapCountsPastTheCap) {
  constexpr std::uint64_t kCycles = kMaxViolations + 10;
  LambdaProgram program(1, 8, [](Pid, std::uint64_t k, CycleContext& ctx) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);
    return k + 1 < kCycles;  // kCycles over-budget cycles
  });
  Auditor auditor;
  EngineOptions options;
  options.audit = &auditor;
  options.max_slots = 2 * kCycles;
  Engine engine(program, options);
  LambdaAdversary adversary(no_faults);
  engine.run(adversary);
  const AuditReport& report = auditor.report();
  EXPECT_EQ(report.count(AuditCheck::kReadBudget), kCycles);
  EXPECT_EQ(report.violations.size(), kMaxViolations);
  EXPECT_EQ(report.dropped_violations, 10u);
}

// --- Auditor x memory-model matrix -------------------------------------------

AuditReport audit_run_with(const Program& program, EngineOptions options,
                           LambdaAdversary::Decide decide = no_faults) {
  Auditor auditor;
  options.audit = &auditor;
  options.max_slots = 64;
  Engine engine(program, options);
  LambdaAdversary adversary(std::move(decide));
  engine.run(adversary);
  return auditor.take_report();
}

TEST(AuditMemoryModel, DeadWritesUnderFaultyCellsCarryCellContext) {
  // Zero spares leave every faulty cell dead; sweeping writes over the
  // whole array must hit them, and each finding names the slot, the
  // writer, the dead cell, and the dropped value.
  LambdaProgram program(1, 8, [](Pid, std::uint64_t k, CycleContext& ctx) {
    ctx.write(static_cast<Addr>(k % 8), 7);
    return k < 15;
  });
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = 3, .cells = 2, .spares = 0};
  const AuditReport report = audit_run_with(program, options);
  EXPECT_GT(report.count(AuditCheck::kDeadWrite), 0u);
  bool saw_dead_write = false;
  for (const AuditViolation& v : report.violations) {
    if (v.check != AuditCheck::kDeadWrite) continue;
    saw_dead_write = true;
    EXPECT_GE(v.context.slot, 0);
    EXPECT_EQ(v.context.pid(), 0);
    EXPECT_GE(v.context.cell, 0);
    EXPECT_LT(v.context.cell, 8);
    ASSERT_EQ(v.context.values.size(), 1u);
    EXPECT_EQ(v.context.values[0], 7);
  }
  EXPECT_TRUE(saw_dead_write);
}

TEST(AuditMemoryModel, FaultAwareSweepAuditsCleanUnderFaultyCells) {
  // With auto spares every fault is remapped: the same sweep has no dead
  // cells to hit and the full audit stays clean.
  LambdaProgram program(1, 8, [](Pid, std::uint64_t k, CycleContext& ctx) {
    ctx.write(static_cast<Addr>(k % 8), 7);
    return k < 15;
  });
  EngineOptions options;
  options.memory_model = MemoryModel::kFaultyCells;
  options.faulty_cells = {.seed = 3, .cells = 2};  // spares = auto
  const AuditReport report = audit_run_with(program, options);
  EXPECT_EQ(report.total(), 0u) << report.to_text();
}

TEST(AuditMemoryModel, AmnesiaUnderPersistentCacheCarriesPidAndSlot) {
  // The hidden-counter amnesia mutant from the reliable-model test, run
  // under the persistent-cache model at both cadences: the twin machinery
  // must shadow write-back caches and still pinpoint the divergence.
  for (const std::uint64_t persist_every : {std::uint64_t{1},
                                            std::uint64_t{0}}) {
    std::uint64_t hidden = 0;
    LambdaProgram program(1, 8, [&](Pid, std::uint64_t, CycleContext& ctx) {
      ctx.write(0, static_cast<Word>(++hidden));
      return hidden < 8;
    });
    EngineOptions options;
    options.memory_model = MemoryModel::kPersistentCache;
    options.persistent_cache = {.persist_every = persist_every};
    const AuditReport report =
        audit_run_with(program, options, [](const MachineView& view) {
          FaultDecision d;
          if (view.slot() == 0) {
            d.fail_after_cycle = {0};
            d.restart = {0};
          }
          return d;
        });
    EXPECT_GE(report.count(AuditCheck::kAmnesia), 1u)
        << "persist_every=" << persist_every;
    bool saw_amnesia = false;
    for (const AuditViolation& v : report.violations) {
      if (v.check != AuditCheck::kAmnesia) continue;
      saw_amnesia = true;
      EXPECT_EQ(v.context.slot, 1);  // first post-restart cycle
      EXPECT_EQ(v.context.pid(), 0);
    }
    EXPECT_TRUE(saw_amnesia) << "persist_every=" << persist_every;
    EXPECT_EQ(report.restarts_watched, 1u);
  }
}

TEST(AuditMemoryModel, AmnesiaCleanProgramStaysCleanUnderPersistentCache) {
  LambdaProgram program(2, 8, [](Pid pid, std::uint64_t k, CycleContext& ctx) {
    ctx.write(pid, static_cast<Word>(k + 1));  // depends only on (pid, k)
    return k < 6;
  });
  EngineOptions options;
  options.memory_model = MemoryModel::kPersistentCache;
  options.persistent_cache = {.persist_every = 1};
  const AuditReport report =
      audit_run_with(program, options, [](const MachineView& view) {
        FaultDecision d;
        if (view.slot() == 1) {
          d.fail_after_cycle = {1};
          d.restart = {1};
        }
        return d;
      });
  EXPECT_EQ(report.count(AuditCheck::kAmnesia), 0u) << report.to_text();
  EXPECT_EQ(report.restarts_watched, 1u);
}

// --- Conformance matrix: shipped algorithms audit clean ----------------------

struct MatrixCase {
  const char* name;
  std::function<std::unique_ptr<Adversary>(const WriteAllConfig&)> make;
  bool restarts;  // whether the adversary revives casualties
};

std::vector<MatrixCase> adversary_matrix() {
  std::vector<MatrixCase> cases;
  cases.push_back({"random",
                   [](const WriteAllConfig&) -> std::unique_ptr<Adversary> {
                     return std::make_unique<RandomAdversary>(
                         7u, RandomAdversaryOptions{.fail_prob = 0.15,
                                                    .restart_prob = 0.6});
                   },
                   true});
  cases.push_back({"burst",
                   [](const WriteAllConfig& config)
                       -> std::unique_ptr<Adversary> {
                     return std::make_unique<BurstAdversary>(
                         BurstAdversaryOptions{
                             .period = 3,
                             .count = std::max(1u, config.p / 4)});
                   },
                   true});
  cases.push_back({"halving",
                   [](const WriteAllConfig& config)
                       -> std::unique_ptr<Adversary> {
                     return std::make_unique<HalvingAdversary>(config.base,
                                                               config.n);
                   },
                   false});
  cases.push_back({"thrashing",
                   [](const WriteAllConfig&) -> std::unique_ptr<Adversary> {
                     return std::make_unique<ThrashingAdversary>();
                   },
                   true});
  cases.push_back({"chaos",
                   [](const WriteAllConfig&) -> std::unique_ptr<Adversary> {
                     return std::make_unique<ChaosAdversary>(11u, false);
                   },
                   true});
  return cases;
}

TEST(AuditMatrix, RobustAlgorithmsAuditCleanUnderEveryAdversary) {
  const WriteAllConfig config{.n = 128, .p = 32, .seed = 5};
  for (const WriteAllAlgo algo : robust_writeall_algos()) {
    for (const MatrixCase& c : adversary_matrix()) {
      SCOPED_TRACE(std::string(to_string(algo)) + " vs " + c.name);
      const std::unique_ptr<Adversary> adversary = c.make(config);
      const AuditedRun audited =
          audit_writeall(algo, config, *adversary);
      EXPECT_TRUE(audited.outcome.solved);
      EXPECT_TRUE(audited.report.ok()) << audited.report.to_text();
      EXPECT_GT(audited.report.cycles_audited, 0u);
    }
  }
}

TEST(AuditMatrix, AlgorithmWAuditsCleanWithoutRestarts) {
  // W assumes fail-stop without restarts; audit it only under adversaries
  // that never revive casualties.
  const WriteAllConfig config{.n = 128, .p = 32, .seed = 5};
  for (const MatrixCase& c : adversary_matrix()) {
    if (c.restarts) continue;
    SCOPED_TRACE(c.name);
    const std::unique_ptr<Adversary> adversary = c.make(config);
    const AuditedRun audited =
        audit_writeall(WriteAllAlgo::kW, config, *adversary);
    EXPECT_TRUE(audited.outcome.solved);
    EXPECT_TRUE(audited.report.ok()) << audited.report.to_text();
  }
  RandomAdversary no_restart(
      3u, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.0});
  const AuditedRun audited =
      audit_writeall(WriteAllAlgo::kW, config, no_restart);
  EXPECT_TRUE(audited.outcome.solved);
  EXPECT_TRUE(audited.report.ok()) << audited.report.to_text();
}

TEST(AuditMatrix, SnapshotAlgorithmAuditsClean) {
  const WriteAllConfig config{.n = 128, .p = 32, .seed = 5};
  RandomAdversary adversary(
      9u, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.5});
  const AuditedRun audited =
      audit_writeall(WriteAllAlgo::kSnapshot, config, adversary);
  EXPECT_TRUE(audited.outcome.solved);
  EXPECT_TRUE(audited.report.ok()) << audited.report.to_text();
}

TEST(AuditMatrix, SimulatorAuditsCleanUnderRandomFaults) {
  std::vector<Word> input(64);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<Word>(i % 5);
  }
  PrefixSumProgram program(std::move(input));
  RandomAdversary adversary(
      13u, RandomAdversaryOptions{.fail_prob = 0.1, .restart_prob = 0.5});
  SimOptions options;
  options.physical_processors = 9;
  const AuditedSimRun audited = audit_simulation(program, adversary, options);
  EXPECT_TRUE(audited.result.completed);
  EXPECT_TRUE(program.verify(audited.result.memory));
  EXPECT_TRUE(audited.report.ok()) << audited.report.to_text();
  EXPECT_EQ(audited.report.read_budget, 5u);  // the simulator machine's budget
}

// --- Corpus: archived reproducers never show the algorithm at fault ----------

TEST(AuditCorpus, ArchivedSchedulesAuditCleanForTheAlgorithm) {
  const std::filesystem::path dir = RFSP_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t audited = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".jsonl") continue;
    SCOPED_TRACE(file.path().filename().string());
    const FaultSchedule schedule = load_schedule(file.path().string());
    const ReproSpec spec = spec_from_meta(schedule);
    const WriteAllConfig config{.n = spec.n, .p = spec.p, .seed = spec.seed};
    Auditor auditor;
    EngineOptions options;
    options.audit = &auditor;
    options.max_slots = spec.max_slots;
    options.bit_atomic_writes = spec.bit_atomic_writes;
    ReplayAdversary adversary(schedule);
    try {
      run_writeall(spec.algo, config, adversary, options);
    } catch (const AdversaryViolation&) {
      // Several corpus entries archive *adversary* violations; the
      // algorithm's own discipline must still be spotless up to the throw.
    }
    EXPECT_TRUE(auditor.report().ok()) << auditor.report().to_text();
    ++audited;
  }
  EXPECT_GE(audited, 3u);
}

}  // namespace
}  // namespace rfsp
