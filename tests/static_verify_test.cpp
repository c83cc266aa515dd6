// Static verifier coverage (analysis/static/verify.hpp): the library
// algorithms must prove clean (including interpreter/kernel equivalence),
// and a mutation suite — one deliberately broken program per conformance
// property — must come back with exactly the right finding class and a
// concrete counterexample (state words, slot, read valuation). The mutants implement save_state /
// load_state themselves: the verifier keys its state space by the
// checkpoint word stream and refuses programs without it (also tested).
#include <functional>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/static/symbolic.hpp"
#include "analysis/static/verify.hpp"
#include "fault/adversaries.hpp"
#include "pram/soa.hpp"
#include "util/error.hpp"
#include "writeall/runner.hpp"

namespace {

using namespace rfsp;
using analysis::StaticCheck;
using analysis::StaticReport;
using analysis::VerifyOptions;
using analysis::verify_program;

// One-word-of-state mutant scaffold: the cycle body is a lambda over
// (ctx, pid, step). Checkpoint hooks are real so the verifier can intern
// and replay states.
using MutantCycle = std::function<bool(CycleContext&, Pid, Word&)>;

class MutantState final : public ProcessorState {
 public:
  MutantState(MutantCycle fn, Pid pid, Word step)
      : fn_(std::move(fn)), pid_(pid), step_(step) {}

  bool cycle(CycleContext& ctx) override { return fn_(ctx, pid_, step_); }

  bool save_state(std::vector<Word>& out) const override {
    out.push_back(step_);
    return true;
  }

 private:
  MutantCycle fn_;
  Pid pid_;
  Word step_;
};

class MutantProgram : public Program {
 public:
  MutantProgram(Pid p, Addr memory, MutantCycle fn, bool oblivious = false)
      : p_(p), memory_(memory), fn_(std::move(fn)), oblivious_(oblivious) {}

  std::string_view name() const override { return "mutant"; }
  Pid processors() const override { return p_; }
  Addr memory_size() const override { return memory_; }
  bool goal(const SharedMemory& mem) const override {
    return mem.read(0) != 0;
  }
  bool oblivious() const override { return oblivious_; }

  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    return std::make_unique<MutantState>(fn_, pid, 0);
  }
  std::unique_ptr<ProcessorState> load_state(
      Pid pid, std::span<const Word> data) const override {
    if (data.size() != 1) throw ConfigError("mutant stream must be 1 word");
    return std::make_unique<MutantState>(fn_, pid, data[0]);
  }

 private:
  Pid p_;
  Addr memory_;
  MutantCycle fn_;
  bool oblivious_;
};

// Fast options for the single-purpose mutants: a short horizon is plenty
// (their behaviour is slot-independent), and it keeps the suite quick.
VerifyOptions quick() {
  VerifyOptions options;
  options.slots = 4;
  return options;
}

// ---------------------------------------------------------------------------
// The library algorithms prove clean.

TEST(StaticVerify, WriteAllMatrixClean) {
  const std::vector<WriteAllAlgo> matrix = {
      WriteAllAlgo::kW, WriteAllAlgo::kV, WriteAllAlgo::kX,
      WriteAllAlgo::kCombinedVX};
  for (const WriteAllAlgo algo : matrix) {
    const WriteAllConfig config{.n = 8, .p = 4, .seed = 1};
    const auto program = make_writeall(algo, config);
    const StaticReport report = verify_program(*program);
    EXPECT_TRUE(report.ok()) << to_string(algo) << ":\n" << report.to_text();
    EXPECT_TRUE(report.converged) << to_string(algo);
    EXPECT_GT(report.halting_configs, 0u) << to_string(algo);
    EXPECT_LE(report.max_reads_in_cycle, 4u);
    EXPECT_LE(report.max_writes_in_cycle, 2u);
    // The interpreter/kernel equivalence proof actually ran, and the batch
    // lanes matched the interpreter on every explored state.
    EXPECT_TRUE(report.kernel_checked) << to_string(algo);
    EXPECT_GT(report.kernel_paths, 0u) << to_string(algo);
    EXPECT_EQ(report.count(StaticCheck::kKernelMismatch), 0u)
        << to_string(algo);
  }
}

TEST(StaticVerify, ObliviousAlgorithmsProveTheirClaim) {
  // Trivial claims Program::oblivious; the proof must actually run and
  // still come back clean.
  const WriteAllConfig config{.n = 8, .p = 4};
  const auto trivial = make_writeall(WriteAllAlgo::kTrivial, config);
  ASSERT_TRUE(trivial->oblivious());
  const StaticReport report = verify_program(*trivial);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_TRUE(report.oblivious_checked);

  const WriteAllConfig seq{.n = 8, .p = 1};
  const auto sequential = make_writeall(WriteAllAlgo::kSequential, seq);
  ASSERT_TRUE(sequential->oblivious());
  const StaticReport seq_report = verify_program(*sequential);
  EXPECT_TRUE(seq_report.ok()) << seq_report.to_text();
  EXPECT_TRUE(seq_report.oblivious_checked);
}

TEST(StaticVerify, SnapshotAlgorithmHaltsViaImageWidening) {
  // The snapshot program reads no individual cells — progress reaches it
  // only through the monotone snapshot-image widening. Without that, the
  // halt-reachability check would misfire here.
  const WriteAllConfig config{.n = 8, .p = 4};
  const auto program = make_writeall(WriteAllAlgo::kSnapshot, config);
  VerifyOptions options;
  options.unit_cost_snapshot = true;
  const StaticReport report = verify_program(*program, options);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_GT(report.halting_configs, 0u);
}

// ---------------------------------------------------------------------------
// Mutation suite: each broken program must yield exactly its finding class.

TEST(StaticVerify, OverBudgetReadIsFound) {
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);  // budget is 4
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kReadBudget), 0u);
  EXPECT_EQ(report.count(StaticCheck::kWriteBudget), 0u);
  ASSERT_FALSE(report.findings.empty());
  const analysis::StaticFinding& f = report.findings.front();
  EXPECT_EQ(f.check, StaticCheck::kReadBudget);
  EXPECT_EQ(f.state.size(), 1u);           // counterexample state words
  EXPECT_GE(f.context.slot, 0);            // ... its slot
  EXPECT_EQ(f.valuation.size(), 5u);       // ... and the read valuation
}

TEST(StaticVerify, OverBudgetWriteIsFound) {
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    ctx.write(0, 1);
    ctx.write(1, 1);
    ctx.write(2, 1);  // budget is 2
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kWriteBudget), 0u);
  EXPECT_EQ(report.count(StaticCheck::kReadBudget), 0u);
}

TEST(StaticVerify, ReadAfterWriteBreaksPhaseOrder) {
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    ctx.write(0, 1);
    ctx.read(1);  // read*, compute, write* — reads must come first
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kPhaseOrder), 0u);
}

TEST(StaticVerify, SnapshotAfterWriteBreaksPhaseOrder) {
  // The engine's runtime checks never catch this one (snapshot() only
  // rejects prior *reads*): the verifier must.
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    ctx.write(0, 1);
    ctx.snapshot();
    return false;
  });
  VerifyOptions options = quick();
  options.unit_cost_snapshot = true;
  const StaticReport report = verify_program(mutant, options);
  EXPECT_GT(report.count(StaticCheck::kPhaseOrder), 0u);
}

TEST(StaticVerify, ValueDependentAddressBreaksObliviousClaim) {
  // Claims the oblivious fast path but routes a write address through a
  // value read from shared memory — the address trace differs across
  // valuations, which is exactly what the differential proof compares.
  MutantProgram mutant(
      1, 8,
      [](CycleContext& ctx, Pid, Word&) {
        const Word v = ctx.read(0);
        ctx.write((v % 2) != 0 ? Addr{1} : Addr{2}, 1);
        return false;
      },
      /*oblivious=*/true);
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kOblivious), 0u);
  bool found = false;
  for (const analysis::StaticFinding& f : report.findings) {
    if (f.check != StaticCheck::kOblivious) continue;
    found = true;
    EXPECT_FALSE(f.valuation.empty());  // the diverging valuation
  }
  EXPECT_TRUE(found);
  // The same program without the claim is legitimately adaptive: clean.
  MutantProgram honest(1, 8, [](CycleContext& ctx, Pid, Word&) {
    const Word v = ctx.read(0);
    ctx.write((v % 2) != 0 ? Addr{1} : Addr{2}, 1);
    return false;
  });
  EXPECT_TRUE(verify_program(honest, quick()).ok());
}

TEST(StaticVerify, CommonWriteDisagreementIsFound) {
  // Two processors write different values to one cell with no reads at
  // all: their (empty) valuations are trivially consistent, so COMMON
  // agreement is provably violated.
  MutantProgram mutant(2, 8, [](CycleContext& ctx, Pid pid, Word&) {
    ctx.write(0, Word{pid} + 1);
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kWriteAgreement), 0u);
  bool found = false;
  for (const analysis::StaticFinding& f : report.findings) {
    if (f.check != StaticCheck::kWriteAgreement) continue;
    found = true;
    EXPECT_EQ(f.context.cell, 0);
    EXPECT_EQ(f.context.pids.size(), 2u);
    EXPECT_EQ(f.context.values.size(), 2u);
  }
  EXPECT_TRUE(found);
}

TEST(StaticVerify, WeakNonDesignatedWriteIsFound) {
  // Under WEAK, processors writing one cell in one slot must all write
  // kWeakValue: two writing 7 is a finding, two writing kWeakValue clean.
  const auto both_write = [](Word value) {
    return [value](CycleContext& ctx, Pid, Word&) {
      ctx.write(0, value);
      return false;
    };
  };
  VerifyOptions options = quick();
  options.model = CrcwModel::kWeak;

  MutantProgram mutant(2, 8, both_write(7));
  const StaticReport report = verify_program(mutant, options);
  EXPECT_GT(report.count(StaticCheck::kWriteAgreement), 0u);
  bool found = false;
  for (const analysis::StaticFinding& f : report.findings) {
    if (f.check != StaticCheck::kWriteAgreement) continue;
    found = true;
    EXPECT_EQ(f.context.cell, 0);
    EXPECT_EQ(f.context.values, std::vector<Word>{7});
  }
  EXPECT_TRUE(found);

  MutantProgram designated(2, 8, both_write(kWeakValue));
  const StaticReport clean = verify_program(designated, options);
  EXPECT_TRUE(clean.ok()) << clean.to_text();
}

TEST(StaticVerify, WeakLoneWritersAreClean) {
  // WEAK constrains concurrent writers only: each PID alone at its own cell
  // may write any value, as the engine under WEAK lets it.
  MutantProgram lone(2, 8, [](CycleContext& ctx, Pid pid, Word&) {
    ctx.write(pid, 7);
    return false;
  });
  VerifyOptions options = quick();
  options.model = CrcwModel::kWeak;
  const StaticReport report = verify_program(lone, options);
  EXPECT_EQ(report.count(StaticCheck::kWriteAgreement), 0u)
      << report.to_text();

  EngineOptions engine_options;
  engine_options.model = CrcwModel::kWeak;
  Engine engine(lone, engine_options);
  NoFailures none;
  EXPECT_TRUE(engine.run(none).goal_met);
}

TEST(StaticVerify, OutOfBoundsReachableWithoutArbitraryIsFound) {
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    ctx.read(8);  // memory_size() is 8: one past the end
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kOutOfBounds), 0u);
}

TEST(StaticVerify, HaltUnreachableSpinnerIsFound) {
  // Writes forever, never reads, never halts: exploration converges (one
  // state, no branching) and the halt-reachability check must fire.
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    ctx.write(0, 1);
    return true;
  });
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_GT(report.count(StaticCheck::kHaltUnreachable), 0u);
  EXPECT_TRUE(report.converged);
}

// ---------------------------------------------------------------------------
// Interpreter/kernel bit-equivalence.

namespace kernelmut {

// Interpreter: write(0, 42) then halt. The kernel writes 43 instead, and
// declares `states` control states.
class LyingKernel final : public BatchKernel {
 public:
  explicit LyingKernel(std::uint32_t states) : states_(states) {}
  std::size_t registers() const override { return 1; }
  std::uint32_t control_states() const override { return states_; }
  void boot_lane(SoaStore& soa, Pid pid) const override {
    soa.reg(0, pid) = 0;
  }
  void run(std::uint32_t, std::span<const Pid> pids, const BatchContext& ctx,
           SoaStore&) const override {
    for (const Pid pid : pids) {
      LaneEmit emit(ctx, pid);
      emit.write(0, 43);  // the interpreter writes 42
      emit.halt();
    }
  }
  void save_lane(const SoaStore& soa, Pid pid,
                 std::vector<Word>& out) const override {
    out.push_back(soa.reg(0, pid));
  }
  void load_lane(SoaStore& soa, Pid pid,
                 std::span<const Word> data) const override {
    if (data.size() != 1) throw ConfigError("bad lane stream");
    soa.reg(0, pid) = data[0];
  }

 private:
  std::uint32_t states_;
};

class LyingProgram final : public MutantProgram {
 public:
  explicit LyingProgram(std::uint32_t states = 1)
      : MutantProgram(1, 8, [](CycleContext& ctx, Pid, Word&) {
          ctx.write(0, 42);
          return false;
        }),
        states_(states) {}
  std::unique_ptr<BatchKernel> batch_kernels() const override {
    return std::make_unique<LyingKernel>(states_);
  }

 private:
  std::uint32_t states_;
};

}  // namespace kernelmut

TEST(StaticVerify, KernelValueMismatchIsFound) {
  const kernelmut::LyingProgram mutant;
  const StaticReport report = verify_program(mutant, quick());
  EXPECT_TRUE(report.kernel_checked);
  EXPECT_GT(report.count(StaticCheck::kKernelMismatch), 0u);
  EXPECT_GT(report.kernel_paths, 0u);
}

// The engine runs the whole live set as one lane group: a kernel that
// declares another number of control states is refused, not run as one.
TEST(StaticVerify, EngineRefusesKernelWithSeveralControlStates) {
  const kernelmut::LyingProgram mutant(2);
  EngineOptions options;
  options.batch = true;
  EXPECT_THROW(Engine engine(mutant, options), ConfigError);
  EXPECT_TRUE(Engine(kernelmut::LyingProgram(1), options).batch_active());
}

// ---------------------------------------------------------------------------
// Interface contract and report plumbing.

TEST(StaticVerify, ProgramWithoutCheckpointHooksIsRefused) {
  class NoHooks final : public Program {
   public:
    std::string_view name() const override { return "no-hooks"; }
    Pid processors() const override { return 1; }
    Addr memory_size() const override { return 4; }
    bool goal(const SharedMemory&) const override { return false; }
    std::unique_ptr<ProcessorState> boot(Pid) const override {
      class S final : public ProcessorState {
        bool cycle(CycleContext&) override { return false; }
      };
      return std::make_unique<S>();
    }
  };
  const NoHooks program;
  EXPECT_THROW(verify_program(program), ConfigError);
}

TEST(StaticVerify, FindingsDeduplicatePerState) {
  // The spinner offends in every slot of the horizon, but the counter
  // counts offending *states* — one here — not offending paths.
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);
    return false;
  });
  VerifyOptions options = quick();
  options.slots = 8;
  const StaticReport report = verify_program(mutant, options);
  EXPECT_EQ(report.count(StaticCheck::kReadBudget), 1u);
}

TEST(StaticVerify, JsonlReportRoundTrips) {
  MutantProgram mutant(1, 8, [](CycleContext& ctx, Pid, Word&) {
    for (Addr a = 0; a < 5; ++a) ctx.read(a);
    return false;
  });
  const StaticReport report = verify_program(mutant, quick());
  std::ostringstream out;
  report.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"e\":\"static-finding\""), std::string::npos);
  EXPECT_NE(text.find("\"check\":\"read-budget\""), std::string::npos);
  EXPECT_NE(text.find("\"valuation\":"), std::string::npos);
  EXPECT_NE(text.find("\"e\":\"static-summary\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SymbolicContext: answers reads by writing into its scratch image.

TEST(SymbolicContext, RunsSeeTheirOwnValuesAndRestoreTheImage) {
  // Two candidate values per cell; cell 2 also has a non-zero init value.
  struct TwoValues final : analysis::DomainSource {
    std::size_t size(Addr) const override { return 2; }
    analysis::SymbolicValue at(Addr addr, std::size_t index) const override {
      return {static_cast<Word>(10 * addr + index + 1),
              analysis::AbstractTag::kWritten};
    }
  };
  struct InitProgram final : MutantProgram {
    using MutantProgram::MutantProgram;
    void init_memory(SharedMemory& mem) const override { mem.write(2, 7); }
  };
  const TwoValues domain;
  const InitProgram program(1, 8, [](CycleContext&, Pid, Word&) {
    return false;
  });
  analysis::SymbolicContext sym(domain, program, /*snapshot_allowed=*/true);

  // Reads cell 2 twice and writes both values out.
  MutantState reader(
      [](CycleContext& ctx, Pid, Word&) {
        const Word first = ctx.read(2);
        const Word again = ctx.read(2);
        ctx.write(0, first);
        ctx.write(1, again);
        return false;
      },
      0, 0);
  const auto written = [](const analysis::PathOutcome& out) {
    std::vector<Word> values;
    for (const WriteOp& op : out.writes) values.push_back(op.value);
    return values;
  };
  const analysis::PathOutcome first = sym.run(reader, 0, 0, {});
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(written(first), (std::vector<Word>{21, 21}));
  ASSERT_EQ(first.decisions.size(), 1u);  // the re-read is no branch point
  EXPECT_EQ(first.decisions[0].addr, 2u);

  const std::vector<analysis::PathDecision> script{{2, 1, 2}};
  const analysis::PathOutcome second = sym.run(reader, 0, 0, script);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(written(second), (std::vector<Word>{22, 22}));

  // A snapshot sees the scratch image: still exactly the init image.
  std::vector<Word> image;
  MutantState snapshotter(
      [&image](CycleContext& ctx, Pid, Word&) {
        const std::span<const Word> words = ctx.snapshot();
        image.assign(words.begin(), words.end());
        return false;
      },
      0, 0);
  ASSERT_TRUE(sym.run(snapshotter, 0, 0, {}).completed);
  SharedMemory init(program.memory_size());
  program.init_memory(init);
  EXPECT_EQ(image, std::vector<Word>(init.words().begin(), init.words().end()));
}

}  // namespace
