#include "writeall/foreach.hpp"

#include "util/error.hpp"

namespace rfsp {

namespace {

// Wraps a Write-All program, reserving [0, user_memory) as a caller-owned
// region; the algorithm's structures live above it (config.base).
class ForEachProgram final : public Program {
 public:
  explicit ForEachProgram(std::unique_ptr<WriteAllProgram> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return "for-each"; }
  Pid processors() const override { return inner_->processors(); }
  Addr memory_size() const override { return inner_->memory_size(); }

  void init_memory(SharedMemory& mem) const override {
    inner_->init_memory(mem);
  }

  std::unique_ptr<ProcessorState> boot(Pid pid) const override {
    return inner_->boot(pid);
  }

  bool goal(const SharedMemory& mem) const override {
    return inner_->goal(mem);
  }

  // Delegate the incremental-goal hook too: the wrapper's goal IS the
  // inner algorithm's goal.
  std::optional<GoalCells> goal_cells() const override {
    return inner_->goal_cells();
  }
  bool goal_cell_done(Addr addr, Word value) const override {
    return inner_->goal_cell_done(addr, value);
  }

  const WriteAllProgram& inner() const { return *inner_; }

 private:
  std::unique_ptr<WriteAllProgram> inner_;
};

class MapTask final : public TaskSpec {
 public:
  MapTask(const std::function<Word(Addr)>& f, Addr out_base)
      : f_(f), out_base_(out_base) {}

  unsigned cycles_per_task() const override { return 1; }
  std::size_t scratch_words() const override { return 0; }

  void run(CycleContext& ctx, Addr task, unsigned /*k*/,
           std::span<Word> /*scratch*/) const override {
    // Pure function: re-executions write identical values (idempotent,
    // COMMON-safe).
    ctx.write(out_base_ + task, f_(task));
  }

 private:
  const std::function<Word(Addr)>& f_;
  Addr out_base_;
};

}  // namespace

ForEachResult for_each_resilient(Addr n, const TaskSpec& task,
                                 Adversary& adversary,
                                 const ForEachOptions& options) {
  if (n < 1) throw ConfigError("for_each_resilient needs n >= 1");
  if (options.algo != WriteAllAlgo::kCombinedVX &&
      options.algo != WriteAllAlgo::kX && options.algo != WriteAllAlgo::kV) {
    throw ConfigError(
        "for_each_resilient distributes via the fault-tolerant algorithms "
        "(V, X, or the combined VX)");
  }

  WriteAllConfig config;
  config.n = n;
  config.p = options.processors;
  config.base = options.user_memory;  // user region sits at [0, user_memory)
  config.task = &task;
  auto inner = make_writeall(options.algo, config);

  ForEachProgram program(std::move(inner));
  Engine engine(program, options.engine);
  const RunResult run = engine.run(adversary);

  ForEachResult result;
  result.completed = run.goal_met && program.inner().solved(engine.memory());
  result.tally = run.tally;
  result.user_base = 0;
  result.user_memory.reserve(options.user_memory);
  for (Addr i = 0; i < options.user_memory; ++i) {
    result.user_memory.push_back(engine.memory().read(i));
  }
  return result;
}

ForEachResult map_resilient(Addr n, const std::function<Word(Addr)>& f,
                            Adversary& adversary, ForEachOptions options) {
  options.user_memory = n;
  const MapTask task(f, /*out_base=*/0);
  return for_each_resilient(n, task, adversary, options);
}

}  // namespace rfsp
