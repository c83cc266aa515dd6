#include "analysis/static/verify.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/static/symbolic.hpp"
#include "pram/soa.hpp"
#include "replay/json.hpp"
#include "util/error.hpp"

namespace rfsp::analysis {

namespace {

// Exploration and report caps, constants of the verifier.
constexpr std::size_t kMaxPathsPerConfig = 512;  // cycle runs per config
constexpr std::size_t kMaxDomainValues = 24;     // values per cell domain
constexpr std::size_t kMaxFindings = 64;         // stored findings
constexpr std::size_t kMaxAgreementRecords = 64;  // per (slot, cell)

}  // namespace

std::string_view to_string(StaticCheck check) {
  switch (check) {
    case StaticCheck::kReadBudget: return "read-budget";
    case StaticCheck::kWriteBudget: return "write-budget";
    case StaticCheck::kPhaseOrder: return "phase-order";
    case StaticCheck::kOblivious: return "oblivious";
    case StaticCheck::kWriteAgreement: return "write-agreement";
    case StaticCheck::kKernelMismatch: return "kernel-mismatch";
    case StaticCheck::kOutOfBounds: return "out-of-bounds";
    case StaticCheck::kHaltUnreachable: return "halt-unreachable";
  }
  return "?";
}

std::string_view to_string(AbstractTag tag) {
  switch (tag) {
    case AbstractTag::kZero: return "zero";
    case AbstractTag::kOne: return "one";
    case AbstractTag::kGoalDone: return "goal-done";
    case AbstractTag::kInit: return "init";
    case AbstractTag::kWritten: return "written";
    case AbstractTag::kArbitrary: return "arbitrary";
  }
  return "?";
}

std::string_view to_string(TruncationCause cause) {
  switch (cause) {
    case TruncationCause::kStates: return "states";
    case TruncationCause::kPathsPerConfig: return "paths-per-config";
    case TruncationCause::kTotalPaths: return "total-paths";
    case TruncationCause::kDomainValues: return "domain-values";
    case TruncationCause::kRounds: return "rounds";
  }
  return "?";
}

namespace {

// "states,rounds" for to_text / JSONL; empty when nothing truncated.
std::string render_truncation(std::uint32_t mask) {
  std::string out;
  for (unsigned bit = 0; bit < 5; ++bit) {
    if ((mask & (std::uint32_t{1} << bit)) == 0) continue;
    if (!out.empty()) out += ',';
    out += to_string(static_cast<TruncationCause>(bit));
  }
  return out;
}

}  // namespace

void StaticReport::add(StaticCheck check, std::string detail,
                       AuditContext context, std::vector<Word> state,
                       std::vector<ReadAssumption> valuation) {
  ++counts[static_cast<std::size_t>(check)];
  if (findings.size() < kMaxFindings) {
    findings.push_back({check, std::move(detail), std::move(context),
                        std::move(state), std::move(valuation)});
  } else {
    ++dropped_findings;
  }
}

namespace {

std::string render_valuation(const std::vector<ReadAssumption>& valuation) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < valuation.size(); ++i) {
    if (i > 0) os << ", ";
    os << '[' << valuation[i].addr << "]=" << valuation[i].value << '('
       << to_string(valuation[i].tag) << ')';
  }
  os << '}';
  return os.str();
}

}  // namespace

void StaticReport::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const StaticFinding& f : findings) {
    line = "{\"e\":\"static-finding\",\"check\":";
    json::append_string(line, to_string(f.check));
    append_context(line, f.context);
    if (!f.state.empty()) {
      line += ",\"state\":[";
      for (std::size_t i = 0; i < f.state.size(); ++i) {
        if (i > 0) line += ',';
        json::append_i64(line, f.state[i]);
      }
      line += ']';
    }
    if (!f.valuation.empty()) {
      line += ",\"valuation\":[";
      for (std::size_t i = 0; i < f.valuation.size(); ++i) {
        if (i > 0) line += ',';
        line += "{\"a\":";
        json::append_u64(line, f.valuation[i].addr);
        line += ",\"v\":";
        json::append_i64(line, f.valuation[i].value);
        line += ",\"tag\":";
        json::append_string(line, to_string(f.valuation[i].tag));
        line += '}';
      }
      line += ']';
    }
    line += ",\"detail\":";
    json::append_string(line, f.detail);
    line += '}';
    out << line << '\n';
  }
  line = "{\"e\":\"static-summary\",\"findings\":";
  json::append_u64(line, total());
  line += ",\"dropped\":";
  json::append_u64(line, dropped_findings);
  for (std::size_t i = 0; i < kStaticCheckCount; ++i) {
    if (counts[i] == 0) continue;
    line += ',';
    json::append_string(line, to_string(static_cast<StaticCheck>(i)));
    line += ':';
    json::append_u64(line, counts[i]);
  }
  line += ",\"states\":";
  json::append_u64(line, states);
  line += ",\"configs\":";
  json::append_u64(line, configs);
  line += ",\"transitions\":";
  json::append_u64(line, transitions);
  line += ",\"paths\":";
  json::append_u64(line, paths);
  line += ",\"pruned\":";
  json::append_u64(line, pruned_paths);
  line += ",\"halting\":";
  json::append_u64(line, halting_configs);
  line += ",\"dead\":";
  json::append_u64(line, dead_configs);
  line += ",\"kernel_paths\":";
  json::append_u64(line, kernel_paths);
  line += ",\"max_reads\":";
  json::append_u64(line, max_reads_in_cycle);
  line += ",\"max_writes\":";
  json::append_u64(line, max_writes_in_cycle);
  line += ",\"read_budget\":";
  json::append_u64(line, read_budget);
  line += ",\"write_budget\":";
  json::append_u64(line, write_budget);
  line += ",\"rounds\":";
  json::append_u64(line, rounds);
  line += ",\"converged\":";
  line += converged ? "true" : "false";
  line += ",\"truncated\":";
  line += truncated ? "true" : "false";
  if (truncation != 0) {
    line += ",\"truncated_by\":";
    json::append_string(line, render_truncation(truncation));
  }
  if (dropped_agreement_records > 0) {
    line += ",\"dropped_agreement\":";
    json::append_u64(line, dropped_agreement_records);
  }
  line += ",\"kernel_checked\":";
  line += kernel_checked ? "true" : "false";
  line += ",\"oblivious_checked\":";
  line += oblivious_checked ? "true" : "false";
  line += '}';
  out << line << '\n';
}

std::string StaticReport::to_text() const {
  std::ostringstream os;
  os << "static-verify: " << (ok() ? "clean" : "FINDINGS") << " (" << total()
     << " findings over " << states << " states, " << configs
     << " configurations, " << transitions << " transitions, " << paths
     << " paths [" << pruned_paths << " pruned, " << halting_configs
     << " halting]; max " << max_reads_in_cycle << "/" << read_budget
     << " reads, " << max_writes_in_cycle << "/" << write_budget
     << " writes per cycle; " << rounds << " rounds, "
     << (converged ? "converged" : "not converged")
     << (truncated ? ", TRUNCATED by " + render_truncation(truncation) : "")
     << (kernel_checked ? ", kernels checked" : "")
     << (oblivious_checked ? ", obliviousness checked" : "") << ")";
  if (dropped_agreement_records > 0) {
    os << " [" << dropped_agreement_records
       << " agreement records past the per-cell cap dropped]";
  }
  os << "\n";
  for (const StaticFinding& f : findings) {
    os << "  [" << to_string(f.check) << "]";
    const AuditContext& c = f.context;
    if (c.slot >= 0) os << " slot " << c.slot;
    if (c.pid() >= 0) {
      os << " pid";
      for (std::size_t i = 0; i < c.pids.size(); ++i) {
        os << (i > 0 ? "," : " ") << c.pids[i];
      }
    }
    if (c.cell >= 0) os << " cell " << c.cell;
    os << ": " << f.detail;
    if (!f.valuation.empty()) {
      os << " under reads " << render_valuation(f.valuation);
    }
    os << '\n';
  }
  if (dropped_findings > 0) {
    os << "  ... and " << dropped_findings << " more findings dropped\n";
  }
  return os.str();
}

namespace {

// The "arbitrary" garbage word: high bits set so that epoch-stamped reads
// (writeall/layout.hpp payload_of) see a stamp mismatch, like real residue
// from another epoch would produce.
constexpr Word kArbitraryWord = Word{0x7ead'beef'0000'0001};

// The two fill sentinels for cells outside the path's read set during the
// kernel-equivalence runs: a bit-identical kernel never observes them, so
// its output must not change between the two.
constexpr Word kKernelFillA = 0;
constexpr Word kKernelFillB = Word{0x7f1d'0000'0000'0001};

// Per-cell value sets, seeded {0, 1/goal-done, init, arbitrary} and widened
// with every value the program was observed to write (`feed`). Sizes only
// grow, so a sum of sizes over a read set is a monotone re-exploration
// stamp.
class Domain final : public DomainSource {
 public:
  Domain(const Program& program, const VerifyOptions& options,
         std::span<const Word> init)
      : goal_(program.goal_cells()) {
    cells_.resize(init.size());
    for (Addr a = 0; a < init.size(); ++a) {
      std::vector<SymbolicValue>& dom = cells_[a].values;
      dom.push_back({0, AbstractTag::kZero});
      if (init[a] != 0) dom.push_back({init[a], tag_for(program, a, init[a])});
      if (!contains(dom, 1)) dom.push_back({1, tag_for(program, a, 1)});
      if (options.arbitrary_reads && !contains(dom, kArbitraryWord)) {
        dom.push_back({kArbitraryWord, AbstractTag::kArbitrary});
      }
    }
  }

  std::size_t size(Addr addr) const override {
    return addr < cells_.size() ? cells_[addr].values.size() : 1;
  }
  SymbolicValue at(Addr addr, std::size_t index) const override {
    if (addr >= cells_.size()) return {0, AbstractTag::kZero};
    return cells_[addr].values[index];
  }

  // Widen cell `addr` with an observed write. Returns true iff it grew.
  bool feed(const Program& program, Addr addr, Word value) {
    if (addr >= cells_.size()) return false;
    std::vector<SymbolicValue>& dom = cells_[addr].values;
    if (contains(dom, value)) return false;
    if (dom.size() >= kMaxDomainValues) {
      truncated_ = true;
      return false;
    }
    dom.push_back({value, tag_for(program, addr, value)});
    return true;
  }

  bool truncated() const { return truncated_; }

 private:
  struct Cell {
    std::vector<SymbolicValue> values;
  };

  static bool contains(const std::vector<SymbolicValue>& dom, Word value) {
    for (const SymbolicValue& v : dom) {
      if (v.value == value) return true;
    }
    return false;
  }

  AbstractTag tag_for(const Program& program, Addr addr, Word value) const {
    if (goal_ && addr >= goal_->base && addr < goal_->base + goal_->count &&
        program.goal_cell_done(addr, value)) {
      return AbstractTag::kGoalDone;
    }
    if (value == 1) return AbstractTag::kOne;
    return AbstractTag::kWritten;
  }

  std::optional<GoalCells> goal_;
  std::vector<Cell> cells_;
  bool truncated_ = false;
};

// The per-cycle address trace the obliviousness proof compares across
// valuations: cells read (in order), the writes' addresses and count, the
// halting decision, snapshot use. Write *values* are allowed to depend on
// reads; everything here is not.
struct TraceShape {
  std::vector<Addr> reads;
  std::vector<Addr> write_addrs;
  bool halted = false;
  bool used_snapshot = false;

  friend bool operator==(const TraceShape&, const TraceShape&) = default;
};

TraceShape shape_of(const PathOutcome& out) {
  TraceShape s;
  s.reads = out.reads;
  s.write_addrs.reserve(out.writes.size());
  for (const WriteOp& w : out.writes) s.write_addrs.push_back(w.addr);
  s.halted = out.halted;
  s.used_snapshot = out.used_snapshot;
  return s;
}

// One recorded write for the COMMON/WEAK agreement pass.
struct WriteRecord {
  Pid pid = 0;
  Word value = 0;
  std::uint32_t state = 0;
  std::vector<ReadAssumption> valuation;  // sorted by addr
};

// Two valuations are consistent iff they agree on every cell both read —
// only then could the two cycles co-occur in one real slot.
bool consistent(const std::vector<ReadAssumption>& a,
                const std::vector<ReadAssumption>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].addr < b[j].addr) {
      ++i;
    } else if (b[j].addr < a[i].addr) {
      ++j;
    } else {
      if (a[i].value != b[j].value) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

class Explorer {
 public:
  Explorer(const Program& program, const VerifyOptions& options)
      : program_(program), options_(options),
        init_image_(make_init(program)),
        domain_(program, options, init_image_),
        sym_(domain_, program, options.unit_cost_snapshot) {
    if (options_.slots == 0 || options_.slots > Slot{1} << 16) {
      throw ConfigError("VerifyOptions::slots must be in [1, 65536]");
    }
    if (program_.processors() >= Pid{1} << 16) {
      throw ConfigError("static verification supports < 65536 processors");
    }
    if (program_.memory_size() > Addr{1} << 22) {
      throw ConfigError(
          "static verification enumerates a per-cell domain; use a small "
          "instance (memory_size <= 2^22 cells)");
    }
    report_.read_budget = options_.read_budget;
    report_.write_budget = options_.write_budget;
    oblivious_ = program_.oblivious();
    report_.oblivious_checked = oblivious_;
    if (options_.check_kernels) kernel_ = program_.batch_kernels();
    if (kernel_ != nullptr) {
      report_.kernel_checked = true;
      soa_ = SoaStore(program_.processors(), kernel_->registers());
    }
  }

  StaticReport run() {
    seed_boot_states();
    bool changed = true;
    for (std::size_t round = 0; round < options_.max_rounds && changed;
         ++round) {
      report_.rounds = round + 1;
      changed = explore_round();
    }
    if (changed) truncate(TruncationCause::kRounds);
    if (domain_.truncated()) truncate(TruncationCause::kDomainValues);
    report_.converged = !changed && !report_.truncated;
    finish_agreement();
    finish_reachability();
    report_.states = states_.size();
    report_.configs = memos_.size();
    std::uint64_t transitions = 0;
    std::uint64_t dead = 0;
    std::uint64_t halting = 0;
    for (const auto& [key, memo] : memos_) {  // determinism: ok — a sum
      transitions += memo.successors.size();
      if (memo.dead) ++dead;
      if (memo.halts) ++halting;
    }
    report_.transitions = transitions;
    report_.dead_configs = dead;
    report_.halting_configs = halting;
    return std::move(report_);
  }

 private:
  void truncate(TruncationCause cause) {
    report_.truncated = true;
    report_.truncation |= std::uint32_t{1} << static_cast<unsigned>(cause);
  }

  // A configuration is (pid, interned state, slot), packed into one key.
  // The constructor bounds pid and slot to 16 bits; max_states bounds the
  // state index far below its 32.
  static std::uint64_t pack(Pid pid, std::uint32_t state, Slot slot) {
    return (std::uint64_t{pid} << 48) | (std::uint64_t{state} << 16) | slot;
  }
  static Pid pid_of(std::uint64_t key) { return Pid(key >> 48); }
  static std::uint32_t state_of(std::uint64_t key) {
    return std::uint32_t((key >> 16) & 0xffffffffu);
  }
  static Slot slot_of(std::uint64_t key) { return key & 0xffff; }

  struct Memo {
    bool explored = false;
    std::uint64_t stamp = 0;          // Σ domain sizes over read_addrs
    std::vector<Addr> read_addrs;     // cells first-read across paths
    std::vector<std::uint64_t> successors;  // config keys (deduplicated)
    bool dead = false;      // every valuation threw
    bool halts = false;     // some valuation halts
    bool snapshot = false;  // some path snapshotted: depends on the whole
                            // image, so re-explore when it widens
  };

  static std::vector<Word> make_init(const Program& program) {
    SharedMemory mem(program.memory_size());
    program.init_memory(mem);
    return {mem.words().begin(), mem.words().end()};
  }

  void seed_boot_states() {
    const Pid p = program_.processors();
    boot_states_.resize(p);
    for (Pid pid = 0; pid < p; ++pid) {
      std::unique_ptr<ProcessorState> state = program_.boot(pid);
      std::vector<Word> words;
      if (!state->save_state(words)) {
        throw ConfigError(
            "static verification keys the state space by the checkpoint "
            "word stream; the program's ProcessorState::save_state is "
            "unsupported");
      }
      if (program_.load_state(pid, words) == nullptr) {
        throw ConfigError(
            "static verification replays states through Program::load_state, "
            "which this program does not support");
      }
      boot_states_[pid] = intern(std::move(words));
    }
  }

  std::uint32_t intern(std::vector<Word> words) {
    auto it = intern_.find(words);
    if (it != intern_.end()) return it->second;
    if (states_.size() >= options_.max_states) {
      truncate(TruncationCause::kStates);
      return kNoState;
    }
    const auto id = static_cast<std::uint32_t>(states_.size());
    states_.push_back(words);
    intern_.emplace(std::move(words), id);
    return id;
  }

  std::uint64_t stamp_of(const std::vector<Addr>& addrs) const {
    std::uint64_t sum = 0;
    for (const Addr a : addrs) sum += domain_.size(a);
    return sum;
  }

  // Re-exploration key: domain growth over the cells this config reads,
  // plus the snapshot-image version for configs that snapshot (their
  // behaviour depends on every cell). Both terms are monotone.
  std::uint64_t stamp_for(const Memo& memo) const {
    return stamp_of(memo.read_addrs) + (memo.snapshot ? mem_version_ : 0);
  }

  // One feedback-widening round: (re-)explore every configuration whose
  // read cells gained domain values, following successors. Returns whether
  // anything new was discovered (configs, states, or domain values).
  bool explore_round() {
    changed_ = false;
    const Pid p = program_.processors();
    std::vector<std::uint64_t> queue;
    std::unordered_set<std::uint64_t> enqueued;
    for (Pid pid = 0; pid < p; ++pid) {
      // Boot at every slot of the horizon: a restarted processor re-enters
      // the state space with a fresh boot state at an arbitrary slot.
      for (Slot slot = 0; slot < options_.slots; ++slot) {
        const std::uint64_t key = pack(pid, boot_states_[pid], slot);
        if (enqueued.insert(key).second) queue.push_back(key);
      }
    }
    while (!queue.empty()) {
      const std::uint64_t key = queue.back();
      queue.pop_back();
      Memo& memo = memos_[key];
      if (!memo.explored || memo.stamp != stamp_for(memo)) {
        explore_config(key, memo);
      }
      for (const std::uint64_t succ : memo.successors) {
        if (enqueued.insert(succ).second) queue.push_back(succ);
      }
    }
    return changed_;
  }

  // Enumerate every read valuation of one configuration by odometer over
  // the decision script, checking each resulting path.
  void explore_config(std::uint64_t key, Memo& memo) {
    const Pid pid = pid_of(key);
    const std::uint32_t state_id = state_of(key);
    const Slot slot = slot_of(key);
    if (!memo.explored) changed_ = true;
    memo.explored = true;
    memo.read_addrs.clear();
    memo.successors.clear();
    memo.dead = false;
    memo.halts = false;

    bool any_completed = false;
    std::size_t paths = 0;
    std::optional<TraceShape> shape;
    std::vector<ReadAssumption> shape_valuation;
    std::vector<PathDecision> script;
    while (true) {
      if (paths >= kMaxPathsPerConfig) {
        truncate(TruncationCause::kPathsPerConfig);
        break;
      }
      if (report_.paths >= options_.max_total_paths) {
        truncate(TruncationCause::kTotalPaths);
        break;
      }
      std::unique_ptr<ProcessorState> state =
          program_.load_state(pid, states_[state_id]);
      RFSP_CHECK_MSG(state != nullptr, "load_state lost checkpoint support");
      PathOutcome out = sym_.run(*state, pid, slot, script);
      ++paths;
      ++report_.paths;
      process_path(key, memo, *state, out, any_completed, shape,
                   shape_valuation);

      // Odometer: advance the rightmost branch point that still has an
      // untried domain value; drop the positions after it.
      script = std::move(out.decisions);
      while (!script.empty()) {
        if (++script.back().index < script.back().size) break;
        script.pop_back();
      }
      if (script.empty()) break;
    }
    if (!any_completed && paths > 0) memo.dead = true;
    memo.stamp = stamp_for(memo);
  }

  void process_path(std::uint64_t key, Memo& memo, ProcessorState& post,
                    PathOutcome& out, bool& any_completed,
                    std::optional<TraceShape>& shape,
                    std::vector<ReadAssumption>& shape_valuation) {
    const Pid pid = pid_of(key);
    const std::uint32_t state_id = state_of(key);
    const Slot slot = slot_of(key);
    for (const PathDecision& d : out.decisions) {
      if (std::find(memo.read_addrs.begin(), memo.read_addrs.end(), d.addr) ==
          memo.read_addrs.end()) {
        memo.read_addrs.push_back(d.addr);
      }
    }
    report_.max_reads_in_cycle =
        std::max(report_.max_reads_in_cycle, out.reads.size());
    report_.max_writes_in_cycle =
        std::max(report_.max_writes_in_cycle, out.writes.size());

    AuditContext ctx;
    ctx.slot = static_cast<std::int64_t>(slot);
    ctx.pids = {pid};

    // Out-of-bounds accesses under a garbage-containing valuation are the
    // valuation's fault, not the program's: prune, like a program throw.
    if (out.oob_read || out.oob_write) {
      if (!out.used_arbitrary) {
        AuditContext oob = ctx;
        oob.cell = static_cast<std::int64_t>(out.oob_addr);
        add_once(StaticCheck::kOutOfBounds, key_state(state_id),
                 std::string(out.oob_read ? "shared read" : "shared write") +
                     " past memory_size() at cell " +
                     std::to_string(out.oob_addr),
                 std::move(oob), states_[state_id], out.valuation);
      } else {
        ++report_.pruned_paths;
      }
      return;  // terminal either way: the real engine throws here
    }

    if (out.threw) {
      if (out.budget_throw) {
        // Blew the widened storage cap — over budget by any measure.
        const bool reads = out.reads.size() >= out.writes.size();
        add_once(reads ? StaticCheck::kReadBudget : StaticCheck::kWriteBudget,
                 key_state(state_id),
                 "cycle exceeded even the storage cap (" + out.error + ")",
                 AuditContext(ctx), states_[state_id], out.valuation);
      } else {
        // The program's own invariant tripped: this valuation is
        // unreachable in a real run (or the program is broken in a way
        // dynamic runs would also throw on) — prune.
        ++report_.pruned_paths;
      }
      return;
    }

    // Budgets and phase order, per completed cycle.
    if (out.reads.size() > options_.read_budget) {
      add_once(StaticCheck::kReadBudget, key_state(state_id),
               "cycle issues " + std::to_string(out.reads.size()) +
                   " shared reads (budget " +
                   std::to_string(options_.read_budget) + ")",
               AuditContext(ctx), states_[state_id], out.valuation);
    }
    if (out.writes.size() > options_.write_budget) {
      add_once(StaticCheck::kWriteBudget, key_state(state_id),
               "cycle buffers " + std::to_string(out.writes.size()) +
                   " shared writes (budget " +
                   std::to_string(options_.write_budget) + ")",
               AuditContext(ctx), states_[state_id], out.valuation);
    }
    if (out.read_after_write || out.snapshot_after_write) {
      add_once(StaticCheck::kPhaseOrder, key_state(state_id),
               out.snapshot_after_write
                   ? "snapshot after a buffered write (read*, compute, "
                     "write* discipline)"
                   : "shared read after a buffered write (read*, compute, "
                     "write* discipline)",
               AuditContext(ctx), states_[state_id], out.valuation);
    }

    any_completed = true;
    if (out.halted) {
      memo.halts = true;
    } else {
      // Intern the successor and queue the edge.
      std::vector<Word> words;
      if (post.save_state(words)) {
        const std::uint32_t succ = intern(std::move(words));
        if (succ != kNoState && slot + 1 < options_.slots) {
          const std::uint64_t succ_key = pack(pid, succ, slot + 1);
          if (std::find(memo.successors.begin(), memo.successors.end(),
                        succ_key) == memo.successors.end()) {
            memo.successors.push_back(succ_key);
          }
        }
      }
    }

    // Feedback widening: every value the program writes becomes a candidate
    // read value everywhere that cell is read, and updates the snapshot
    // image so whole-memory readers see the progress it represents.
    for (const WriteOp& w : out.writes) {
      if (domain_.feed(program_, w.addr, w.value)) changed_ = true;
      if (sym_.widen_snapshot(w.addr, w.value)) {
        ++mem_version_;
        changed_ = true;
      }
    }
    if (out.used_snapshot) memo.snapshot = true;

    // Obliviousness: the address trace must not vary across valuations of
    // one configuration.
    if (oblivious_) {
      TraceShape s = shape_of(out);
      if (!shape) {
        shape = std::move(s);
        shape_valuation = out.valuation;
      } else if (s != *shape) {
        add_once(StaticCheck::kOblivious, key_state(state_id),
                 "address trace depends on values read: baseline valuation " +
                     render_valuation(shape_valuation) +
                     " yields a different read/write/halt trace",
                 AuditContext(ctx), states_[state_id], out.valuation);
      }
    }

    // COMMON/WEAK write agreement across processors (same slot, same cell).
    if (options_.check_write_agreement && !out.used_arbitrary &&
        (options_.model == CrcwModel::kCommon ||
         options_.model == CrcwModel::kWeak)) {
      record_writes(pid, state_id, slot, out);
    }

    // Interpreter/kernel bit-equivalence on this state and valuation.
    if (kernel_ != nullptr && !out.used_arbitrary && !out.used_snapshot &&
        out.reads.size() <= options_.read_budget &&
        out.writes.size() <= options_.write_budget) {
      check_kernel(pid, state_id, slot, out, post, AuditContext(ctx));
    }
  }

  // --- finding bookkeeping ---------------------------------------------

  // Findings deduplicate per (check, subject): the first counterexample is
  // kept, repeats across paths/rounds are not re-counted.
  static std::uint64_t key_state(std::uint32_t state_id) { return state_id; }

  void add_once(StaticCheck check, std::uint64_t subject, std::string detail,
                AuditContext context, std::vector<Word> state,
                std::vector<ReadAssumption> valuation) {
    if (!reported_
             .emplace((std::uint64_t{static_cast<std::uint8_t>(check)} << 56) ^
                      subject)
             .second) {
      return;
    }
    report_.add(check, std::move(detail), std::move(context), std::move(state),
                std::move(valuation));
  }

  // --- write agreement --------------------------------------------------

  void record_writes(Pid pid, std::uint32_t state_id, Slot slot,
                     const PathOutcome& out) {
    std::vector<ReadAssumption> valuation = out.valuation;
    std::sort(valuation.begin(), valuation.end(),
              [](const ReadAssumption& a, const ReadAssumption& b) {
                return a.addr < b.addr;
              });
    for (const WriteOp& w : out.writes) {
      const std::uint64_t group = (std::uint64_t{slot} << 32) | w.addr;
      std::vector<WriteRecord>& records = agreement_[group];
      bool duplicate = false;
      for (const WriteRecord& r : records) {
        if (r.pid == pid && r.value == w.value && r.valuation == valuation) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      if (records.size() >= kMaxAgreementRecords) {
        ++report_.dropped_agreement_records;
        continue;
      }
      records.push_back({pid, w.value, state_id, valuation});
      ++report_.agreement_records;
    }
  }

  void finish_agreement() {
    if (!options_.check_write_agreement) return;
    // Findings must come out in a platform-independent order; the map's
    // hash order is not one, so walk the (slot, cell) groups sorted.
    std::vector<std::uint64_t> groups;
    groups.reserve(agreement_.size());
    for (const auto& [group, records] :
         agreement_) {  // determinism: ok — keys are sorted below
      groups.push_back(group);
    }
    std::sort(groups.begin(), groups.end());
    for (const std::uint64_t group : groups) {
      const std::vector<WriteRecord>& records = agreement_.at(group);
      const Slot slot = group >> 32;
      const Addr cell = group & 0xffffffffu;
      // COMMON's concurrent writers must agree; WEAK's must all write
      // kWeakValue, while a lone writer may write any value.
      const bool weak = options_.model == CrcwModel::kWeak;
      for (std::size_t i = 0; i < records.size(); ++i) {
        for (std::size_t j = i + 1; j < records.size(); ++j) {
          const WriteRecord& a = records[i];
          const WriteRecord& b = records[j];
          const bool clash = weak ? a.value != kWeakValue ||
                                        b.value != kWeakValue
                                  : a.value != b.value;
          if (a.pid == b.pid || !clash) continue;
          if (!consistent(a.valuation, b.valuation)) continue;
          AuditContext ctx;
          ctx.slot = static_cast<std::int64_t>(slot);
          ctx.cell = static_cast<std::int64_t>(cell);
          if (weak) {
            const WriteRecord& r = a.value != kWeakValue ? a : b;
            ctx.pids = {r.pid};
            ctx.values = {r.value};
            add_once(StaticCheck::kWriteAgreement, cell,
                     "WEAK write of a non-designated value", std::move(ctx),
                     states_[r.state], r.valuation);
          } else {
            ctx.pids = {a.pid, b.pid};
            ctx.values = {a.value, b.value};
            add_once(StaticCheck::kWriteAgreement, cell,
                     "two processors with consistent read valuations write "
                     "different values (COMMON)",
                     std::move(ctx), states_[a.state], a.valuation);
          }
          j = records.size();
          i = records.size();
        }
      }
    }
  }

  // --- kernel equivalence -----------------------------------------------

  void check_kernel(Pid pid, std::uint32_t state_id, Slot slot,
                    const PathOutcome& out, ProcessorState& post,
                    AuditContext ctx) {
    std::vector<Word> post_words;
    const bool have_post = !out.halted && post.save_state(post_words);
    std::optional<std::string> mismatch =
        run_kernel_once(pid, state_id, slot, out, kKernelFillA,
                        have_post ? &post_words : nullptr);
    if (!mismatch) {
      mismatch = run_kernel_once(pid, state_id, slot, out, kKernelFillB,
                                 have_post ? &post_words : nullptr);
      if (mismatch) {
        *mismatch += " (only when unread cells change: the kernel consults "
                     "cells the interpreter never read)";
      }
    }
    ++report_.kernel_paths;
    if (mismatch) {
      add_once(StaticCheck::kKernelMismatch, key_state(state_id), *mismatch,
               std::move(ctx), states_[state_id], out.valuation);
    }
  }

  // One lane run against a concrete image: valuation cells hold their
  // assumed values, every other cell the fill sentinel. Returns a mismatch
  // description, or nullopt when the kernel matched the interpreter.
  std::optional<std::string> run_kernel_once(Pid pid, std::uint32_t state_id,
                                             Slot slot, const PathOutcome& out,
                                             Word fill,
                                             const std::vector<Word>* post) {
    image_.assign(program_.memory_size(), fill);
    for (const ReadAssumption& r : out.valuation) image_[r.addr] = r.value;
    LaneLog log;
    const BatchContext bctx{std::span<const Word>(image_), slot,
                            /*traces=*/nullptr, &log};
    const Pid pids[1] = {pid};
    try {
      kernel_->load_lane(soa_, pid, states_[state_id]);
      kernel_->run(0, std::span<const Pid>(pids, 1), bctx, soa_);
    } catch (const std::exception& e) {
      return "lane kernel threw where the interpreter completed: " +
             std::string(e.what());
    }
    if (log.writes.size() != out.writes.size()) {
      return "kernel buffered " + std::to_string(log.writes.size()) +
             " writes, interpreter " + std::to_string(out.writes.size());
    }
    for (std::size_t i = 0; i < log.writes.size(); ++i) {
      if (log.writes[i].pid != pid ||
          Addr{log.writes[i].addr} != out.writes[i].addr ||
          log.writes[i].value != out.writes[i].value) {
        return "write " + std::to_string(i) + " differs: kernel [" +
               std::to_string(log.writes[i].addr) +
               "]=" + std::to_string(log.writes[i].value) + ", interpreter [" +
               std::to_string(out.writes[i].addr) +
               "]=" + std::to_string(out.writes[i].value);
      }
    }
    const bool kernel_halt = !log.halts.empty();
    if (kernel_halt != out.halted) {
      return kernel_halt ? "kernel halts where the interpreter continues"
                         : "interpreter halts where the kernel continues";
    }
    if (post != nullptr) {
      std::vector<Word> lane_words;
      try {
        kernel_->save_lane(soa_, pid, lane_words);
      } catch (const std::exception& e) {
        return "save_lane threw after the cycle: " + std::string(e.what());
      }
      if (lane_words != *post) {
        return "post-cycle checkpoint words differ between kernel and "
               "interpreter";
      }
    }
    return std::nullopt;
  }

  // --- reachability ------------------------------------------------------

  void finish_reachability() {
    if (!options_.check_halt_reachability) return;
    if (report_.truncated || changed_) return;  // inconclusive: stay silent
    bool halts = false;
    for (const auto& [key, memo] : memos_) {  // determinism: ok — an |= fold
      halts |= memo.halts;
    }
    if (halts) return;
    AuditContext ctx;
    report_.add(StaticCheck::kHaltUnreachable,
                "no reachable configuration halts under any explored "
                "valuation within the slot horizon",
                std::move(ctx), {}, {});
  }

  static constexpr std::uint32_t kNoState = 0xffffffffu;

  const Program& program_;
  const VerifyOptions& options_;
  StaticReport report_;
  std::vector<Word> init_image_;
  Domain domain_;
  SymbolicContext sym_;
  std::unique_ptr<BatchKernel> kernel_;
  SoaStore soa_;
  bool oblivious_ = false;
  bool changed_ = false;
  std::uint64_t mem_version_ = 0;  // snapshot-image widenings so far

  std::vector<std::vector<Word>> states_;
  std::map<std::vector<Word>, std::uint32_t> intern_;
  std::vector<std::uint32_t> boot_states_;
  std::unordered_map<std::uint64_t, Memo> memos_;
  std::unordered_map<std::uint64_t, std::vector<WriteRecord>> agreement_;
  std::unordered_set<std::uint64_t> reported_;
  std::vector<Word> image_;  // kernel-equivalence scratch
};

}  // namespace

StaticVerifier::StaticVerifier(const Program& program, VerifyOptions options)
    : program_(program), options_(options) {}

StaticReport StaticVerifier::run() const {
  Explorer explorer(program_, options_);
  return explorer.run();
}

StaticReport verify_program(const Program& program, VerifyOptions options) {
  return StaticVerifier(program, std::move(options)).run();
}

}  // namespace rfsp::analysis
