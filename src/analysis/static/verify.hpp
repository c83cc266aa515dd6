// Static conformance verifier (docs/analysis.md §"Static verification").
//
// The PR5 auditor checks the §2.1 update-cycle discipline *dynamically*: it
// watches one run, at 2–11× runtime cost, and only sees the control states
// that run's schedule happens to visit. The StaticVerifier instead proves
// the contract once, up front, over every reachable private state: it
// enumerates the program's state space by driving ProcessorState::cycle
// through an instrumented SymbolicContext whose reads return values from a
// small abstract domain ({0, 1, goal-done, arbitrary} plus every value the
// program itself was seen to write — the feedback widening), keyed by the
// save_state word stream. Per control state it derives and checks:
//
//   * read/write counts against the configured budgets (kReadBudget /
//     kWriteBudget) and the read*-compute-write* phase order, including
//     a snapshot issued after a write — a case the engine's own runtime
//     checks never catch (kPhaseOrder);
//   * a differential obliviousness proof for programs claiming the
//     oblivious fast path (Program::oblivious): the address trace — cells
//     read, cells written, write count, halting — must be identical across
//     every read valuation, i.e. no read value may flow into addresses or
//     control (kOblivious);
//   * COMMON/WEAK write-agreement shape: two processors whose valuations
//     are consistent (they assume the same values at every shared cell
//     both read) must not write different values to one cell in one slot
//     (kWriteAgreement);
//   * out-of-bounds shared accesses reachable under non-arbitrary
//     valuations (kOutOfBounds);
//   * bit-equivalence of the interpreter and the Program::batch_kernels()
//     lane kernels on every visited state and valuation: same buffered
//     writes, halting decision, and checkpoint word stream, and no reads
//     outside the interpreter's read set (kKernelMismatch);
//   * reachability: visited states/transitions, dead states (every
//     valuation throws), and — when exploration converged without hitting
//     a cap — whether any halting cycle is reachable at all
//     (kHaltUnreachable).
//
// What this is NOT: a full proof of functional correctness. The domain
// over-approximates (per-cell value sets, no cross-cell correlation), so a
// path the program guards against with internal invariant checks is
// *pruned* (counted, not reported) when the program throws — absence of
// findings means no discipline violation is reachable under the explored
// valuations, not that the algorithm solves its problem.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.hpp"
#include "pram/program.hpp"
#include "pram/types.hpp"

namespace rfsp::analysis {

// The conformance properties the verifier proves per control state.
enum class StaticCheck : std::uint8_t {
  kReadBudget,      // a reachable cycle issues more shared reads than the
                    // configured budget (§2.1, default <= 4)
  kWriteBudget,     // ... more buffered shared writes than the budget (<= 2)
  kPhaseOrder,      // a shared read or snapshot after a buffered write
                    // within one cycle (read*, compute, write*)
  kOblivious,       // a program claiming Program::oblivious has a state
                    // whose address trace depends on values read
  kWriteAgreement,  // two consistent valuations make different processors
                    // write different values to one cell in one slot
                    // (COMMON), or a non-designated value (WEAK)
  kKernelMismatch,  // the batch lane kernel diverges from the interpreter
                    // on a visited state (writes, halt, checkpoint words,
                    // or it consults cells the interpreter never read)
  kOutOfBounds,     // a shared access past memory_size() reachable under a
                    // non-arbitrary valuation
  kHaltUnreachable, // exploration converged and no valuation ever halts
};
inline constexpr std::size_t kStaticCheckCount = 8;

std::string_view to_string(StaticCheck check);

// Which exploration cap clipped the state-space walk (bits of
// StaticReport::truncation). Distinct causes matter: a path or domain cap
// hides reachable behaviour, while the agreement-record cap (reported
// separately via dropped_agreement_records) only narrows the
// kWriteAgreement cross-check.
enum class TruncationCause : std::uint8_t {
  kStates = 0,          // VerifyOptions::max_states
  kPathsPerConfig = 1,  // 512 cycle executions per (pid, state, slot)
  kTotalPaths = 2,      // VerifyOptions::max_total_paths
  kDomainValues = 3,    // 24 values in one cell's domain
  kRounds = 4,          // VerifyOptions::max_rounds hit while still growing
};

std::string_view to_string(TruncationCause cause);

// Taint tag of an abstract read value: where the valuation got it from.
enum class AbstractTag : std::uint8_t {
  kZero,       // the cleared-memory value
  kOne,        // the generic written mark
  kGoalDone,   // satisfies Program::goal_cell_done for the cell
  kInit,       // the cell's init_memory value
  kWritten,    // fed back from a write the program itself made
  kArbitrary,  // unconstrained garbage (e.g. another epoch's residue)
};

std::string_view to_string(AbstractTag tag);

// One assumed shared read: during this path, the first read of `addr`
// returned `value` (repeat reads of the cell return the same value — the
// memory is frozen within a slot).
struct ReadAssumption {
  Addr addr = 0;
  Word value = 0;
  AbstractTag tag = AbstractTag::kZero;

  friend bool operator==(const ReadAssumption&,
                         const ReadAssumption&) = default;
};

// One finding, with a concrete counterexample: the private state (as a
// save_state word stream), the slot, and the read valuation under which
// the offending cycle was driven. `context` reuses the auditor's shape
// (analysis/report.hpp) so downstream tooling reads one format.
struct StaticFinding {
  StaticCheck check = StaticCheck::kReadBudget;
  std::string detail;
  AuditContext context;
  std::vector<Word> state;
  std::vector<ReadAssumption> valuation;
};

// Everything one verification produced. Findings are deduplicated per
// (check, control state): the counters count offending *states*, not
// offending paths, and `findings` keeps the first counterexample of each
// up to 64 (past that only the counters and dropped_findings grow).
struct StaticReport {
  std::vector<StaticFinding> findings;
  std::array<std::uint64_t, kStaticCheckCount> counts{};
  std::uint64_t dropped_findings = 0;

  // Coverage (reported even when clean).
  std::uint64_t states = 0;        // distinct private states interned
  std::uint64_t configs = 0;       // distinct (pid, state, slot) explored
  std::uint64_t transitions = 0;   // distinct config -> successor edges
  std::uint64_t paths = 0;         // cycle executions (all rounds)
  std::uint64_t pruned_paths = 0;  // the program threw under a valuation
  std::uint64_t halting_configs = 0;  // configs with a halting valuation
  std::uint64_t dead_configs = 0;  // configs where every valuation threw
  std::uint64_t kernel_paths = 0;  // interpreter/kernel equivalence runs
  std::uint64_t agreement_records = 0;
  std::size_t max_reads_in_cycle = 0;
  std::size_t max_writes_in_cycle = 0;
  std::size_t read_budget = 0;
  std::size_t write_budget = 0;
  std::uint64_t rounds = 0;     // feedback-widening rounds executed
  bool converged = false;       // the last round discovered nothing new
  bool truncated = false;       // a cap clipped exploration (see truncation)
  std::uint32_t truncation = 0;  // TruncationCause bit mask
  // Distinct (pid, value, valuation) write records past the per-(slot,
  // cell) cap were dropped: the kWriteAgreement cross-check is narrowed,
  // but reachability and halt analysis are unaffected.
  std::uint64_t dropped_agreement_records = 0;
  bool kernel_checked = false;  // program published batch kernels
  bool oblivious_checked = false;

  void add(StaticCheck check, std::string detail, AuditContext context,
           std::vector<Word> state, std::vector<ReadAssumption> valuation);

  std::uint64_t count(StaticCheck check) const {
    return counts[static_cast<std::size_t>(check)];
  }
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts) sum += c;
    return sum;
  }
  bool ok() const { return total() == 0; }

  // One JSON object per line, following the auditor's conventions: a
  // {"e":"static-finding",...} line per finding and a final
  // {"e":"static-summary",...} line with the coverage counters.
  void write_jsonl(std::ostream& out) const;

  // Multi-line human-readable rendering (the CLIs print this).
  std::string to_text() const;
};

struct VerifyOptions {
  // The budgets and discipline to verify against — defaults are the §2.1
  // machine (4 reads, 2 writes, no unit-cost snapshot, COMMON).
  std::size_t read_budget = 4;
  std::size_t write_budget = 2;
  bool unit_cost_snapshot = false;
  CrcwModel model = CrcwModel::kCommon;

  // Explored slot horizon [0, slots). Restarts are modelled by seeding
  // every processor's boot state at every slot in the horizon.
  Slot slots = 48;

  // Include the arbitrary-garbage value in every cell's domain. Paths that
  // consumed it are exempt from the kernel and write-agreement checks (a
  // kernel may rightly lack defensive checks for unreachable garbage).
  bool arbitrary_reads = true;

  bool check_kernels = true;
  bool check_write_agreement = true;
  bool check_halt_reachability = true;

  // Exploration caps; hitting any sets StaticReport::truncated. The
  // per-configuration path cap (512), the per-cell domain cap (24), the
  // stored-finding cap (64) and the per-(slot, cell) agreement-record cap
  // (64) are constants of the verifier. The obliviousness proof runs iff
  // Program::oblivious() claims it.
  std::size_t max_rounds = 10;
  std::size_t max_states = std::size_t{1} << 15;
  std::size_t max_total_paths = std::size_t{1} << 22;
};

// Explicit-state verifier over one Program. The program must support the
// checkpoint hooks (save_state / load_state) — they key and replay the
// state enumeration; a program without them gets a ConfigError.
class StaticVerifier {
 public:
  explicit StaticVerifier(const Program& program, VerifyOptions options = {});

  StaticReport run() const;

 private:
  const Program& program_;
  VerifyOptions options_;
};

// One-shot convenience wrapper.
StaticReport verify_program(const Program& program, VerifyOptions options = {});

}  // namespace rfsp::analysis
