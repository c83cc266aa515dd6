#include "sim/discipline.hpp"

#include <map>
#include <vector>

#include "sim/sync_exec.hpp"

namespace rfsp {

namespace {

DisciplineReport fail(std::string what, Step t, Addr a, std::vector<Pid> pids,
                      std::vector<Word> values) {
  DisciplineReport report;
  report.ok = false;
  report.violation = std::move(what);
  report.step = t;
  report.cell = a;
  report.context.slot = static_cast<std::int64_t>(t);
  report.context.cell = static_cast<std::int64_t>(a);
  report.context.pids = std::move(pids);
  report.context.values = std::move(values);
  return report;
}

}  // namespace

DisciplineReport check_discipline(const SimProgram& program,
                                  CrcwModel discipline) {
  SyncExecutor exec(program, /*record_loads=*/true);
  DisciplineReport report;
  for (Step t = 0; t < program.steps(); ++t) {
    std::map<Addr, std::vector<Pid>> readers;
    struct WriteInfo {
      std::vector<Pid> pids;
      std::vector<Word> values;
      bool all_weak = true;
    };
    std::map<Addr, WriteInfo> writers;

    const bool ran = exec.step(t, [&](Pid j) {
      for (const Addr a : exec.loads()) readers[a].push_back(j);
      for (const WriteOp& w : exec.stores()) {
        WriteInfo& info = writers[w.addr];
        const bool disagree =
            !info.pids.empty() && info.values.back() != w.value;
        info.pids.push_back(j);
        info.values.push_back(w.value);
        if (disagree && discipline == CrcwModel::kCommon) {
          report = fail("COMMON writers disagree", t, w.addr,
                        std::move(info.pids), std::move(info.values));
          return false;
        }
        info.all_weak = info.all_weak && w.value == kWeakValue;
      }
      return true;
    });
    if (!ran) return report;

    // A synchronous PRAM step has a read phase then a write phase, so a
    // read and a write to one cell by different processors never collide:
    // conflicts are read-vs-read (EREW only) and write-vs-write.
    if (discipline == CrcwModel::kErew) {
      for (auto& [a, pids] : readers) {
        if (pids.size() > 1) {
          return fail("concurrent read under EREW", t, a, std::move(pids),
                      {});
        }
      }
    }
    for (auto& [a, info] : writers) {
      if (info.pids.size() > 1 && (discipline == CrcwModel::kErew ||
                                   discipline == CrcwModel::kCrew)) {
        return fail(discipline == CrcwModel::kErew
                        ? "concurrent write under EREW"
                        : "concurrent write under CREW",
                    t, a, std::move(info.pids), std::move(info.values));
      }
      if (info.pids.size() > 1 && discipline == CrcwModel::kWeak &&
          !info.all_weak) {
        return fail(
            "concurrent write of a non-designated value under WEAK", t, a,
            std::move(info.pids), std::move(info.values));
      }
    }
  }
  return report;
}

}  // namespace rfsp
