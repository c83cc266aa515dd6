// Binary trace transport: a compact, versioned encoding of the TraceEvent
// protocol (obs/trace.hpp), losslessly interconvertible with the JSONL
// stream. This is the format the engine streams at service scale — roughly
// 3–5 bytes per event against ~40–100 bytes of JSONL text — while keeping
// JSONL as the debuggable format (`trace_cli convert` maps either way,
// byte-exactly; see docs/observability.md for the measured E18 numbers).
//
// ## Wire format (rfsp-trace-binary v1)
//
// All multi-byte fixed-width fields are little-endian. The stream opens
// with a 16-byte header:
//
//   offset 0  u32  magic    0x42544652 — the bytes "RFTB"
//   offset 4  u16  version  1
//   offset 6  u16  flags    0 (reserved; readers reject unknown bits)
//   offset 8  u64  reserved 0 (config area, reserved for stream-level
//                              config in future versions)
//
// followed by one record per event:
//
//   u8      tag         TraceEventKind's numeric value (0..6) — the enum
//                       order in obs/trace.hpp is a wire contract
//   varint  slot_delta  event.slot minus the previous record's slot
//                       (the first record encodes its slot absolutely);
//                       deltas are >= 0 because the stream is slot-ordered
//   ...                 tag-specific payload:
//     slot(0)     varint started, completed, failures, restarts
//     commit(1)   varint writes
//     failure(2)  varint pid
//     restart(3)  varint pid
//     halt(4)     varint pid
//     phase(5)    varint phase, varint name_length, name bytes (UTF-8)
//     run_end(6)  u8 flags: bit0 goal_met, bit1 deadlock, bit2 slot_limit
//                 (readers reject unknown bits)
//
// varint = LEB128 (util/varint.hpp): 7 payload bits per byte, low group
// first, high bit set on continuation bytes; at most 10 bytes (readers
// reject longer).
//
// The record sequence preserves the engine's deterministic ordering
// contract — slot order, and within a slot
//   kPhase?, kSlot, kCommit, kFailure*, kRestart*, kHalt*,
// PID-ordered — so a binary stream is bit-identical across the
// interpreter and the batched SoA backend exactly like the JSONL stream
// is, and converting binary -> JSONL -> binary (or the reverse)
// reproduces the original bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace rfsp {

// Malformed trace input: bad magic/version, an unknown tag or flag bit, an
// over-long varint, a record cut off by truncation, or an unparseable JSONL
// line. A runtime_error (not ConfigError) on purpose: corrupt input is a
// data-dependent condition of the outside world, not a caller bug.
class TraceFormatError : public std::runtime_error {
 public:
  explicit TraceFormatError(const std::string& what)
      : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kBinaryTraceMagic = 0x42544652u;  // "RFTB"
inline constexpr std::uint16_t kBinaryTraceVersion = 1;
inline constexpr std::size_t kBinaryTraceHeaderBytes = 16;

// Streaming encoder. Records are buffered internally (~64 KiB granularity)
// and written to `out` in bulk, so installing it as EngineOptions::sink
// costs a few branches and byte appends per event — no per-event iostream
// formatting. The destructor drains the buffer; flush() additionally
// flushes the ostream (the engine calls it once at run end).
class BinaryTraceWriter final : public TraceSink {
 public:
  explicit BinaryTraceWriter(std::ostream& out);
  ~BinaryTraceWriter() override;

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void on_event(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& out_;
  std::string buf_;
  Slot prev_slot_ = 0;
};

// Incremental decoder over caller-managed bytes — the building block both
// the file readers below and `trace_cli tail` (which follows a growing
// file) share. decode() consumes the header on first use, then one record
// per call:
//   kEvent    — `out` holds the event, `pos` advanced past the record;
//   kNeedMore — the bytes from `pos` on hold no complete header/record;
//               `pos` is untouched, call again with more data appended.
// Corrupt input throws TraceFormatError. TraceEvent::phase_name views the
// decoder's internal buffer: valid until the next decode() call.
class BinaryTraceDecoder {
 public:
  enum class Result { kEvent, kNeedMore };

  Result decode(std::string_view data, std::size_t& pos, TraceEvent& out);

  // Whether the 16-byte stream header has been consumed — the difference
  // between a clean zero-event end and a stream truncated inside the
  // header (BinaryTraceReader treats the latter as corruption).
  bool header_done() const { return header_done_; }

 private:
  bool header_done_ = false;
  Slot prev_slot_ = 0;
  std::string name_buf_;
};

// Same incremental contract over the JSONL format (one event object per
// '\n'-terminated line; a trailing unterminated line is kNeedMore). Blank
// lines are skipped.
class JsonlTraceDecoder {
 public:
  enum class Result { kEvent, kNeedMore };

  Result decode(std::string_view data, std::size_t& pos, TraceEvent& out);

  // JSONL has no stream header; any line boundary is a clean end.
  bool header_done() const { return true; }

 private:
  std::string name_buf_;
};

// Pull-style reader over a complete (non-growing) stream: next() yields
// events until the clean end of the stream, throwing TraceFormatError on
// corruption — including a stream that ends mid-record. "Clean end" means
// a record boundary; whether a kRunEnd event was present is the caller's
// concern (StreamAggregator::check reports its absence).
class TraceReader {
 public:
  virtual ~TraceReader() = default;
  virtual bool next(TraceEvent& out) = 0;
};

class BinaryTraceReader final : public TraceReader {
 public:
  explicit BinaryTraceReader(std::istream& in) : in_(in) {}
  bool next(TraceEvent& out) override;

 private:
  std::istream& in_;
  BinaryTraceDecoder decoder_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool eof_ = false;
};

class JsonlTraceReader final : public TraceReader {
 public:
  explicit JsonlTraceReader(std::istream& in) : in_(in) {}
  bool next(TraceEvent& out) override;

 private:
  std::istream& in_;
  JsonlTraceDecoder decoder_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool eof_ = false;
};

// Sniff the stream's format from its first byte ('R' of the magic = binary,
// '{' = JSONL) and return the matching reader. Throws TraceFormatError on
// an empty stream or an unrecognizable first byte. The reader borrows `in`.
std::unique_ptr<TraceReader> open_trace_reader(std::istream& in);

// Drain `reader` into `sink` (flushing it at the end); returns the event
// count. With a JsonlTraceSink or BinaryTraceWriter sink this is format
// conversion; with a StreamAggregator it is online tally reconstruction.
std::uint64_t replay_trace(TraceReader& reader, TraceSink& sink);

// Sink factory for the CLIs' --trace-format option: "jsonl", "csv", or
// "binary". Throws ConfigError on anything else. The sink borrows `out`.
std::unique_ptr<TraceSink> make_trace_sink(std::ostream& out,
                                           std::string_view format);

// Default format for a --trace-out path: ".csv" -> "csv", ".bin" / ".rft"
// -> "binary", anything else -> "jsonl".
std::string_view trace_format_for_path(std::string_view path);

}  // namespace rfsp
