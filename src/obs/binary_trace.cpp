#include "obs/binary_trace.hpp"

#include <istream>
#include <ostream>

#include "replay/json.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace rfsp {

namespace {

constexpr std::size_t kWriterBufferBytes = std::size_t{1} << 16;
// Corrupt-input guard: no real phase name is remotely this long, so a
// larger length field means garbage — fail instead of allocating it.
constexpr std::uint64_t kMaxPhaseNameBytes = std::uint64_t{1} << 20;
constexpr std::uint8_t kMaxTag =
    static_cast<std::uint8_t>(TraceEventKind::kRunEnd);
constexpr std::uint8_t kRunEndFlagMask = 0x07;

void append_le16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void append_le32(std::string& out, std::uint32_t v) {
  append_le16(out, static_cast<std::uint16_t>(v & 0xffff));
  append_le16(out, static_cast<std::uint16_t>(v >> 16));
}

void append_le64(std::string& out, std::uint64_t v) {
  append_le32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  append_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t load_le(std::string_view data, std::size_t pos, unsigned bytes) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    v |= std::uint64_t(static_cast<unsigned char>(data[pos + i])) << (8 * i);
  }
  return v;
}

bool try_varint_u32(std::string_view data, std::size_t& p, const char* field,
                    std::uint32_t& value) {
  std::uint64_t v = 0;
  if (!try_varint<TraceFormatError>(data, p, v)) return false;
  if (v > ~std::uint32_t{0}) {
    throw TraceFormatError(std::string(field) + " field overflows 32 bits");
  }
  value = static_cast<std::uint32_t>(v);
  return true;
}

TraceEventKind kind_from_name(std::string_view name) {
  for (std::uint8_t tag = 0; tag <= kMaxTag; ++tag) {
    const auto kind = static_cast<TraceEventKind>(tag);
    if (to_string(kind) == name) return kind;
  }
  throw TraceFormatError("unknown trace event kind \"" + std::string(name) +
                         "\"");
}

std::uint32_t json_u32(const json::Value& object, std::string_view key) {
  const std::uint64_t v = object.at(key).as_u64();
  if (v > ~std::uint32_t{0}) {
    throw TraceFormatError("JSONL field '" + std::string(key) +
                           "' overflows 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

bool json_bool(const json::Value& object, std::string_view key) {
  const json::Value& v = object.at(key);
  if (v.kind != json::Value::Kind::kBool) {
    throw TraceFormatError("JSONL field '" + std::string(key) +
                           "' is not a boolean");
  }
  return v.boolean;
}

}  // namespace

// --- BinaryTraceWriter ------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out) : out_(out) {
  buf_.reserve(kWriterBufferBytes + 64);
  append_le32(buf_, kBinaryTraceMagic);
  append_le16(buf_, kBinaryTraceVersion);
  append_le16(buf_, 0);  // flags
  append_le64(buf_, 0);  // reserved config area
}

BinaryTraceWriter::~BinaryTraceWriter() {
  if (!buf_.empty()) out_.write(buf_.data(), std::streamsize(buf_.size()));
}

void BinaryTraceWriter::on_event(const TraceEvent& e) {
  if (e.slot < prev_slot_) {
    throw TraceFormatError(
        "trace events out of slot order: the binary encoding requires the "
        "engine's non-decreasing slot contract");
  }
  buf_.push_back(static_cast<char>(e.kind));
  append_varint(buf_, e.slot - prev_slot_);
  prev_slot_ = e.slot;
  switch (e.kind) {
    case TraceEventKind::kSlot:
      append_varint(buf_, e.started);
      append_varint(buf_, e.completed);
      append_varint(buf_, e.failures);
      append_varint(buf_, e.restarts);
      break;
    case TraceEventKind::kCommit:
      append_varint(buf_, e.writes);
      break;
    case TraceEventKind::kFailure:
    case TraceEventKind::kRestart:
    case TraceEventKind::kHalt:
      append_varint(buf_, e.pid);
      break;
    case TraceEventKind::kPhase:
      append_varint(buf_, e.phase);
      append_varint(buf_, e.phase_name.size());
      buf_.append(e.phase_name);
      break;
    case TraceEventKind::kRunEnd: {
      const std::uint8_t flags = (e.goal_met ? 0x01 : 0) |
                                 (e.deadlock ? 0x02 : 0) |
                                 (e.slot_limit ? 0x04 : 0);
      buf_.push_back(static_cast<char>(flags));
      break;
    }
  }
  if (buf_.size() >= kWriterBufferBytes) {
    out_.write(buf_.data(), std::streamsize(buf_.size()));
    buf_.clear();
  }
}

void BinaryTraceWriter::flush() {
  if (!buf_.empty()) {
    out_.write(buf_.data(), std::streamsize(buf_.size()));
    buf_.clear();
  }
  out_.flush();
}

// --- BinaryTraceDecoder -----------------------------------------------------

BinaryTraceDecoder::Result BinaryTraceDecoder::decode(std::string_view data,
                                                      std::size_t& pos,
                                                      TraceEvent& out) {
  if (!header_done_) {
    if (data.size() - pos < kBinaryTraceHeaderBytes) return Result::kNeedMore;
    const auto magic = static_cast<std::uint32_t>(load_le(data, pos, 4));
    if (magic != kBinaryTraceMagic) {
      throw TraceFormatError("bad binary trace magic (not an RFTB stream)");
    }
    const auto version = static_cast<std::uint16_t>(load_le(data, pos + 4, 2));
    if (version != kBinaryTraceVersion) {
      throw TraceFormatError("unsupported binary trace version " +
                             std::to_string(version));
    }
    const auto flags = static_cast<std::uint16_t>(load_le(data, pos + 6, 2));
    if (flags != 0) {
      throw TraceFormatError("unknown binary trace header flags");
    }
    pos += kBinaryTraceHeaderBytes;  // the reserved config area is opaque
    header_done_ = true;
  }

  std::size_t p = pos;
  if (p >= data.size()) return Result::kNeedMore;
  const auto tag = static_cast<std::uint8_t>(data[p++]);
  if (tag > kMaxTag) {
    throw TraceFormatError("unknown trace record tag " + std::to_string(tag));
  }
  std::uint64_t delta = 0;
  if (!try_varint<TraceFormatError>(data, p, delta)) {
    return Result::kNeedMore;
  }

  out = TraceEvent{};
  out.kind = static_cast<TraceEventKind>(tag);
  out.slot = prev_slot_ + delta;
  switch (out.kind) {
    case TraceEventKind::kSlot:
      if (!try_varint_u32(data, p, "started", out.started) ||
          !try_varint_u32(data, p, "completed", out.completed) ||
          !try_varint_u32(data, p, "failures", out.failures) ||
          !try_varint_u32(data, p, "restarts", out.restarts)) {
        return Result::kNeedMore;
      }
      break;
    case TraceEventKind::kCommit:
      if (!try_varint_u32(data, p, "writes", out.writes)) {
        return Result::kNeedMore;
      }
      break;
    case TraceEventKind::kFailure:
    case TraceEventKind::kRestart:
    case TraceEventKind::kHalt:
      if (!try_varint_u32(data, p, "pid", out.pid)) return Result::kNeedMore;
      break;
    case TraceEventKind::kPhase: {
      std::uint64_t length = 0;
      if (!try_varint_u32(data, p, "phase", out.phase) ||
          !try_varint<TraceFormatError>(data, p, length)) {
        return Result::kNeedMore;
      }
      if (length > kMaxPhaseNameBytes) {
        throw TraceFormatError("phase name length is implausibly large");
      }
      if (data.size() - p < length) return Result::kNeedMore;
      name_buf_.assign(data.substr(p, length));
      out.phase_name = name_buf_;
      p += length;
      break;
    }
    case TraceEventKind::kRunEnd: {
      if (p >= data.size()) return Result::kNeedMore;
      const auto flags = static_cast<std::uint8_t>(data[p++]);
      if ((flags & ~kRunEndFlagMask) != 0) {
        throw TraceFormatError("unknown run_end flag bits");
      }
      out.goal_met = (flags & 0x01) != 0;
      out.deadlock = (flags & 0x02) != 0;
      out.slot_limit = (flags & 0x04) != 0;
      break;
    }
  }
  prev_slot_ = out.slot;
  pos = p;
  return Result::kEvent;
}

// --- JsonlTraceDecoder ------------------------------------------------------

JsonlTraceDecoder::Result JsonlTraceDecoder::decode(std::string_view data,
                                                    std::size_t& pos,
                                                    TraceEvent& out) {
  while (true) {
    const std::size_t nl = data.find('\n', pos);
    if (nl == std::string_view::npos) return Result::kNeedMore;
    const std::string_view line = data.substr(pos, nl - pos);
    if (line.empty()) {
      pos = nl + 1;
      continue;
    }
    // json::parse and the field accessors report caller-style ConfigError;
    // here the "caller" is an input stream, so rewrap as the malformed-
    // input error every trace reader throws.
    try {
      const json::Value object = json::parse(line);
      out = TraceEvent{};
      out.kind = kind_from_name(object.at("e").as_string());
      out.slot = object.at("t").as_u64();
      switch (out.kind) {
        case TraceEventKind::kSlot:
          out.started = json_u32(object, "started");
          out.completed = json_u32(object, "completed");
          out.failures = json_u32(object, "failures");
          out.restarts = json_u32(object, "restarts");
          break;
        case TraceEventKind::kCommit:
          out.writes = json_u32(object, "writes");
          break;
        case TraceEventKind::kFailure:
        case TraceEventKind::kRestart:
        case TraceEventKind::kHalt:
          out.pid = json_u32(object, "pid");
          break;
        case TraceEventKind::kPhase:
          out.phase = json_u32(object, "phase");
          name_buf_ = object.at("name").as_string();
          out.phase_name = name_buf_;
          break;
        case TraceEventKind::kRunEnd:
          out.goal_met = json_bool(object, "goal_met");
          out.deadlock = json_bool(object, "deadlock");
          out.slot_limit = json_bool(object, "slot_limit");
          break;
      }
    } catch (const ConfigError& e) {
      throw TraceFormatError(std::string("bad JSONL trace line: ") + e.what());
    }
    pos = nl + 1;
    return Result::kEvent;
  }
}

// --- istream readers --------------------------------------------------------

namespace {

// Shared refill-and-decode loop: `decode` is one of the incremental
// decoders bound to the reader's buffer state.
template <typename Decoder>
bool reader_next(std::istream& in, Decoder& decoder, std::string& buf,
                 std::size_t& pos, bool& eof, TraceEvent& out) {
  while (true) {
    if (decoder.decode(buf, pos, out) == Decoder::Result::kEvent) {
      // Compact the consumed prefix so following a long stream does not
      // hold the whole history in memory.
      if (pos >= (std::size_t{1} << 20)) {
        buf.erase(0, pos);
        pos = 0;
      }
      return true;
    }
    if (eof) {
      // Clean end = a record boundary with the stream header already seen
      // (a binary stream shorter than its header is truncation, not a
      // zero-event trace).
      if (pos == buf.size() && decoder.header_done()) return false;
      throw TraceFormatError("truncated trace: stream ends mid-record");
    }
    char chunk[std::size_t{1} << 16];
    in.read(chunk, sizeof chunk);
    const std::streamsize got = in.gcount();
    if (got <= 0) {
      eof = true;
    } else {
      buf.append(chunk, static_cast<std::size_t>(got));
    }
  }
}

}  // namespace

bool BinaryTraceReader::next(TraceEvent& out) {
  return reader_next(in_, decoder_, buf_, pos_, eof_, out);
}

bool JsonlTraceReader::next(TraceEvent& out) {
  return reader_next(in_, decoder_, buf_, pos_, eof_, out);
}

std::unique_ptr<TraceReader> open_trace_reader(std::istream& in) {
  const int first = in.peek();
  if (first == std::char_traits<char>::eof()) {
    throw TraceFormatError("empty trace stream");
  }
  if (first == 'R') return std::make_unique<BinaryTraceReader>(in);
  if (first == '{') return std::make_unique<JsonlTraceReader>(in);
  throw TraceFormatError(
      "unrecognized trace format (expected an RFTB header or a JSONL "
      "object)");
}

std::uint64_t replay_trace(TraceReader& reader, TraceSink& sink) {
  TraceEvent event;
  std::uint64_t count = 0;
  while (reader.next(event)) {
    sink.on_event(event);
    ++count;
  }
  sink.flush();
  return count;
}

std::unique_ptr<TraceSink> make_trace_sink(std::ostream& out,
                                           std::string_view format) {
  if (format == "jsonl") return std::make_unique<JsonlTraceSink>(out);
  if (format == "csv") return std::make_unique<CsvTraceSink>(out);
  if (format == "binary") return std::make_unique<BinaryTraceWriter>(out);
  throw ConfigError("unknown trace format \"" + std::string(format) +
                    "\" (expected jsonl, csv, or binary)");
}

std::string_view trace_format_for_path(std::string_view path) {
  if (path.ends_with(".csv")) return "csv";
  if (path.ends_with(".bin") || path.ends_with(".rft")) return "binary";
  return "jsonl";
}

}  // namespace rfsp
