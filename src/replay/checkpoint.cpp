#include "replay/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <memory>

#include "replay/json.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace rfsp {

namespace {

constexpr std::string_view kFormat = "rfsp-checkpoint";
constexpr std::uint64_t kVersion = 2;
constexpr std::string_view kCrcKey = R"(,"crc32":)";

// The body size if every varint took its 10-byte maximum.
std::size_t max_body_bytes(const EngineCheckpoint& cp) {
  std::size_t varints = 6 + cp.memory.size() + cp.status.size() +
                        cp.adversary.size() + cp.injected_faults.size();
  for (const auto& state : cp.states) {
    varints += 1 + (state.has_value() ? state->size() : 0);
  }
  for (const ProcCache& cache : cp.caches) {
    varints += 2 + 2 * cache.entries.size();
  }
  return varints * kMaxVarintBytes;
}

char* put_words(char* p, const std::vector<Word>& words) {
  for (const Word w : words) p = put_varint(p, zigzag(w));
  return p;
}

// Cursor over the checksummed body. Every length prefix is checked against
// the bytes that remain — each element takes at least one — before any
// vector is sized from it, so a hostile count is a ConfigError, never a
// huge allocation.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body) {}

  std::uint64_t u64() {
    if (pos_ < body_.size()) {
      const auto b = static_cast<unsigned char>(body_[pos_]);
      if (b < 0x80) {  // the common case: flags, small words and counts
        ++pos_;
        return b;
      }
    }
    std::uint64_t v = 0;
    if (!try_varint<ConfigError>(body_, pos_, v)) {
      throw ConfigError("checkpoint body ends mid-varint");
    }
    return v;
  }

  Word word() { return unzigzag(u64()); }

  // `n` elements of at least `min_bytes` each must fit in what is left.
  std::size_t fits(std::uint64_t n, std::size_t min_bytes = 1) const {
    const std::size_t left = body_.size() - pos_;
    if (n > left / min_bytes) {
      throw ConfigError("checkpoint array length " + std::to_string(n) +
                        " exceeds the " + std::to_string(left) +
                        " body bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t length(std::size_t min_bytes = 1) {
    return fits(u64(), min_bytes);
  }

  void words(std::vector<Word>& out, std::uint64_t n) {
    out.resize(fits(n));
    for (Word& w : out) w = word();
  }

  bool done() const { return pos_ == body_.size(); }

 private:
  std::string_view body_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_checkpoint(const EngineCheckpoint& cp) {
  const auto buf = std::make_unique_for_overwrite<char[]>(max_body_bytes(cp));
  char* p = put_varint(buf.get(), cp.memory.size());
  p = put_words(p, cp.memory);
  p = put_varint(p, cp.status.size());
  for (const ProcStatus s : cp.status) {
    p = put_varint(p, static_cast<std::uint64_t>(s));
  }
  p = put_varint(p, cp.states.size());
  for (const auto& state : cp.states) {
    p = put_varint(p, state.has_value() ? state->size() + 1 : 0);
    if (state.has_value()) p = put_words(p, *state);
  }
  p = put_varint(p, cp.adversary.size());
  for (const std::uint64_t a : cp.adversary) p = put_varint(p, a);
  p = put_varint(p, cp.caches.size());
  for (const ProcCache& cache : cp.caches) {
    p = put_varint(p, cache.unpersisted_cycles);
    p = put_varint(p, cache.entries.size());
    for (const CacheEntry& e : cache.entries) {
      p = put_varint(put_varint(p, e.addr), zigzag(e.value));
    }
  }
  p = put_varint(p, cp.injected_faults.size());
  for (const Addr a : cp.injected_faults) p = put_varint(p, a);
  const std::string_view body(buf.get(),
                              static_cast<std::size_t>(p - buf.get()));

  std::string out;
  out.reserve(body.size() + 512);
  out += R"({"format":"rfsp-checkpoint","version":2,"slot":)";
  json::append_u64(out, cp.slot);
  out += R"(,"tally":{"completed":)";
  json::append_u64(out, cp.tally.completed_work);
  out += R"(,"attempted":)";
  json::append_u64(out, cp.tally.attempted_work);
  out += R"(,"failures":)";
  json::append_u64(out, cp.tally.failures);
  out += R"(,"restarts":)";
  json::append_u64(out, cp.tally.restarts);
  out += R"(,"slots":)";
  json::append_u64(out, cp.tally.slots);
  out += R"(,"halted":)";
  json::append_u64(out, cp.tally.halted);
  out += R"(,"peak_live":)";
  json::append_u64(out, cp.tally.peak_live);
  out += R"(,"persists":)";
  json::append_u64(out, cp.tally.persists);
  out += R"(},"meta":{)";
  bool first = true;
  for (const auto& [key, value] : cp.meta) {  // std::map: stable key order
    if (!first) out += ',';
    first = false;
    json::append_string(out, key);
    out += ':';
    json::append_string(out, value);
  }
  out += R"(},"body_bytes":)";
  json::append_u64(out, body.size());
  out += kCrcKey;
  json::append_u64(out, crc32(body, crc32(out)));
  out += "}\n";
  out += body;
  return out;
}

EngineCheckpoint decode_checkpoint(std::string_view bytes) {
  const std::size_t eol = bytes.find('\n');
  if (eol == std::string_view::npos) {
    throw ConfigError("checkpoint has no header line (empty or truncated)");
  }
  const std::string_view line = bytes.substr(0, eol);
  const std::string_view body = bytes.substr(eol + 1);
  const json::Value header = json::parse(line);
  if (header.at("format").as_string() != kFormat) {
    throw ConfigError("not an rfsp-checkpoint file");
  }
  const std::uint64_t version = header.at("version").as_u64();
  if (version == 1) {
    throw ConfigError(
        "checkpoint version 1 (JSON body) is no longer readable; this build "
        "reads version 2 only — re-run to write a new checkpoint");
  }
  if (version != kVersion) {
    throw ConfigError("unsupported checkpoint version " +
                      std::to_string(version));
  }
  if (header.at("body_bytes").as_u64() != body.size()) {
    throw ConfigError("checkpoint body is " + std::to_string(body.size()) +
                      " bytes but the header says " +
                      std::to_string(header.at("body_bytes").as_u64()) +
                      " (truncated, or trailing bytes)");
  }
  const std::size_t crc_key = line.rfind(kCrcKey);
  if (crc_key == std::string_view::npos ||
      header.at("crc32").as_u64() !=
          crc32(body, crc32(line.substr(0, crc_key + kCrcKey.size())))) {
    throw ConfigError("checkpoint fails its CRC-32 check (corrupt file)");
  }

  EngineCheckpoint cp;
  cp.slot = static_cast<Slot>(header.at("slot").as_u64());
  const json::Value& tally = header.at("tally");
  cp.tally.completed_work = tally.at("completed").as_u64();
  cp.tally.attempted_work = tally.at("attempted").as_u64();
  cp.tally.failures = tally.at("failures").as_u64();
  cp.tally.restarts = tally.at("restarts").as_u64();
  cp.tally.slots = tally.at("slots").as_u64();
  cp.tally.halted = tally.at("halted").as_u64();
  cp.tally.peak_live = tally.at("peak_live").as_u64();
  cp.tally.persists = tally.at("persists").as_u64();
  for (const auto& [key, value] : header.at("meta").as_object()) {
    cp.meta[key] = value.as_string();
  }

  BodyReader in(body);
  in.words(cp.memory, in.u64());
  cp.status.resize(in.length());
  for (ProcStatus& s : cp.status) {
    const std::uint64_t raw = in.u64();
    if (raw > static_cast<std::uint64_t>(ProcStatus::kHalted)) {
      throw ConfigError("checkpoint status out of range: " +
                        std::to_string(raw));
    }
    s = static_cast<ProcStatus>(raw);
  }
  cp.states.resize(in.length());
  for (auto& state : cp.states) {
    const std::uint64_t tag = in.u64();
    if (tag != 0) in.words(state.emplace(), tag - 1);
  }
  cp.adversary.resize(in.length());
  for (std::uint64_t& a : cp.adversary) a = in.u64();
  cp.caches.resize(in.length(2));
  for (ProcCache& cache : cp.caches) {
    cache.unpersisted_cycles = in.u64();
    cache.entries.resize(in.length(2));
    for (CacheEntry& e : cache.entries) {
      e.addr = static_cast<Addr>(in.u64());
      e.value = in.word();
    }
  }
  cp.injected_faults.resize(in.length());
  for (Addr& a : cp.injected_faults) a = static_cast<Addr>(in.u64());
  if (!in.done()) {
    throw ConfigError("checkpoint body has trailing bytes after its arrays");
  }
  return cp;
}

void save_checkpoint(const EngineCheckpoint& cp, const std::string& path) {
  const std::string bytes = encode_checkpoint(cp);
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);  // atomic replace
  if (!out || ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw ConfigError("cannot write checkpoint '" + path + "'" +
                      (ec ? ": " + ec.message() : std::string()));
  }
}

EngineCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
  if (size < 0) {
    throw ConfigError("cannot open checkpoint file '" + path + "'");
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  if (!in) throw ConfigError("cannot read checkpoint file '" + path + "'");
  try {
    return decode_checkpoint(bytes);
  } catch (const ConfigError& e) {
    throw ConfigError("checkpoint file '" + path + "': " + e.what());
  }
}

}  // namespace rfsp
