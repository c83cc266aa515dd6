// EngineCheckpoint persistence (docs/resilience.md §3).
//
// One checkpoint is one file ("rfsp-checkpoint", version 2): a readable
// JSON header line, then a binary body of exactly `body_bytes` bytes.
//
//   {"format":"rfsp-checkpoint","version":2,"slot":640,
//    "tally":{"completed":...,"attempted":...,"failures":...,"restarts":...,
//             "slots":...,"halted":...,"peak_live":...,"persists":...},
//    "meta":{"memory_model":"faulty-cells",...},
//    "body_bytes":1234,"crc32":3735928559}\n
//   <body>
//
// The header is one line with no whitespace, so `head -1 ck` shows the
// progress and the run's config (the engine's memory-model keys plus any
// the saver added). Every field is always present.
// `crc32` is the CRC-32 of the header bytes before its own value (up to
// and including `"crc32":`) followed by the body: a flipped byte anywhere
// but in the checksum digits changes the CRC, and a flipped digit changes
// the value it is compared against.
//
// The body is LEB128 varints (util/varint.hpp); signed Words are zigzag-
// encoded. Every array carries its length first:
//
//   memory     len, words                shared memory (raw storage)
//   status     len, 0=live 1=failed 2=halted
//   states     len, per pid: 0 = absent, k+1 then k words
//   adversary  len, opaque Adversary::save_state words (unsigned)
//   caches     len, per pid: unpersisted_cycles, len, (addr, word) pairs
//   faults     len, injected dead-cell addresses
//
// The round-trip is exact both ways (decode_checkpoint(encode_checkpoint(
// cp)) == cp, and encode(decode(b)) == b for every b encode produced),
// which is what makes kill-and-resume bit-identical: the resumed engine
// sees precisely the state the dead one saved.
#pragma once

#include <string>
#include <string_view>

#include "pram/engine.hpp"

namespace rfsp {

std::string encode_checkpoint(const EngineCheckpoint& cp);
// Throws ConfigError on any malformed input: a bad header, a length or
// checksum mismatch, a length prefix past the end of the body, trailing
// bytes, or a version-1 (JSON body) document.
EngineCheckpoint decode_checkpoint(std::string_view bytes);

// Replaces `path` atomically (write_file_atomically, schedule.hpp).
void save_checkpoint(const EngineCheckpoint& cp, const std::string& path);
EngineCheckpoint load_checkpoint(const std::string& path);  // ConfigError

}  // namespace rfsp
