// Lightweight metrics registry: counters, gauges, and log2-bucket
// histograms, snapshot-exportable as JSON.
//
// Design constraints, in order:
//  * recording must be cheap enough for per-event use inside a trace sink
//    (Counter::add and Histogram::observe are a handful of
//    arithmetic ops, no allocation, no locking);
//  * handles returned by the registry are stable for the registry's
//    lifetime (node-based map), so callers look a metric up once and keep
//    the pointer;
//  * the registry is single-threaded by design, like the engine's slot
//    loop; concurrent writers need one registry each.
//
// Metric names are dotted paths ("engine.live_per_slot"). The engine.*
// names (docs/observability.md) are derived from the run's event stream
// by StreamAggregator::write_engine_metrics (obs/stream.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "util/bits.hpp"

namespace rfsp {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram over unsigned 64-bit observations: bucket 0
// counts zeros, bucket k >= 1 counts values in [2^(k-1), 2^k). Two cache
// lines of buckets cover the full 64-bit range, which is the right
// granularity for the power-law-ish quantities a fault-prone run produces
// (live processors per slot, restarts per processor, slots to goal).
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;

  void observe(std::uint64_t value) {
    ++buckets_[bucket_of(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  static unsigned bucket_of(std::uint64_t value) {
    return value == 0 ? 0u : 1u + floor_log2(value);
  }
  // Inclusive upper bound of bucket k: 0 for k == 0, 2^k - 1 for k >= 1.
  static std::uint64_t bucket_upper(unsigned k) {
    return k == 0 ? 0 : (k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::uint64_t bucket(unsigned k) const { return buckets_.at(k); }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Find-or-create. References stay valid for the registry's lifetime.
  // The three kinds have independent namespaces.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  // Histograms export count/sum/max/mean plus the non-empty buckets as
  // [bucket_index, count] pairs (see Histogram::bucket_of for the index ->
  // value-range mapping).
  //
  // Emission order is guaranteed stable: within each section, keys appear
  // in lexicographic order regardless of registration order (the node maps
  // above are ordered), so two snapshots of equal registries are
  // byte-identical and snapshot diffs work as regression artifacts
  // (tests/obs_test.cpp asserts the determinism).
  void write_json(std::ostream& out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rfsp
