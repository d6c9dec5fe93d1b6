#include "util/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/alloc_stats.h"

namespace nwade::util::telemetry {

namespace {

std::int64_t load(const detail::Cell& c) { return c.load(std::memory_order_relaxed); }
void put(detail::Cell& c, std::int64_t v) { c.store(v, std::memory_order_relaxed); }
void add(detail::Cell& c, std::int64_t v) { c.fetch_add(v, std::memory_order_relaxed); }

void zero(detail::HistogramImpl& h) {
  for (detail::Cell& b : h.bucket_counts) put(b, 0);
  put(h.count, 0);
  put(h.sum, 0);
}

}  // namespace

HistogramBuckets HistogramBuckets::exponential_ms(std::int64_t max_edge) {
  HistogramBuckets b;
  b.upper_edges.push_back(0);
  for (std::int64_t edge = 1; edge <= max_edge; edge *= 2) {
    b.upper_edges.push_back(edge);
  }
  return b;
}

void Histogram::observe(std::int64_t value) {
  if (impl_ == nullptr) return;
  // First bucket whose upper edge >= value; past the last edge -> overflow.
  std::size_t lo = 0;
  std::size_t hi = impl_->edges.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (impl_->edges[mid] < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  add(impl_->bucket_counts[lo], 1);
  add(impl_->count, 1);
  add(impl_->sum, value);
}

std::int64_t Histogram::count() const {
  return impl_ != nullptr ? load(impl_->count) : 0;
}

std::int64_t Histogram::sum() const {
  return impl_ != nullptr ? load(impl_->sum) : 0;
}

void Histogram::reset() {
  if (impl_ != nullptr) zero(*impl_);
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<detail::Cell>(0);
  return Counter(slot.get());
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<detail::Cell>(0);
  return Gauge(slot.get());
}

Histogram Registry::histogram(const std::string& name,
                              const HistogramBuckets& buckets) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<detail::HistogramImpl>();
    slot->edges = buckets.upper_edges;
    slot->bucket_counts =
        std::vector<detail::Cell>(buckets.upper_edges.size() + 1);
  }
  return Histogram(slot.get());
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) snap.counters[name] = load(*cell);
  for (const auto& [name, cell] : gauges_) snap.gauges[name] = load(*cell);
  for (const auto& [name, impl] : histograms_) {
    MetricsSnapshot::HistogramData h;
    h.upper_edges = impl->edges;
    h.bucket_counts.reserve(impl->bucket_counts.size());
    for (const detail::Cell& b : impl->bucket_counts) {
      h.bucket_counts.push_back(load(b));
    }
    h.count = load(impl->count);
    h.sum = load(impl->sum);
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cell] : counters_) put(*cell, 0);
  for (auto& [name, cell] : gauges_) put(*cell, 0);
  for (auto& [name, impl] : histograms_) zero(*impl);
}

void Registry::restore(const MetricsSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cell] : counters_) put(*cell, 0);
  for (auto& [name, cell] : gauges_) put(*cell, 0);
  for (auto& [name, impl] : histograms_) zero(*impl);
  for (const auto& [name, v] : snap.counters) {
    auto& slot = counters_[name];
    if (slot == nullptr) slot = std::make_unique<detail::Cell>(0);
    put(*slot, v);
  }
  for (const auto& [name, v] : snap.gauges) {
    auto& slot = gauges_[name];
    if (slot == nullptr) slot = std::make_unique<detail::Cell>(0);
    put(*slot, v);
  }
  for (const auto& [name, h] : snap.histograms) {
    auto& slot = histograms_[name];
    if (slot == nullptr) slot = std::make_unique<detail::HistogramImpl>();
    // Replace the shape in place: the impl's address (what handles cache)
    // stays stable even when the edge vector changes.
    slot->edges = h.upper_edges;
    slot->bucket_counts = std::vector<detail::Cell>(h.upper_edges.size() + 1);
    const std::size_t n =
        std::min(slot->bucket_counts.size(), h.bucket_counts.size());
    for (std::size_t i = 0; i < n; ++i) put(slot->bucket_counts[i], h.bucket_counts[i]);
    put(slot->count, h.count);
    put(slot->sum, h.sum);
  }
}

std::int64_t MetricsSnapshot::HistogramData::quantile_upper_edge(
    int percent) const {
  // Total of the bucketed counts (defensive: trust the buckets over `count`
  // after a shape-mismatched merge folded scalar totals without buckets).
  std::int64_t total = 0;
  for (const std::int64_t c : bucket_counts) total += c;
  if (total <= 0 || percent <= 0) return -1;
  // 1-based rank of the requested percentile, ceil'd so p99 of 100
  // observations is the 99th, not the 98.01st truncated to the 98th.
  const std::int64_t rank =
      (total * static_cast<std::int64_t>(percent) + 99) / 100;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    seen += bucket_counts[i];
    if (seen >= rank) {
      // Past the last edge lies the +inf overflow bucket: the percentile is
      // only known to exceed the largest finite edge.
      return i < upper_edges.size() ? upper_edges[i] : -1;
    }
  }
  return -1;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_int_array(std::string& out, const std::vector<std::int64_t>& xs) {
  out += "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    append_int(out, xs[i]);
  }
  out += "]";
}

void append_histogram(std::string& o,
                      const MetricsSnapshot::HistogramData& h) {
  o += "{\"upper_edges\": ";
  append_int_array(o, h.upper_edges);
  o += ", \"bucket_counts\": ";
  append_int_array(o, h.bucket_counts);
  o += ", \"count\": ";
  append_int(o, h.count);
  o += ", \"sum\": ";
  append_int(o, h.sum);
  // Integer-math percentile summary rows (bucket upper edges, -1 = empty or
  // overflow) so latency histograms read directly in frames and reports.
  o += ", \"p50\": ";
  append_int(o, h.quantile_upper_edge(50));
  o += ", \"p90\": ";
  append_int(o, h.quantile_upper_edge(90));
  o += ", \"p99\": ";
  append_int(o, h.quantile_upper_edge(99));
  o += "}";
}

template <typename Map, typename AppendValue>
void append_section(std::string& out, const char* title, const Map& map,
                    const std::string& pad, AppendValue&& append_value) {
  out += pad + "\"" + title + "\": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "  \"";
    append_escaped(out, name);
    out += "\": ";
    append_value(out, value);
  }
  if (!first) out += "\n" + pad;
  out += "}";
}

}  // namespace

std::string MetricsSnapshot::json(const std::string& indent) const {
  const std::string& pad = indent;
  std::string out = "{\n";
  append_section(out, "counters", counters, pad + "  ",
                 [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ",\n";
  append_section(out, "gauges", gauges, pad + "  ",
                 [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ",\n";
  append_section(out, "histograms", histograms, pad + "  ",
                 [](std::string& o, const HistogramData& h) {
                   append_histogram(o, h);
                 });
  out += "\n" + pad + "}";
  return out;
}

std::string MetricsSnapshot::json_compact() const {
  const auto append_compact_section = [](std::string& out, const char* title,
                                         const auto& map, auto&& append_value) {
    out += "\"" + std::string(title) + "\": {";
    bool first = true;
    for (const auto& [name, value] : map) {
      if (!first) out += ", ";
      first = false;
      out += "\"";
      append_escaped(out, name);
      out += "\": ";
      append_value(out, value);
    }
    out += "}";
  };
  std::string out = "{";
  append_compact_section(out, "counters", counters,
                         [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ", ";
  append_compact_section(out, "gauges", gauges,
                         [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ", ";
  append_compact_section(out, "histograms", histograms,
                         [](std::string& o, const HistogramData& h) {
                           append_histogram(o, h);
                         });
  out += "}";
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = h;
      continue;
    }
    HistogramData& mine = it->second;
    if (mine.upper_edges != h.upper_edges) {
      // Incompatible shapes: keep ours, still fold the scalar totals so no
      // observation silently disappears.
      mine.count += h.count;
      mine.sum += h.sum;
      continue;
    }
    for (std::size_t i = 0; i < mine.bucket_counts.size() &&
                            i < h.bucket_counts.size();
         ++i) {
      mine.bucket_counts[i] += h.bucket_counts[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& prev) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    const auto it = prev.counters.find(name);
    // A name the receiver has never seen is a change even at value 0 —
    // merge must reproduce this snapshot key-for-key, not just value-wise.
    if (it == prev.counters.end() || it->second != v) {
      d.counters[name] = v - (it != prev.counters.end() ? it->second : 0);
    }
  }
  for (const auto& [name, v] : gauges) {
    const auto it = prev.gauges.find(name);
    // A gauge that was never seen before is a change even at value 0: the
    // receiver must learn the name exists (merge is last-writer-wins, so the
    // absolute value rides along unchanged).
    if (it == prev.gauges.end() || it->second != v) d.gauges[name] = v;
  }
  for (const auto& [name, h] : histograms) {
    const auto it = prev.histograms.find(name);
    if (it == prev.histograms.end() || it->second.upper_edges != h.upper_edges) {
      // New histogram, or a shape change (possible across a registry
      // restore): a bucket-wise delta is meaningless, carry it whole.
      d.histograms[name] = h;
      continue;
    }
    const HistogramData& base = it->second;
    if (h.count == base.count && h.sum == base.sum &&
        h.bucket_counts == base.bucket_counts) {
      continue;
    }
    HistogramData delta;
    delta.upper_edges = h.upper_edges;
    delta.bucket_counts.resize(h.bucket_counts.size(), 0);
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      const std::int64_t b =
          i < base.bucket_counts.size() ? base.bucket_counts[i] : 0;
      delta.bucket_counts[i] = h.bucket_counts[i] - b;
    }
    delta.count = h.count - base.count;
    delta.sum = h.sum - base.sum;
    d.histograms[name] = std::move(delta);
  }
  return d;
}

void fold_alloc_stats(Registry& r) {
  if (!alloc_counting_enabled()) return;
  r.gauge("process.alloc.allocations")
      .set(static_cast<std::int64_t>(process_alloc_count()));
  r.gauge("process.alloc.frees")
      .set(static_cast<std::int64_t>(process_free_count()));
}

}  // namespace nwade::util::telemetry
