#include "util/trace.h"

#include <cinttypes>
#include <cstdio>

namespace nwade::util::trace {

namespace detail {
std::atomic<int> g_active_tracers{0};
}  // namespace detail

Tracer::~Tracer() { set_enabled(false); }

void Tracer::set_enabled(bool on) {
  const bool was = enabled_.exchange(on, std::memory_order_relaxed);
  if (was == on) return;
  detail::g_active_tracers.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}

void Tracer::instant(const char* cat, const char* name, Tick ts_ms,
                     const char* arg_key, std::int64_t arg_value) {
  if (!enabled()) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.phase = 'i';
  e.ts_ms = ts_ms;
  e.arg_key = arg_key;
  e.arg_value = arg_value;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e);
}

void Tracer::complete(const char* cat, const char* name, Tick begin_ms,
                      Tick end_ms, double wall_us, const char* arg_key,
                      std::int64_t arg_value) {
  if (!enabled()) return;
  Event e;
  e.cat = cat;
  e.name = name;
  e.phase = 'X';
  e.ts_ms = begin_ms;
  e.dur_ms = end_ms >= begin_ms ? end_ms - begin_ms : 0;
  e.wall_us = wall_us;
  e.arg_key = arg_key;
  e.arg_value = arg_value;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::vector<Event> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.swap(events_);
  return out;
}

std::vector<Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

namespace {

// JSON string escaping for names/categories. Event strings are literals in
// practice, but exports must never emit malformed JSON if one carries a
// quote or backslash.
void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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

// One Chrome trace_event object. `ts`/`dur` are microseconds per the spec;
// sim ticks are milliseconds, hence the *1000.
void append_chrome_event(std::string& out, const Event& e, int pid,
                         bool include_wall) {
  char buf[160];
  out += "{\"cat\": \"";
  append_escaped(out, e.cat);
  out += "\", \"name\": \"";
  append_escaped(out, e.name);
  out += "\", \"ph\": \"";
  out += e.phase;
  std::snprintf(buf, sizeof(buf), "\", \"pid\": %d, \"tid\": 0, \"ts\": %" PRId64,
                pid, static_cast<std::int64_t>(e.ts_ms) * 1000);
  out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur\": %" PRId64,
                  static_cast<std::int64_t>(e.dur_ms) * 1000);
    out += buf;
  } else {
    out += ", \"s\": \"t\"";  // thread-scoped instant
  }
  const bool has_wall = include_wall && e.wall_us >= 0;
  if (e.arg_key != nullptr || has_wall) {
    out += ", \"args\": {";
    bool first = true;
    if (e.arg_key != nullptr) {
      out += "\"";
      append_escaped(out, e.arg_key);
      std::snprintf(buf, sizeof(buf), "\": %" PRId64, e.arg_value);
      out += buf;
      first = false;
    }
    if (has_wall) {
      if (!first) out += ", ";
      std::snprintf(buf, sizeof(buf), "\"wall_us\": %.3f", e.wall_us);
      out += buf;
    }
    out += "}";
  }
  out += "}";
}

// One JSONL record (flat; line-oriented consumers prefer no nesting).
void append_jsonl_event(std::string& out, const Event& e, int pid,
                        bool include_wall) {
  char buf[160];
  out += "{\"pid\": ";
  std::snprintf(buf, sizeof(buf), "%d", pid);
  out += buf;
  out += ", \"cat\": \"";
  append_escaped(out, e.cat);
  out += "\", \"name\": \"";
  append_escaped(out, e.name);
  out += "\", \"ph\": \"";
  out += e.phase;
  std::snprintf(buf, sizeof(buf), "\", \"ts_ms\": %" PRId64,
                static_cast<std::int64_t>(e.ts_ms));
  out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur_ms\": %" PRId64,
                  static_cast<std::int64_t>(e.dur_ms));
    out += buf;
  }
  if (e.arg_key != nullptr) {
    out += ", \"";
    append_escaped(out, e.arg_key);
    std::snprintf(buf, sizeof(buf), "\": %" PRId64, e.arg_value);
    out += buf;
  }
  if (include_wall && e.wall_us >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"wall_us\": %.3f", e.wall_us);
    out += buf;
  }
  out += "}\n";
}

}  // namespace

std::string Tracer::chrome_json(bool include_wall) const {
  return chrome_trace_json({events()}, {"trace"}, include_wall);
}

std::string Tracer::jsonl(bool include_wall) const {
  return jsonl_trace({events()}, include_wall);
}

std::string chrome_trace_json(const std::vector<std::vector<Event>>& streams,
                              const std::vector<std::string>& stream_names,
                              bool include_wall) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t pid = 0; pid < streams.size(); ++pid) {
    if (pid < stream_names.size()) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"cat\": \"__metadata\", \"name\": \"process_name\", "
             "\"ph\": \"M\", \"pid\": ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%d", static_cast<int>(pid));
      out += buf;
      out += ", \"tid\": 0, \"args\": {\"name\": \"";
      append_escaped(out, stream_names[pid].c_str());
      out += "\"}}";
    }
    for (const Event& e : streams[pid]) {
      if (!first) out += ",\n";
      first = false;
      append_chrome_event(out, e, static_cast<int>(pid), include_wall);
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string jsonl_trace(const std::vector<std::vector<Event>>& streams,
                        bool include_wall) {
  std::string out;
  for (std::size_t pid = 0; pid < streams.size(); ++pid) {
    for (const Event& e : streams[pid]) {
      append_jsonl_event(out, e, static_cast<int>(pid), include_wall);
    }
  }
  return out;
}

}  // namespace nwade::util::trace
