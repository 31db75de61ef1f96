// Tracing support of the SDM serving benchmark:
//  - WallSpans: wall-clock spans the benchmark records around its own calls
//    into the program (model load, warmup, serving runs, refresh, query
//    generation, checks), exported as Chrome trace-event JSON;
//  - scanners for the program's own obs exports (src/obs MetricsJson /
//    TraceJson), which the benchmark reads from outside instead of linking
//    against obs internals. They understand exactly the layout those
//    exporters write, nothing more general.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sdmbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class WallSpans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double dur_s = 0;
    int depth = 0;
  };

  explicit WallSpans(Clock::time_point origin) : origin_(origin) {}

  /// RAII span: records [construction, destruction) under `name`.
  class Scope {
   public:
    Scope(WallSpans* spans, std::string name)
        : spans_(spans), name_(std::move(name)), start_(Clock::now()) {
      ++spans_->depth_;
    }
    ~Scope() {
      --spans_->depth_;
      spans_->Add(name_, start_, Clock::now(), spans_->depth_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] double elapsed_s() const { return SecondsSince(start_); }

   private:
    WallSpans* spans_;
    std::string name_;
    Clock::time_point start_;
  };

  void Add(const std::string& name, Clock::time_point start, Clock::time_point end, int depth) {
    spans_.push_back({name, std::chrono::duration<double>(start - origin_).count(),
                      std::chrono::duration<double>(end - start).count(), depth});
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string ChromeJson() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"name\":\"%s\",\"args\":{\"depth\":%d}}",
                    i == 0 ? "" : ",", sp.start_s * 1e6, sp.dur_s * 1e6, sp.name.c_str(),
                    sp.depth);
      out += buf;
    }
    out += "]}";
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int depth_ = 0;
};

namespace scan_internal {

/// Parses the number starting at `pos`; advances `pos` past it.
inline double Number(const std::string& s, size_t* pos) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str() + *pos, &end);
  *pos = static_cast<size_t>(end - s.c_str());
  return v;
}

/// The quoted string value following `key` at or after `from` (and before
/// `limit`); empty when absent.
inline std::string_view Field(const std::string& s, std::string_view key, size_t from,
                              size_t limit) {
  const size_t k = s.find(key, from);
  if (k == std::string::npos || k >= limit) return {};
  const size_t b = k + key.size();
  const size_t e = s.find('"', b);
  if (e == std::string::npos) return {};
  return std::string_view(s).substr(b, e - b);
}

}  // namespace scan_internal

/// Sum over every point of every counter series in a MetricsJson document
/// whose name ends with `suffix` (e.g. "/lookup/sm_rows" sums all hosts).
inline double SumCounterSeries(const std::string& json, std::string_view suffix) {
  double total = 0;
  size_t pos = 0;
  const std::string key = "{\"name\":\"";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    const size_t name_begin = pos + key.size();
    const size_t name_end = json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    const std::string_view name = std::string_view(json).substr(name_begin, name_end - name_begin);
    pos = name_end;
    const bool match = name.size() >= suffix.size() &&
                       name.substr(name.size() - suffix.size()) == suffix;
    if (!match || json.compare(name_end, 26, "\",\"kind\":\"counter\",\"points") != 0) continue;
    size_t p = json.find("\"points\":[", name_end);
    if (p == std::string::npos) break;
    p += 10;
    while (p < json.size() && json[p] == '[') {
      ++p;
      (void)scan_internal::Number(json, &p);  // window start
      ++p;                                     // ','
      total += scan_internal::Number(json, &p);
      ++p;  // ']'
      if (p < json.size() && json[p] == ',') ++p;
    }
    pos = p;
  }
  return total;
}

/// Durations (microseconds) of every async span named `name` in a TraceJson
/// document: "b"/"e" events paired by id.
inline std::vector<double> SpanDurationsUs(const std::string& json, std::string_view name) {
  std::vector<double> out;
  std::map<std::string, double> open;  // id -> begin ts
  size_t pos = 0;
  const std::string key = "{\"ph\":\"";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    const char ph = json[pos + key.size()];
    const size_t limit = json.find('}', pos);
    if (limit == std::string::npos) break;
    if (ph == 'b' || ph == 'e') {
      const std::string id(scan_internal::Field(json, "\"id\":\"", pos, limit));
      if (scan_internal::Field(json, "\"name\":\"", pos, limit) == name) {
        const size_t ts_key = json.find("\"ts\":", pos);
        size_t p = ts_key + 5;
        const double ts = scan_internal::Number(json, &p);
        if (ph == 'b') {
          open[id] = ts;
        } else if (auto it = open.find(id); it != open.end()) {
          out.push_back(ts - it->second);
          open.erase(it);
        }
      }
    }
    pos = limit;
  }
  return out;
}

}  // namespace sdmbench
