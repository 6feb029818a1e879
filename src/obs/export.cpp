#include "obs/export.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <sstream>

#include "obs/timeline.hpp"

namespace lad::obs {
namespace {

// Names and categories are code-controlled identifiers, but escape the two
// characters that could break the JSON framing anyway.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void append_event_json(std::ostringstream& os, int tid, const TraceEvent& ev) {
  os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"" << json_escape(ev.cat)
     << "\",\"ph\":\"" << ev.phase << "\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ev.ts_us
     << "}";
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceRecorder exports

std::string TraceRecorder::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // thread_name metadata events first (ph "M"), so Perfetto labels the
  // lanes ("lad-main", "lad-pool-0", ...) instead of showing bare tids.
  for (const auto& [tid, name] : thread_names()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  // Flight-recorder counter lanes (ph "C", DESIGN.md §13): one sample per
  // recorded engine round, so Perfetto renders round-by-round message /
  // byte / barrier-wait series alongside the span lanes.
  for (const RoundSample& s : FlightRecorder::instance().samples()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"round.messages\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << s.ts_us
       << ",\"args\":{\"messages\":" << s.messages << "}},\n";
    os << "{\"name\":\"round.bytes\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << s.ts_us
       << ",\"args\":{\"bytes\":" << s.bytes << "}},\n";
    char wait[96];
    std::snprintf(wait, sizeof(wait), "{\"max\":%.1f,\"sum\":%.1f}", s.max_wait_us, s.wait_us);
    os << "{\"name\":\"round.barrier_wait_us\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
       << s.ts_us << ",\"args\":" << wait << "}";
  }
  for (const auto& [tid, events] : events_by_thread()) {
    for (const TraceEvent& ev : events) {
      if (!first) os << ",\n";
      first = false;
      append_event_json(os, tid, ev);
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::string TraceRecorder::to_jsonl() const {
  std::ostringstream os;
  for (const auto& [tid, events] : events_by_thread()) {
    for (const TraceEvent& ev : events) {
      append_event_json(os, tid, ev);
      os << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// MetricsRegistry exports

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  for (const auto& e : entries_) {
    os << "# HELP " << e->name << " " << e->help
       << (e->thread_variant ? " (thread-variant)" : "") << "\n";
    switch (e->kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << e->name << " counter\n";
        os << e->name << " " << e->counter->value() << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << e->name << " gauge\n";
        os << e->name << " " << e->gauge->value() << "\n";
        break;
      case MetricKind::kHistogram: {
        os << "# TYPE " << e->name << " histogram\n";
        long long cumulative = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += e->histogram->bucket(b);
          if (b + 1 < Histogram::kBuckets) {
            os << e->name << "_bucket{le=\"" << Histogram::bound(b) << "\"} " << cumulative
               << "\n";
          } else {
            os << e->name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
          }
        }
        os << e->name << "_sum " << e->histogram->sum() << "\n";
        os << e->name << "_count " << e->histogram->count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string iso8601_utc_now() {
  const std::time_t t = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace lad::obs
