#include "tfr/obs/export.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "tfr/obs/byte_codec.hpp"

namespace tfr::obs {

namespace {

constexpr char kMagic[8] = {'T', 'F', 'R', 'T', 'R', 'C', '0', '1'};

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

struct KindInfo {
  const char* name;  ///< event name when the label is empty
  const char* cat;
  bool span;  ///< "X" (complete) vs "i" (instant)
};

KindInfo kind_info(EventKind kind) {
  switch (kind) {
    case EventKind::kRead: return {"read", "access", true};
    case EventKind::kWrite: return {"write", "access", true};
    case EventKind::kDelay: return {"delay", "delay", true};
    case EventKind::kTimingFailure: return {"timing-failure", "failure", false};
    case EventKind::kRound: return {"round", "consensus", false};
    case EventKind::kDecide: return {"decide", "consensus", false};
    case EventKind::kEntry: return {"entry", "mutex", false};
    case EventKind::kCsEnter: return {"cs-enter", "mutex", false};
    case EventKind::kCsExit: return {"cs-exit", "mutex", false};
    case EventKind::kExitDone: return {"exit-done", "mutex", false};
    case EventKind::kViolation: return {"violation", "violation", false};
    case EventKind::kCrash: return {"crash", "failure", false};
    case EventKind::kDone: return {"done", "process", false};
    case EventKind::kStall: return {"stall", "failure", false};
    case EventKind::kNetDrop: return {"net-drop", "network", false};
    case EventKind::kNetDuplicate: return {"net-duplicate", "network", false};
    case EventKind::kNetDelay: return {"net-delay", "network", false};
    case EventKind::kNetPartition: return {"net-partition", "network", false};
    case EventKind::kRetry: return {"retry", "recovery", false};
    case EventKind::kTimeout: return {"timeout", "recovery", false};
    case EventKind::kBackoff: return {"backoff", "recovery", false};
    case EventKind::kCounter: return {"counter", "counter", false};
  }
  return {"event", "misc", false};
}

using codec::put_u32;
using codec::put_u64;
using codec::Reader;

}  // namespace

std::string to_chrome_json(const TraceSink& sink) {
  const std::vector<Event> events = sink.snapshot();
  const std::vector<std::string> labels = sink.labels();
  auto label_of = [&](std::uint32_t id) -> std::string_view {
    if (id == 0 || id > labels.size()) return {};
    return labels[id - 1];
  };

  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"traceEvents\":[";

  // Thread metadata first: one Perfetto track per simulated process, plus
  // one (-1) for un-attributed events such as rt stalls.
  std::set<std::int32_t> pids;
  for (const Event& e : events) pids.insert(e.pid);
  bool first = true;
  for (std::int32_t pid : pids) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":";
    out += std::to_string(pid);
    out += ",\"args\":{\"name\":\"";
    if (pid < 0) {
      out += "unattributed";
    } else {
      out += "p";
      out += std::to_string(pid);
    }
    out += "\"}}";
  }

  for (const Event& e : events) {
    const KindInfo info = kind_info(e.kind);
    if (!first) out += ",";
    first = false;
    if (e.kind == EventKind::kCounter) {
      // Chrome counter track: a/b become two stacked series so stall (or
      // fault) totals plot over time alongside the span/instant events.
      out += "{\"ph\":\"C\",\"name\":\"";
      const std::string_view counter = label_of(e.label);
      if (counter.empty()) {
        out += "counter";
      } else {
        append_json_escaped(out, counter);
      }
      out += "\",\"cat\":\"counter\",\"ts\":";
      out += std::to_string(e.time);
      out += ",\"pid\":0,\"tid\":";
      out += std::to_string(e.pid);
      out += ",\"args\":{\"count\":";
      out += std::to_string(e.a);
      out += ",\"total\":";
      out += std::to_string(e.b);
      out += "}}";
      continue;
    }
    out += "{\"name\":\"";
    const std::string_view label = label_of(e.label);
    if (!label.empty()) {
      append_json_escaped(out, label);
      out += ' ';
    }
    out += info.name;
    out += "\",\"cat\":\"";
    out += info.cat;
    out += "\",\"ph\":\"";
    out += info.span ? "X" : "i";
    out += "\",\"ts\":";
    out += std::to_string(e.time);
    if (info.span) {
      out += ",\"dur\":";
      out += std::to_string(e.a);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"pid\":0,\"tid\":";
    out += std::to_string(e.pid);
    out += ",\"args\":{\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += "}}";
  }

  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_chrome_json(const TraceSink& sink, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string json = to_chrome_json(sink);
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(file);
}

std::string encode_binary(const TraceSink& sink) {
  const std::vector<Event> events = sink.snapshot();
  const std::vector<std::string> labels = sink.labels();

  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, static_cast<std::uint32_t>(labels.size()));
  for (const std::string& s : labels) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
  }
  put_u64(out, events.size());
  for (const Event& e : events) {
    put_u64(out, static_cast<std::uint64_t>(e.time));
    put_u32(out, static_cast<std::uint32_t>(e.pid));
    out += static_cast<char>(e.kind);
    put_u64(out, static_cast<std::uint64_t>(e.a));
    put_u64(out, static_cast<std::uint64_t>(e.b));
    put_u32(out, e.label);
  }
  return out;
}

bool decode_binary(std::string_view bytes, TraceSink& out) {
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return false;
  }
  Reader reader(bytes.substr(sizeof kMagic));
  std::uint32_t label_count = 0;
  if (!reader.u32(label_count)) return false;
  for (std::uint32_t i = 0; i < label_count; ++i) {
    std::uint32_t len = 0;
    std::string s;
    if (!reader.u32(len) || !reader.str(s, len)) return false;
    out.intern(s);
  }
  std::uint64_t event_count = 0;
  if (!reader.u64(event_count)) return false;
  for (std::uint64_t i = 0; i < event_count; ++i) {
    std::uint64_t time = 0, a = 0, b = 0;
    std::uint32_t pid = 0, label = 0;
    std::uint8_t kind = 0;
    if (!reader.u64(time) || !reader.u32(pid) || !reader.u8(kind) ||
        !reader.u64(a) || !reader.u64(b) || !reader.u32(label)) {
      return false;
    }
    out.append(Event{static_cast<std::int64_t>(time),
                     static_cast<std::int32_t>(pid),
                     static_cast<EventKind>(kind),
                     static_cast<std::int64_t>(a),
                     static_cast<std::int64_t>(b), label});
  }
  return true;
}

bool write_binary(const TraceSink& sink, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string bytes = encode_binary(sink);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(file);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

}  // namespace tfr::obs
