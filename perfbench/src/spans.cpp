#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "daemon/trace_export.hpp"
#include "util/json.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  // Children covered time per (op, parent name); spans of one op never
  // overlap their siblings (an op's legs are sequential).
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> covered;
  for (const Span& s : spans_) {
    if (s.parent[0] != '\0') {
      covered[{s.op, s.parent}] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans_) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = covered.find({s.op, s.name});
    const std::uint64_t kids = it == covered.end() ? 0 : it->second;
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - std::min(dur, kids)) / 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) {
    out.push_back(t);
  }
  return out;
}

std::string SpanLog::write_chrome_trace(const std::string& path) const {
  namespace eu = elpc::util;
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) {
    order.push_back(&s);
  }
  // Per row, timestamps must not decrease in array order; a parent and
  // its first child share a start, so the longer span goes first.
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return std::make_tuple(a->start_ns, b->end_ns) <
           std::make_tuple(b->start_ns, a->end_ns);
  });
  const std::uint64_t base = order.empty() ? 0 : order.front()->start_ns;
  eu::JsonArray events;
  events.reserve(order.size());
  for (const Span* s : order) {
    eu::Json ev = eu::JsonObject{};
    ev.set("name", s->name);
    ev.set("ph", "X");
    ev.set("ts", static_cast<double>(s->start_ns - base) / 1e3);
    ev.set("dur", static_cast<double>(s->end_ns - s->start_ns) / 1e3);
    ev.set("pid", 1);
    ev.set("tid", static_cast<std::int64_t>(s->row));
    eu::Json args = eu::JsonObject{};
    args.set("op", static_cast<std::int64_t>(s->op));
    args.set("parent", s->parent);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  eu::Json doc = eu::JsonObject{};
  doc.set("traceEvents", eu::Json(std::move(events)));
  doc.set("displayTimeUnit", "ms");
  {
    std::ofstream out(path, std::ios::binary);
    out << doc.dump();
    if (!out) {
      return "cannot write " + path;
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  if (!elpc::daemon::validate_chrome_trace(eu::Json::parse(text.str()),
                                           &error)) {
    return error;
  }
  return "";
}

}  // namespace perfbench
