// Per-layer ledger of a traced unit.
//
// The ledger covers the client thread: the benchmark's root span
// "bench.workload" and every span nested under it, both the benchmark's
// own spans around calls into a layer and the library's spans when the
// library runs on that thread. Engine workers record their spans on other
// threads; the client sees that time as its serve.* waits. A span's self
// time is its duration minus that of its direct children, so when the
// nesting is right the layer self times plus the root's own self time
// ("unattributed") add up to the root's duration. The caller checks that
// duration against a stopwatch; the rebuild below reports every sign of a
// wrong nesting: a second or missing root, a client-thread span outside the
// root, a span that outlives its parent, or a negative self time.
//
// SpanTracer exposes per-thread records only through its Chrome-trace
// export, so the ledger re-reads that export and rebuilds each thread's
// nesting from the intervals (spans on one thread close in LIFO order).
#include <algorithm>
#include <string_view>

#include "bench.hpp"

namespace e2e {

namespace {

/// The export prints microseconds with three decimals: allow one rounding
/// step per compared endpoint.
constexpr double kRoundingUs = 2e-3;

struct Event {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  double child_us = 0.0;
  long children = 0;
  double end_us() const { return start_us + dur_us; }
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Layer (repo module) a client-thread span's self time belongs to.
const char* layer_of(std::string_view name) {
  if (starts_with(name, "bench.apps.")) return "apps";
  if (starts_with(name, "bench.graph.")) return "graph";
  if (starts_with(name, "bench.fusion.")) return "fusion";
  if (starts_with(name, "bench.store.")) return "store";
  if (starts_with(name, "bench.serve.") || starts_with(name, "serve.")) return "serve";
  return "search";  // bench.search.*, driver.*, hgga.*, greedy.*, objective.*, local_polish
}

}  // namespace

Ledger build_ledger(const kf::SpanTracer& tracer) {
  Ledger ledger;
  const kf::JsonValue doc = kf::JsonValue::parse(tracer.to_chrome_trace_json());
  long client_tid = -1;
  for (const kf::JsonValue& e : doc.items())
    if (e.string_or("name", "") == "bench.workload") client_tid = e.find("tid")->as_long();

  std::vector<Event> events;
  std::size_t roots = 0;
  for (const kf::JsonValue& e : doc.items()) {
    if (e.string_or("ph", "") != "X" || e.find("tid")->as_long() != client_tid) continue;
    events.push_back({e.string_or("name", ""), e.number_or("ts", 0.0), e.number_or("dur", 0.0)});
    if (events.back().name == "bench.workload") ++roots;
  }
  if (roots != 1) {
    ledger.errors.push_back(kf::strprintf("%zu root spans on the client thread", roots));
    return ledger;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.dur_us > b.dur_us;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!open.empty() && events[open.back()].end_us() <= events[i].start_us) open.pop_back();
    if (open.empty()) {
      if (events[i].name != "bench.workload")
        ledger.errors.push_back(events[i].name + " runs outside the root span");
    } else {
      Event& parent = events[open.back()];
      if (events[i].end_us() > parent.end_us() + kRoundingUs)
        ledger.errors.push_back(events[i].name + " outlives its parent " + parent.name);
      parent.child_us += events[i].dur_us;
      ++parent.children;
    }
    open.push_back(i);
  }

  for (const Event& e : events) {
    const double self_us = e.dur_us - e.child_us;
    if (self_us < -kRoundingUs * static_cast<double>(e.children + 1))
      ledger.errors.push_back(kf::strprintf("%s has negative self time %.3f us", e.name.c_str(),
                                            self_us));
    auto& [count, total] = ledger.spans[e.name];
    ++count;
    total += e.dur_us * 1e-6;
    if (e.name == "bench.workload") {
      ledger.wall_s = e.dur_us * 1e-6;
      ledger.unattributed_s = self_us * 1e-6;
    } else {
      ledger.layer_s[layer_of(e.name)] += self_us * 1e-6;
    }
  }
  return ledger;
}

}  // namespace e2e
