#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace kf {

std::string MetricsRegistry::series_key(std::string_view name,
                                        const MetricLabels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

void MetricsRegistry::count(std::string_view name, long delta,
                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Hot path: the serving counters are label-less, so an existing series is
  // found heterogeneously with zero allocations; the key string is only
  // built on first insert (or when labels are present).
  if (labels.empty()) {
    if (const auto it = counters_.find(name); it != counters_.end()) {
      it->second.value += delta;
      return;
    }
  }
  auto [it, inserted] = counters_.try_emplace(series_key(name, labels));
  if (inserted) {
    it->second.name = std::string(name);
    it->second.labels = labels;
  }
  it->second.value += delta;
}

void MetricsRegistry::gauge(std::string_view name, double value,
                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (labels.empty()) {
    if (const auto it = gauges_.find(name); it != gauges_.end()) {
      it->second.value = value;
      return;
    }
  }
  auto [it, inserted] = gauges_.try_emplace(series_key(name, labels));
  if (inserted) {
    it->second.name = std::string(name);
    it->second.labels = labels;
  }
  it->second.value = value;
}

void MetricsRegistry::declare_buckets(std::string_view name,
                                      std::vector<double> upper_bounds) {
  KF_REQUIRE(!upper_bounds.empty(), "declare_buckets: no bounds");
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    KF_REQUIRE(std::isfinite(upper_bounds[i]),
               "declare_buckets: bounds must be finite (+Inf is implicit)");
    KF_REQUIRE(i == 0 || upper_bounds[i - 1] < upper_bounds[i],
               "declare_buckets: bounds must be strictly increasing");
  }
  std::vector<Bucket> buckets(upper_bounds.size() + 1);
  for (std::size_t i = 0; i < upper_bounds.size(); ++i)
    buckets[i].le = upper_bounds[i];
  buckets.back().le = std::numeric_limits<double>::infinity();

  std::lock_guard<std::mutex> lock(mutex_);
  bucket_bounds_[std::string(name)] = std::move(upper_bounds);
  // Retrofit series that already exist under this name with empty bucket
  // vectors; earlier samples are not replayed (declare-before-observe for
  // exact counts).
  for (auto& [key, s] : histograms_) {
    if (s.name == name && s.value.buckets.empty()) s.value.buckets = buckets;
  }
}

void MetricsRegistry::observe(std::string_view name, double sample,
                              const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = labels.empty() ? histograms_.find(name) : histograms_.end();
  if (it == histograms_.end()) {
    bool inserted = false;
    std::tie(it, inserted) = histograms_.try_emplace(series_key(name, labels));
    if (inserted) {
      it->second.name = std::string(name);
      it->second.labels = labels;
      if (const auto bounds = bucket_bounds_.find(name);
          bounds != bucket_bounds_.end()) {
        std::vector<Bucket>& buckets = it->second.value.buckets;
        buckets.resize(bounds->second.size() + 1);
        for (std::size_t i = 0; i < bounds->second.size(); ++i)
          buckets[i].le = bounds->second[i];
        buckets.back().le = std::numeric_limits<double>::infinity();
      }
    }
  }
  Histogram& h = it->second.value;
  if (!h.buckets.empty()) {
    // First bucket whose upper bound contains the sample; the tail +Inf
    // bucket catches everything (NaN included — better one odd bucket than
    // a lost observation).
    std::size_t b = 0;
    while (b + 1 < h.buckets.size() && !(sample <= h.buckets[b].le)) ++b;
    ++h.buckets[b].count;
    if (const TraceId trace = current_trace(); trace.valid()) {
      h.buckets[b].exemplar_trace = trace;
      h.buckets[b].exemplar_value = sample;
    }
  }
  if (h.count == 0) {
    h.min = h.max = sample;
  } else {
    h.min = std::min(h.min, sample);
    h.max = std::max(h.max, sample);
  }
  h.sum += sample;
  ++h.count;
  if (h.reservoir.size() < kReservoirCapacity) {
    h.reservoir.push_back(sample);
  } else {
    // Algorithm R with a deterministic LCG: keep each of the first n
    // samples with probability capacity/n.
    h.lcg = h.lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t slot = (h.lcg >> 17) % h.count;
    if (slot < kReservoirCapacity) h.reservoir[slot] = sample;
  }
}

long MetricsRegistry::counter_value(std::string_view name,
                                    const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      labels.empty() ? counters_.find(name) : counters_.find(series_key(name, labels));
  return it == counters_.end() ? 0 : it->second.value;
}

double MetricsRegistry::gauge_value(std::string_view name,
                                    const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      labels.empty() ? gauges_.find(name) : gauges_.find(series_key(name, labels));
  return it == gauges_.end() ? 0.0 : it->second.value;
}

double MetricsRegistry::HistogramSnapshot::percentile(double p) const {
  KF_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  // Pinned small-count behaviour: n=0 -> 0.0 (no data, no throw), n=1 ->
  // the sample for every p, n=2 -> linear interpolation between the two.
  if (samples.empty()) return 0.0;
  // The extremes are tracked exactly even past reservoir overflow, so p=0
  // and p=100 report the true min/max rather than reservoir survivors.
  if (p == 0.0 && count > 0) return min;
  if (p == 100.0 && count > 0) return max;
  return kf::percentile(samples, p);
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::histogram(
    std::string_view name, const MetricLabels& labels) const {
  HistogramSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = labels.empty() ? histograms_.find(name)
                                   : histograms_.find(series_key(name, labels));
    if (it == histograms_.end()) return snap;
    const Histogram& h = it->second.value;
    snap.count = h.count;
    snap.sum = h.sum;
    snap.min = h.min;
    snap.max = h.max;
    snap.samples = h.reservoir;
    snap.buckets = h.buckets;
  }
  std::sort(snap.samples.begin(), snap.samples.end());
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  std::map<std::string, Series<long>, std::less<>> counters;
  std::map<std::string, Series<double>, std::less<>> gauges;
  std::map<std::string, Series<Histogram>, std::less<>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }
  out.counters.reserve(counters.size());
  for (const auto& [key, s] : counters)
    out.counters.push_back({s.name, s.labels, s.value});
  out.gauges.reserve(gauges.size());
  for (const auto& [key, s] : gauges)
    out.gauges.push_back({s.name, s.labels, s.value});
  out.histograms.reserve(histograms.size());
  for (const auto& [key, s] : histograms) {
    HistogramSnapshot snap;
    snap.count = s.value.count;
    snap.sum = s.value.sum;
    snap.min = s.value.min;
    snap.max = s.value.max;
    snap.samples = s.value.reservoir;
    snap.buckets = s.value.buckets;
    std::sort(snap.samples.begin(), snap.samples.end());
    out.histograms.push_back({s.name, s.labels, std::move(snap)});
  }
  return out;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

namespace {

JsonValue labels_json(const MetricLabels& labels) {
  JsonValue obj = JsonValue::object();
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [k, v] : sorted) obj.set(k, v);
  return obj;
}

}  // namespace

JsonValue MetricsRegistry::to_json() const {
  // Snapshot under the lock, render outside it.
  std::map<std::string, Series<long>, std::less<>> counters;
  std::map<std::string, Series<double>, std::less<>> gauges;
  std::map<std::string, Series<Histogram>, std::less<>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters = counters_;
    gauges = gauges_;
    histograms = histograms_;
  }

  JsonValue root = JsonValue::object();
  JsonValue counter_list = JsonValue::array();
  for (const auto& [key, s] : counters) {
    JsonValue entry = JsonValue::object();
    entry.set("name", s.name);
    entry.set("labels", labels_json(s.labels));
    entry.set("value", s.value);
    counter_list.push_back(std::move(entry));
  }
  root.set("counters", std::move(counter_list));

  JsonValue gauge_list = JsonValue::array();
  for (const auto& [key, s] : gauges) {
    JsonValue entry = JsonValue::object();
    entry.set("name", s.name);
    entry.set("labels", labels_json(s.labels));
    entry.set("value", s.value);
    gauge_list.push_back(std::move(entry));
  }
  root.set("gauges", std::move(gauge_list));

  JsonValue hist_list = JsonValue::array();
  for (const auto& [key, s] : histograms) {
    HistogramSnapshot snap;
    snap.count = s.value.count;
    snap.sum = s.value.sum;
    snap.min = s.value.min;
    snap.max = s.value.max;
    snap.samples = s.value.reservoir;
    std::sort(snap.samples.begin(), snap.samples.end());

    JsonValue entry = JsonValue::object();
    entry.set("name", s.name);
    entry.set("labels", labels_json(s.labels));
    entry.set("count", static_cast<double>(snap.count));
    entry.set("sum", snap.sum);
    entry.set("min", snap.min);
    entry.set("max", snap.max);
    entry.set("mean", snap.mean());
    entry.set("p50", snap.percentile(50));
    entry.set("p90", snap.percentile(90));
    entry.set("p99", snap.percentile(99));
    if (!snap.buckets.empty()) {
      JsonValue buckets = JsonValue::array();
      for (const Bucket& b : snap.buckets) {
        JsonValue bucket = JsonValue::object();
        // +Inf is not a JSON number; the final bucket is always +Inf so a
        // missing "le" marks it unambiguously for consumers.
        if (std::isfinite(b.le)) bucket.set("le", b.le);
        bucket.set("count", static_cast<double>(b.count));
        if (b.exemplar_trace.valid()) {
          bucket.set("exemplar_trace", b.exemplar_trace.to_hex());
          bucket.set("exemplar_value", b.exemplar_value);
        }
        buckets.push_back(std::move(bucket));
      }
      entry.set("buckets", std::move(buckets));
    }
    hist_list.push_back(std::move(entry));
  }
  root.set("histograms", std::move(hist_list));
  return root;
}

std::string MetricsRegistry::to_json_string(int indent) const {
  return to_json().to_string(indent);
}

}  // namespace kf
