#include "telemetry/calibration.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace kf {
namespace {

// Same deterministic generator family as MetricsRegistry's histogram
// reservoirs: fixed seed, so two runs over the same sample stream keep the
// same percentile reservoir bit for bit.
constexpr std::uint64_t kLcgSeed = 0x243f6a8885a308d3ULL;

}  // namespace

const char* CalibrationTracker::bucket_label(int bucket) noexcept {
  switch (bucket) {
    case 0: return "2";
    case 1: return "3";
    case 2: return "4";
    case 3: return "5-8";
    default: return "9+";
  }
}

int CalibrationTracker::bucket_of(std::size_t group_size) noexcept {
  if (group_size <= 2) return 0;
  if (group_size == 3) return 1;
  if (group_size == 4) return 2;
  if (group_size <= 8) return 3;
  return 4;
}

CalibrationTracker::CalibrationTracker(const Options& options)
    : options_(options) {
  KF_REQUIRE(options_.drift_band > 0.0, "drift band must be positive");
  KF_REQUIRE(options_.min_samples > 0, "min_samples must be positive");
  KF_REQUIRE(options_.reservoir > 0, "reservoir capacity must be positive");
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[b].reservoir.reserve(options_.reservoir);
    buckets_[b].lcg = kLcgSeed + static_cast<std::uint64_t>(b);
  }
}

std::optional<CalibrationTracker::Drift> CalibrationTracker::record(
    std::size_t group_size, double projected_s, double simulated_s) {
  if (!(simulated_s > 0.0) || !std::isfinite(projected_s)) return std::nullopt;
  const double rel = (projected_s - simulated_s) / simulated_s;
  if (!std::isfinite(rel)) return std::nullopt;

  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = buckets_[bucket_of(group_size)];
  if (b.count == 0) {
    b.min = b.max = rel;
  } else {
    b.min = std::min(b.min, rel);
    b.max = std::max(b.max, rel);
  }
  ++b.count;
  b.sum += rel;
  b.sum_abs += std::abs(rel);
  if (rel > 0.0) ++b.over;
  if (rel < 0.0) ++b.under;
  if (b.reservoir.size() < options_.reservoir) {
    b.reservoir.push_back(rel);
  } else {
    // Algorithm R: replace a random slot with probability capacity/count.
    b.lcg = b.lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto slot = static_cast<std::size_t>(
        (b.lcg >> 17) % static_cast<std::uint64_t>(b.count));
    if (slot < b.reservoir.size()) b.reservoir[slot] = rel;
  }

  const double mean = b.sum / static_cast<double>(b.count);
  if (!b.drift && b.count >= options_.min_samples &&
      std::abs(mean) > options_.drift_band) {
    b.drift = true;
    Drift d;
    d.bucket = bucket_of(group_size);
    d.count = b.count;
    d.mean_rel_error = mean;
    return d;
  }
  return std::nullopt;
}

double CalibrationTracker::BucketStats::sign_bias() const noexcept {
  if (count == 0) return 0.0;
  return static_cast<double>(overestimates - underestimates) /
         static_cast<double>(count);
}

std::vector<CalibrationTracker::BucketStats> CalibrationTracker::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BucketStats> out;
  for (int i = 0; i < kBuckets; ++i) {
    const Bucket& b = buckets_[i];
    if (b.count == 0) continue;
    BucketStats s;
    s.label = bucket_label(i);
    s.count = b.count;
    s.mean_rel_error = b.sum / static_cast<double>(b.count);
    s.mean_abs_rel_error = b.sum_abs / static_cast<double>(b.count);
    s.max_abs_rel_error = std::max(std::abs(b.min), std::abs(b.max));
    s.min_rel_error = b.min;
    s.max_rel_error = b.max;
    s.overestimates = b.over;
    s.underestimates = b.under;
    s.drift = b.drift;
    std::vector<double> rel = b.reservoir;
    std::sort(rel.begin(), rel.end());
    s.p50_rel_error = percentile(rel, 50.0);
    std::vector<double> abs_rel(b.reservoir.size());
    for (std::size_t j = 0; j < b.reservoir.size(); ++j)
      abs_rel[j] = std::abs(b.reservoir[j]);
    std::sort(abs_rel.begin(), abs_rel.end());
    s.p90_abs_rel_error = percentile(abs_rel, 90.0);
    out.push_back(s);
  }
  return out;
}

long CalibrationTracker::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  long total = 0;
  for (const Bucket& b : buckets_) total += b.count;
  return total;
}

bool CalibrationTracker::any_drift() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Bucket& b : buckets_)
    if (b.drift) return true;
  return false;
}

JsonValue CalibrationTracker::to_json() const {
  JsonValue block = JsonValue::object();
  block.set("samples", samples());
  block.set("drift_band", options_.drift_band);
  block.set("min_samples", options_.min_samples);
  block.set("drift", any_drift());
  JsonValue buckets = JsonValue::array();
  for (const BucketStats& s : stats()) {
    JsonValue b = JsonValue::object();
    b.set("group_size", s.label);
    b.set("count", s.count);
    b.set("mean_rel_error", s.mean_rel_error);
    b.set("mean_abs_rel_error", s.mean_abs_rel_error);
    b.set("max_abs_rel_error", s.max_abs_rel_error);
    b.set("min_rel_error", s.min_rel_error);
    b.set("max_rel_error", s.max_rel_error);
    b.set("p50_rel_error", s.p50_rel_error);
    b.set("p90_abs_rel_error", s.p90_abs_rel_error);
    b.set("overestimates", s.overestimates);
    b.set("underestimates", s.underestimates);
    b.set("sign_bias", s.sign_bias());
    b.set("drift", s.drift);
    buckets.push_back(std::move(b));
  }
  block.set("buckets", std::move(buckets));
  return block;
}

}  // namespace kf
