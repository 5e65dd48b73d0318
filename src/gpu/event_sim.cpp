#include "gpu/event_sim.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <sstream>

#include "util/chrome_trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

/// Deterministic per-block duration jitter amplitude (+-).
constexpr double kBlockJitter = 0.03;

}  // namespace

EventSimulator::EventSimulator(DeviceSpec device, Options options)
    : device_(std::move(device)),
      options_(options),
      // The analytic model supplies the per-launch aggregate terms; its
      // measurement noise is disabled here (the event model has its own
      // per-block jitter).
      analytic_(device_, TimingSimulator::Options{.noise_amplitude = 0.0}) {
  KF_REQUIRE(options_.max_records_per_launch > 0, "record cap must be positive");
}

LaunchTimeline EventSimulator::run(const Program& program,
                                   const LaunchDescriptor& launch,
                                   double start_s) const {
  const SimResult analytic = analytic_.run(program, launch);
  LaunchTimeline timeline;
  timeline.name = launch.name;
  timeline.start_s = start_s;
  timeline.occupancy = analytic.occupancy;
  if (!analytic.launchable) {
    timeline.end_s = std::numeric_limits<double>::infinity();
    return timeline;
  }

  const long blocks = program.blocks();
  const int slots_per_smx = std::max(1, analytic.occupancy.blocks_per_smx);
  const int total_slots = slots_per_smx * device_.num_smx;

  // Per-block base duration: the launch's overlapped work split evenly, so
  // that a fully-occupied steady state reproduces the analytic rate. The
  // launch overhead is paid once up front.
  const double work_s = std::max({analytic.mem_time_s, analytic.compute_time_s,
                                  analytic.smem_time_s}) +
                        device_.smem_overlap_penalty * analytic.smem_time_s +
                        analytic.barrier_time_s;
  // Steady-state block duration: `waves` generations of `total_slots`
  // concurrent blocks must reproduce the analytic aggregate work time.
  const long waves = (blocks + total_slots - 1) / total_slots;
  const double block_duration = work_s / static_cast<double>(waves);

  // Greedy dispatch: a min-heap of (free_time, smx, slot).
  struct Slot {
    double free_at;
    int smx;
    int slot;
    bool operator>(const Slot& other) const { return free_at > other.free_at; }
  };
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots;
  for (int s = 0; s < device_.num_smx; ++s) {
    for (int c = 0; c < slots_per_smx; ++c) {
      slots.push({start_s + device_.launch_overhead_s, s, c});
    }
  }

  std::uint64_t hash_state = mix64(std::hash<std::string>{}(launch.name) ^ 0xeeee);
  double end = start_s;
  for (long b = 0; b < blocks; ++b) {
    Slot slot = slots.top();
    slots.pop();
    const double u = static_cast<double>(splitmix64(hash_state) >> 11) * 0x1.0p-53;
    const double duration =
        block_duration * (1.0 + kBlockJitter * (2.0 * u - 1.0));
    BlockRecord record;
    record.block = b;
    record.smx = slot.smx;
    record.slot = slot.slot;
    record.start_s = slot.free_at;
    record.end_s = slot.free_at + duration;
    end = std::max(end, record.end_s);
    slot.free_at = record.end_s;
    slots.push(slot);
    if (static_cast<long>(timeline.blocks.size()) < options_.max_records_per_launch) {
      timeline.blocks.push_back(record);
    }
  }
  timeline.end_s = end;
  return timeline;
}

EventTrace EventSimulator::run_sequence(
    const Program& program, const std::vector<LaunchDescriptor>& launches) const {
  EventTrace trace;
  double clock = 0.0;
  for (const LaunchDescriptor& d : launches) {
    LaunchTimeline timeline = run(program, d, clock);
    clock = timeline.end_s;
    trace.launches.push_back(std::move(timeline));
  }
  trace.makespan_s = clock;
  return trace;
}

double EventTrace::utilisation(const DeviceSpec& device) const {
  if (makespan_s <= 0.0) return 0.0;
  double busy = 0.0;
  int max_slots = 1;
  for (const LaunchTimeline& launch : launches) {
    for (const BlockRecord& b : launch.blocks) {
      busy += b.end_s - b.start_s;
    }
    max_slots = std::max(
        max_slots, std::max(1, launch.occupancy.blocks_per_smx) * device.num_smx);
  }
  return busy / (makespan_s * max_slots);
}

void EventTrace::append_chrome_trace(ChromeTraceWriter& writer) const {
  writer.process_name(ChromeTraceWriter::kDevicePid, "device timeline");
  for (const LaunchTimeline& launch : launches) {
    for (const BlockRecord& b : launch.blocks) {
      // tid encodes (smx, slot) so each concurrent slot gets its own row.
      writer.complete_event(strprintf("%s b%ld", launch.name.c_str(), b.block),
                            "device", ChromeTraceWriter::kDevicePid,
                            b.smx * 64 + b.slot, b.start_s * 1e6,
                            (b.end_s - b.start_s) * 1e6);
    }
  }
}

std::string EventTrace::to_chrome_trace_json() const {
  ChromeTraceWriter writer;
  append_chrome_trace(writer);
  return writer.finish();
}

std::string EventTrace::to_svg(int width_px) const {
  KF_REQUIRE(width_px > 100, "SVG width too small");
  // Collect the slot rows in use.
  std::map<std::pair<int, int>, int> row_of;
  for (const LaunchTimeline& launch : launches) {
    for (const BlockRecord& b : launch.blocks) {
      row_of.try_emplace({b.smx, b.slot}, 0);
    }
  }
  int next_row = 0;
  for (auto& [key, row] : row_of) row = next_row++;

  const int row_h = 14;
  const int margin = 36;
  const int height = margin + next_row * row_h + 12;
  const double t_max = std::max(makespan_s, 1e-12);
  const double px_per_s = (width_px - 2.0 * margin) / t_max;
  // Muted categorical palette, cycled per launch.
  static const char* const palette[] = {"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
                                        "#76b7b2", "#edc948", "#b07aa1", "#9c755f"};

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_px
     << "\" height=\"" << height << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
  os << "<text x=\"" << margin << "\" y=\"18\" font-family=\"sans-serif\" "
     << "font-size=\"12\">device timeline — makespan "
     << strprintf("%.2f", makespan_s * 1e6) << " us, " << launches.size()
     << " launches</text>\n";
  for (std::size_t li = 0; li < launches.size(); ++li) {
    const char* color = palette[li % (sizeof(palette) / sizeof(palette[0]))];
    for (const BlockRecord& b : launches[li].blocks) {
      const int row = row_of.at({b.smx, b.slot});
      const double x = margin + b.start_s * px_per_s;
      const double w = std::max(0.5, (b.end_s - b.start_s) * px_per_s);
      os << strprintf(
          "<rect x=\"%.2f\" y=\"%d\" width=\"%.2f\" height=\"%d\" fill=\"%s\" "
          "stroke=\"#ffffff\" stroke-width=\"0.3\"/>\n",
          x, margin + row * row_h, w, row_h - 2, color);
    }
  }
  os << "</svg>\n";
  return os.str();
}

}  // namespace kf
