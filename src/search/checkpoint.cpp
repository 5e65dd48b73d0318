#include "search/checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/fs_io.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

/// Load-path hardening bounds: a checkpoint bigger than this, or declaring
/// counts past these caps, is rejected as corrupt *before* any allocation
/// is sized from its contents — a flipped bit in a count field must not
/// turn into a multi-gigabyte vector reserve.
constexpr long kMaxCheckpointBytes = 64L << 20;
constexpr int kMaxKernels = 1 << 16;
constexpr std::size_t kMaxPopulation = 1u << 20;
constexpr std::size_t kMaxHistory = 1u << 22;

std::string hexfloat(double value) { return strprintf("%a", value); }

/// Serializes a plan in its RAW internal group order. to_string() would
/// canonicalize, but crossover and mutation index groups by position, so a
/// canonicalizing round-trip would diverge from the uninterrupted run even
/// with an identical RNG state. FusionPlan::parse preserves textual order.
std::string raw_plan_text(const FusionPlan& plan) {
  std::ostringstream os;
  const auto& groups = plan.groups();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g) os << ' ';
    os << '{';
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      if (i) os << ',';
      os << groups[g][i];
    }
    os << '}';
  }
  return os.str();
}

double parse_hexfloat(std::string_view text, int line_no, const char* what) {
  const std::string s(text);
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw CheckpointError(strprintf("checkpoint line %d: bad %s value '%s'", line_no,
                                 what, s.c_str()));
  }
  return value;
}

std::uint64_t parse_u64(std::string_view text, int line_no, const char* what) {
  const std::string s(text);
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(s, &used, 0);
    if (used != s.size()) throw std::invalid_argument("trailing junk");
    return value;
  } catch (const std::exception&) {
    throw CheckpointError(strprintf("checkpoint line %d: bad %s value '%s'", line_no,
                                 what, s.c_str()));
  }
}

int parse_int(std::string_view text, int line_no, const char* what) {
  const std::uint64_t v = parse_u64(text, line_no, what);
  if (v > 1u << 30) {
    throw CheckpointError(strprintf("checkpoint line %d: %s value %llu out of range",
                                    line_no, what,
                                    static_cast<unsigned long long>(v)));
  }
  return static_cast<int>(v);
}

double parse_finite(std::string_view text, int line_no, const char* what) {
  const double value = parse_hexfloat(text, line_no, what);
  if (!std::isfinite(value)) {
    throw CheckpointError(strprintf("checkpoint line %d: non-finite %s value '%s'",
                                    line_no, what, std::string(text).c_str()));
  }
  return value;
}

/// Splits "cost=<hex> plan=<rest of line>" records.
void parse_cost_plan(std::string_view rest, int line_no, int num_kernels,
                     double* cost, FusionPlan* plan) {
  const auto plan_pos = rest.find("plan=");
  if (plan_pos == std::string_view::npos || !starts_with(rest, "cost=")) {
    throw CheckpointError(strprintf(
        "checkpoint line %d: expected cost=... plan=..., got '%s'", line_no,
        std::string(rest).c_str()));
  }
  const std::string_view cost_text =
      trim(rest.substr(5, plan_pos - 5));
  *cost = parse_finite(cost_text, line_no, "cost");
  const std::string plan_text(trim(rest.substr(plan_pos + 5)));
  try {
    *plan = FusionPlan::parse(num_kernels, plan_text);
  } catch (const std::exception& e) {
    throw CheckpointError(strprintf("checkpoint line %d: bad plan: %s", line_no,
                                 e.what()));
  }
}

}  // namespace

void write_checkpoint(std::ostream& os, const HggaCheckpoint& ckpt) {
  KF_REQUIRE(ckpt.population.size() == ckpt.costs.size(),
             "population and costs must be parallel");
  os << "hgga-checkpoint v1\n";
  os << "program " << ckpt.program_name << '\n';
  os << "kernels " << ckpt.num_kernels << '\n';
  os << "seed " << ckpt.seed << '\n';
  os << "generation " << ckpt.generation << '\n';
  os << "stall " << ckpt.stall << '\n';
  os << "rng " << ckpt.rng_state[0] << ' ' << ckpt.rng_state[1] << ' '
     << ckpt.rng_state[2] << ' ' << ckpt.rng_state[3] << '\n';
  os << "best cost=" << hexfloat(ckpt.best_cost) << " plan=" << raw_plan_text(ckpt.best)
     << '\n';
  for (double h : ckpt.history) os << "history " << hexfloat(h) << '\n';
  for (const GenerationStats& s : ckpt.trace) {
    os << "trace best=" << hexfloat(s.best_cost_s) << " mean=" << hexfloat(s.mean_cost_s)
       << " distinct=" << s.distinct_plans << " groups=" << hexfloat(s.mean_groups)
       << " worst=" << hexfloat(s.worst_cost_s) << " xover=" << s.crossovers
       << " ximp=" << s.crossover_improved << " mut=" << s.mutations << '\n';
  }
  for (std::size_t i = 0; i < ckpt.population.size(); ++i) {
    os << "individual cost=" << hexfloat(ckpt.costs[i])
       << " plan=" << raw_plan_text(ckpt.population[i]) << '\n';
  }
  os << "end\n";
}

HggaCheckpoint read_checkpoint(std::istream& is) {
  HggaCheckpoint ckpt;
  std::string line;
  int line_no = 0;
  bool saw_magic = false;
  bool saw_end = false;

  auto rest_after = [&](std::string_view t, std::size_t word_len) {
    return trim(t.substr(word_len));
  };

  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    if (!saw_magic) {
      if (t != "hgga-checkpoint v1") {
        throw CheckpointError(strprintf(
            "checkpoint line %d: bad magic (expected 'hgga-checkpoint v1')", line_no));
      }
      saw_magic = true;
      continue;
    }
    std::istringstream ls{std::string(t)};
    std::string word;
    ls >> word;
    if (word == "program") {
      ckpt.program_name = std::string(rest_after(t, word.size()));
    } else if (word == "kernels") {
      ckpt.num_kernels = parse_int(rest_after(t, word.size()), line_no, "kernels");
      if (ckpt.num_kernels > kMaxKernels) {
        throw CheckpointError(strprintf(
            "checkpoint line %d: kernel count %d exceeds the %d cap", line_no,
            ckpt.num_kernels, kMaxKernels));
      }
    } else if (word == "seed") {
      ckpt.seed = parse_u64(rest_after(t, word.size()), line_no, "seed");
    } else if (word == "generation") {
      ckpt.generation = parse_int(rest_after(t, word.size()), line_no, "generation");
    } else if (word == "stall") {
      ckpt.stall = parse_int(rest_after(t, word.size()), line_no, "stall");
    } else if (word == "rng") {
      std::string s0, s1, s2, s3;
      ls >> s0 >> s1 >> s2 >> s3;
      if (!ls) throw CheckpointError(strprintf("checkpoint line %d: bad rng line", line_no));
      ckpt.rng_state = {parse_u64(s0, line_no, "rng"), parse_u64(s1, line_no, "rng"),
                        parse_u64(s2, line_no, "rng"), parse_u64(s3, line_no, "rng")};
    } else if (word == "best") {
      parse_cost_plan(rest_after(t, word.size()), line_no, ckpt.num_kernels,
                      &ckpt.best_cost, &ckpt.best);
    } else if (word == "history") {
      if (ckpt.history.size() >= kMaxHistory) {
        throw CheckpointError(strprintf(
            "checkpoint line %d: history exceeds %zu entries", line_no, kMaxHistory));
      }
      ckpt.history.push_back(
          parse_finite(rest_after(t, word.size()), line_no, "history"));
    } else if (word == "trace") {
      GenerationStats s;
      std::string tok;
      while (ls >> tok) {
        if (starts_with(tok, "best=")) {
          s.best_cost_s = parse_hexfloat(tok.substr(5), line_no, "trace best");
        } else if (starts_with(tok, "mean=")) {
          s.mean_cost_s = parse_hexfloat(tok.substr(5), line_no, "trace mean");
        } else if (starts_with(tok, "distinct=")) {
          s.distinct_plans = parse_int(tok.substr(9), line_no, "trace distinct");
        } else if (starts_with(tok, "groups=")) {
          s.mean_groups = parse_hexfloat(tok.substr(7), line_no, "trace groups");
        } else if (starts_with(tok, "worst=")) {
          s.worst_cost_s = parse_hexfloat(tok.substr(6), line_no, "trace worst");
        } else if (starts_with(tok, "xover=")) {
          s.crossovers = parse_int(tok.substr(6), line_no, "trace xover");
        } else if (starts_with(tok, "ximp=")) {
          s.crossover_improved = parse_int(tok.substr(5), line_no, "trace ximp");
        } else if (starts_with(tok, "mut=")) {
          s.mutations = parse_int(tok.substr(4), line_no, "trace mut");
        } else {
          throw CheckpointError(strprintf("checkpoint line %d: unknown trace field '%s'",
                                       line_no, tok.c_str()));
        }
      }
      ckpt.trace.push_back(s);
    } else if (word == "individual") {
      if (ckpt.population.size() >= kMaxPopulation) {
        throw CheckpointError(strprintf(
            "checkpoint line %d: population exceeds %zu individuals", line_no,
            kMaxPopulation));
      }
      double cost = 0.0;
      FusionPlan plan;
      parse_cost_plan(rest_after(t, word.size()), line_no, ckpt.num_kernels, &cost,
                      &plan);
      ckpt.population.push_back(std::move(plan));
      ckpt.costs.push_back(cost);
    } else if (word == "end") {
      saw_end = true;
      break;
    } else {
      throw CheckpointError(strprintf("checkpoint line %d: unknown record '%s'", line_no,
                                   word.c_str()));
    }
  }
  if (!saw_magic) throw CheckpointError("checkpoint line 1: empty checkpoint");
  if (!saw_end) {
    throw CheckpointError(strprintf(
        "checkpoint line %d: truncated checkpoint (missing 'end')", line_no));
  }
  if (ckpt.num_kernels <= 0) throw CheckpointError("checkpoint has no kernels");
  if (ckpt.population.empty())
    throw CheckpointError("checkpoint has an empty population");
  return ckpt;
}

void save_checkpoint(const std::string& path, const HggaCheckpoint& ckpt) {
  std::ostringstream os;
  write_checkpoint(os, ckpt);
  write_file_atomic(path, os.str());
}

HggaCheckpoint load_checkpoint(const std::string& path) {
  if (!file_exists(path))
    throw CheckpointError("cannot open checkpoint file '" + path + "'");
  const long bytes = file_size(path);
  if (bytes > kMaxCheckpointBytes) {
    throw CheckpointError(strprintf(
        "checkpoint '%s' is %ld bytes — larger than the %ld-byte cap, refusing "
        "to parse",
        path.c_str(), bytes, kMaxCheckpointBytes));
  }
  std::ifstream is(path);
  if (!is) throw CheckpointError("cannot open checkpoint file '" + path + "'");
  return read_checkpoint(is);
}

}  // namespace kf
