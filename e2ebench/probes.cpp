// Layer probes of a traced run. They run after the traced unit, never in a
// timed phase, so they cannot perturb end-to-end numbers. Their corpora
// derive from the workload seed and the plans the workload returned.
#include <chrono>
#include <functional>

#include "bench.hpp"

namespace e2e {

namespace {

constexpr int kCorpus = 4096;  // group queries per probe
constexpr int kRepeatCalls = 2048;

/// Mean nanoseconds per call of `fn(i)` over `calls` calls.
double ns_per_call(long calls, const std::function<void(long)>& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < calls; ++i) fn(i);
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - start;
  return calls > 0 ? ns.count() / static_cast<double>(calls) : 0.0;
}

/// One probe query: a group of one context's program.
struct Query {
  const Context* ctx = nullptr;
  std::vector<kf::KernelId> group;
  kf::FusionPlan plan;  ///< the returned plan with the query applied
};

/// Pair unions and single-kernel moves over the returned plans' groups —
/// the shapes that breeding and polish test.
std::vector<Query> corpus(const RunResult& run, std::uint64_t seed) {
  kf::Rng rng(seed ^ 0x70726f6265ULL);
  std::vector<Query> out;
  for (int guard = 0; static_cast<int>(out.size()) < kCorpus && guard < 8 * kCorpus; ++guard) {
    const std::size_t i = rng.next_below(run.plans.size());
    const kf::FusionPlan& plan = run.plans[i];
    if (plan.num_groups() < 2) continue;
    const auto groups = static_cast<std::uint64_t>(plan.num_groups());
    Query q;
    q.ctx = run.contexts[i].get();
    q.plan = plan;
    const int a = static_cast<int>(rng.next_below(groups));
    int b = static_cast<int>(rng.next_below(groups - 1));
    if (b >= a) ++b;
    if (rng.next_bool(0.5)) {
      q.group.assign(plan.group(a).begin(), plan.group(a).end());
      q.group.insert(q.group.end(), plan.group(b).begin(), plan.group(b).end());
      q.plan.merge_groups(a, b);
    } else {
      const std::span<const kf::KernelId> from = plan.group(a);
      const kf::KernelId k = from[rng.next_below(from.size())];
      q.group.assign(plan.group(b).begin(), plan.group(b).end());
      q.group.push_back(k);
      q.plan.move_kernel(k, b);
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace

void run_probes(const RunResult& run, std::uint64_t seed,
                std::map<std::string, double>& out) {
  const std::vector<Query> queries = corpus(run, seed);
  const long n = static_cast<long>(queries.size());
  long ok = 0;
  out["fusion.check_group_ns"] = ns_per_call(n, [&](long i) {
    const Query& q = queries[static_cast<std::size_t>(i)];
    if (q.ctx->checker.check_group(q.group) == kf::LegalityVerdict::Ok) ++ok;
  });
  out["fusion.check_group_ok_frac"] = n > 0 ? static_cast<double>(ok) / static_cast<double>(n) : 0.0;
  out["fusion.schedulable_ns"] = ns_per_call(n, [&](long i) {
    const Query& q = queries[static_cast<std::size_t>(i)];
    (void)q.ctx->checker.plan_is_schedulable(q.plan);
  });
  out["fusion.build_ns"] = ns_per_call(n, [&](long i) {
    const Query& q = queries[static_cast<std::size_t>(i)];
    (void)q.ctx->checker.builder().build(q.group);
  });

  const std::size_t plans = run.plans.size();
  std::vector<std::string> texts;
  for (const kf::FusionPlan& p : run.plans) texts.push_back(p.to_string());
  out["fusion.plan_is_legal_ns"] = ns_per_call(kRepeatCalls, [&](long i) {
    const std::size_t k = static_cast<std::size_t>(i) % plans;
    (void)run.contexts[k]->checker.plan_is_legal(run.plans[k]);
  });
  out["fusion.plan_parse_ns"] = ns_per_call(kRepeatCalls, [&](long i) {
    const std::size_t k = static_cast<std::size_t>(i) % plans;
    (void)kf::FusionPlan::parse(run.plans[k].num_kernels(), texts[k]);
  });
  out["store.fingerprint_ns"] = ns_per_call(kRepeatCalls, [&](long i) {
    const std::size_t k = static_cast<std::size_t>(i) % plans;
    (void)kf::program_fingerprint(run.contexts[k]->expansion.program);
  });
  if (run.serve != nullptr) {
    const kf::PlanStore& store = *run.serve->store;
    out["store.get_ns"] = ns_per_call(kRepeatCalls, [&](long i) {
      (void)store.get(run.contexts[static_cast<std::size_t>(i) % plans]->key);
    });
  }

  // The model timing decorator: the workload's search, re-run on a fresh
  // context whose projection model counts and times every call.
  const Context probe(run.probe_program, run.probe_device, nullptr, /*timed_model=*/true);
  (void)kf::SearchDriver(probe.objective, run.probe_search).run();
  const auto& model = static_cast<const TimedModel&>(*probe.model);
  out["model.project_calls"] = static_cast<double>(model.calls());
  out["model.project_s"] = model.seconds();
}

}  // namespace e2e
