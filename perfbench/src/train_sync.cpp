// train_sync: the paper's Algorithm 1 in process on fed::Platform over the
// fig2b federation (Synthetic(0.5,0.5), 50 nodes of which 80% are sources,
// K=5, softmax model, T0=5). Nearly all the work is the second-order
// meta-step over many small nodes; there is no wire and no cache.
//
// A pass is one set-up from a federation seed followed by a fixed
// trajectory of `rounds` aggregation rounds. Passes cycle over
// `federations` federations drawn from the run seed.

#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "common.h"
#include "data/synthetic.h"
#include "nn/params.h"
#include "training.h"
#include "util/rng.h"

namespace perfbench {

using namespace fedml;

namespace {

struct Config {
  std::size_t federations = 32;  ///< also the fewest passes a run makes
  std::size_t nodes = 50;
  double source_share = 0.8;
  std::size_t k = 5;
  double alpha = 0.01;
  double beta = 0.01;
  std::size_t local_steps = 5;  ///< T0
  std::size_t rounds = 40;      ///< aggregation rounds per pass
  /// Half of a 4-vCPU host: each round waits for its slowest worker, and
  /// with a worker on every vCPU, contention on any one of them (from
  /// other tenants) slowed whole runs by up to 35%; with 2 workers the
  /// run-to-run spread halved.
  std::size_t threads = 2;
  /// time_to_target_s target and final_loss ceiling, as shares of G(θ⁰):
  /// fixed per workload, so every federation has a reachable target.
  double target_share = 0.7;
  double ceiling_share = 0.8;
};

Federation make_federation(const Config& cfg, std::uint64_t seed) {
  data::SyntheticConfig dcfg;
  dcfg.alpha = 0.5;
  dcfg.beta = 0.5;
  dcfg.num_nodes = cfg.nodes;
  dcfg.seed = seed;
  const data::FederatedDataset fd = data::make_synthetic(dcfg);
  Federation f;
  f.model = nn::make_softmax_regression(dcfg.input_dim, dcfg.num_classes);
  util::Rng rng(seed + 1);
  const auto split =
      data::split_source_target(fd.num_nodes(), cfg.source_share, rng);
  f.nodes = fed::make_edge_nodes(fd, split.source_ids, cfg.k, rng);
  util::Rng init((seed + 1) ^ 0xabcdef);
  f.theta0 = f.model->init_params(init);
  return f;
}

fed::Platform::Config platform_config(const Config& cfg, std::size_t rounds) {
  fed::Platform::Config pc;
  pc.total_iterations = rounds * cfg.local_steps;
  pc.local_steps = cfg.local_steps;
  pc.threads = cfg.threads;
  return pc;
}

/// Layer numbers folded from the traced passes.
struct Traced {
  std::vector<double> resample_ms, meta_ms, optimizer_ms;
  std::vector<double> round_unattributed_ms;
  double busy_s = 0.0;  ///< all step time, every worker
  /// Critical path: the busiest worker's step time per round, by span kind.
  std::array<double, 3> critical_s{0.0, 0.0, 0.0};
  double timed_s = 0.0;
  std::vector<double> rate;
};

/// Index of a local-step span name in Traced::critical_s.
std::size_t step_kind(const std::string& name) {
  return name == kResample ? 0 : name == kMetaStep ? 1 : 2;
}

void fold_spans(const std::vector<obs::SpanRecord>& spans,
                const std::vector<double>& round_wall_s, Traced& t) {
  // per round → per track → seconds by span kind
  std::vector<std::vector<std::array<double, 3>>> by_round(round_wall_s.size());
  for (const obs::SpanRecord& s : spans) {
    const double d = s.end_s - s.start_s;
    const std::size_t kind = step_kind(s.name);
    t.busy_s += d;
    (kind == 0 ? t.resample_ms : kind == 1 ? t.meta_ms : t.optimizer_ms)
        .push_back(d * 1e3);
    auto& tracks =
        by_round.at(static_cast<std::size_t>(span_arg(s, "round")));
    if (tracks.size() <= s.track) tracks.resize(s.track + 1, {0.0, 0.0, 0.0});
    tracks[s.track][kind] += d;
  }
  for (std::size_t r = 0; r < round_wall_s.size(); ++r) {
    std::array<double, 3> busiest{0.0, 0.0, 0.0};
    double busiest_s = 0.0;
    for (const auto& track : by_round[r]) {
      if (track[0] + track[1] + track[2] > busiest_s) {
        busiest = track;
        busiest_s = track[0] + track[1] + track[2];
      }
    }
    for (std::size_t k = 0; k < 3; ++k) t.critical_s[k] += busiest[k];
    t.round_unattributed_ms.push_back((round_wall_s[r] - busiest_s) * 1e3);
  }
}

}  // namespace

Outcome run_train_sync(const Options& opt) {
  Config cfg;
  cfg.threads = std::min<std::size_t>(
      cfg.threads, std::max(1u, std::thread::hardware_concurrency()));
  if (opt.smoke) cfg.federations = 2;

  Outcome out;
  out.config = {
      {"federation", "Synthetic(0.5,0.5)"},
      {"federations_per_run", std::to_string(cfg.federations)},
      {"nodes", std::to_string(cfg.nodes)},
      {"source_share", std::to_string(cfg.source_share)},
      {"k", std::to_string(cfg.k)},
      {"model", "softmax 60x10"},
      {"alpha", std::to_string(cfg.alpha)},
      {"beta", std::to_string(cfg.beta)},
      {"local_steps", std::to_string(cfg.local_steps)},
      {"rounds_per_pass", std::to_string(cfg.rounds)},
      {"threads", std::to_string(cfg.threads)},
      {"target_share_of_G0", std::to_string(cfg.target_share)},
      {"ceiling_share_of_G0", std::to_string(cfg.ceiling_share)},
  };

  std::vector<obs::SpanRecord> first_traced_spans;
  Traced traced;
  std::vector<FederationResult> feds(cfg.federations);
  std::vector<double> setup_s, data_s, round_s, rate;
  std::size_t merged = 0, attempted = 0;

  run_passes(opt.seconds, cfg.federations, [&](std::size_t pass) {
    const bool traced_pass = opt.trace && pass % 2 == 0;
    FederationResult& result = feds[pass % cfg.federations];
    // ---- set-up: data, model, platform, warm-up on a copy ----
    const double s0 = now_s();
    const Federation f = make_federation(
        cfg, federation_seed(opt.seed, pass % cfg.federations));
    const double s1 = now_s();
    const NodeOptimizers optimizers = make_node_optimizers(f.nodes, cfg.beta);
    fed::Platform platform(f.nodes, platform_config(cfg, cfg.rounds));
    platform.broadcast(f.theta0);
    {
      fed::Platform warm(f.nodes, platform_config(cfg, 1));
      warm.broadcast(f.theta0);
      const NodeOptimizers warm_opt = make_node_optimizers(f.nodes, cfg.beta);
      warm.run(make_local_step(*f.model, warm_opt, cfg.alpha, cfg.local_steps,
                               nullptr));
    }
    setup_s.push_back(now_s() - s0);
    data_s.push_back(s1 - s0);

    // ---- timed trajectory ----
    const std::unique_ptr<obs::Tracer> tracer =
        traced_pass ? make_tracer() : nullptr;
    const auto step = make_local_step(*f.model, optimizers, cfg.alpha,
                                      cfg.local_steps, tracer.get());
    std::vector<double> hooks;
    std::vector<nn::ParamList> snaps;
    hooks.reserve(cfg.rounds);
    snaps.reserve(cfg.rounds);
    const double t0 = now_s();
    const fed::CommTotals totals =
        platform.run(step, [&](std::size_t, const nn::ParamList& theta) {
          hooks.push_back(now_s());
          snaps.push_back(nn::clone_leaves(theta, false));
        });
    const double t1 = now_s();

    // ---- bookkeeping (outside the timing) ----
    const std::size_t node_rounds = f.nodes.size() * cfg.rounds;
    attempted += node_rounds;
    merged += f.nodes.size() * totals.aggregations - totals.uploads_dropped -
              totals.node_rounds_idle;
    std::vector<double> offsets, walls;
    double prev = t0;
    for (const double h : hooks) {
      offsets.push_back(h - t0);
      walls.push_back(h - prev);
      prev = h;
    }
    const double r =
        static_cast<double>(node_rounds * cfg.local_steps) / (t1 - t0);
    if (traced_pass) {
      const std::vector<obs::SpanRecord> spans = tracer->snapshot();
      fold_spans(spans, walls, traced);
      traced.timed_s += t1 - t0;
      traced.rate.push_back(r);
      if (first_traced_spans.empty()) first_traced_spans = spans;
    } else {
      round_s.insert(round_s.end(), walls.begin(), walls.end());
      rate.push_back(r);
    }
    record_pass(result, *f.model, f.nodes, f.theta0, snaps,
                platform.global_params(), offsets, cfg.alpha,
                cfg.target_share);
    return result.identical;
  });

  // ---- correctness gates ----
  const LossSummary loss = summarize(feds, cfg.ceiling_share);
  out.gate(loss.identical,
           "every pass of a federation ends on a bit-identical theta");
  out.gate(loss.finite, "every parameter is finite");
  out.gate(loss.below_ceiling, "final_loss at or below its ceiling");
  out.gate(loss.reached, "G(theta) reaches the target loss");
  out.attempted = attempted;
  out.failed = attempted - merged;

  Metrics& m = out.metrics;
  if (!opt.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("throughput_per_s", median(rate), "1/s");
    m.set("latency_p50_ms", median(round_s) * 1e3, "ms");
    m.set("time_to_target_s", loss.time_to_target_s, "s");
    m.set("final_loss", loss.final_loss, "loss");
    m.set("ok_share",
          static_cast<double>(merged) / static_cast<double>(attempted),
          "share");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    m.set("core.meta_step_ms", median(traced.meta_ms), "ms");
    m.set("nn.optimizer_step_ms", median(traced.optimizer_ms), "ms");
    m.set("data.resample_ms", median(traced.resample_ms), "ms");
    m.set("fed.worker_busy_share",
          traced.busy_s / (static_cast<double>(cfg.threads) * traced.timed_s),
          "share");
    m.set("fed.round_unattributed_ms", median(traced.round_unattributed_ms),
          "ms");
    m.set("setup.data_s", median(data_s), "s");
    const double untraced = median(rate);
    m.set("trace.overhead_share", (untraced - median(traced.rate)) / untraced,
          "share");
    out.wall_s = traced.timed_s;
    out.layer_rows = {
        {"data.resample (critical path)", traced.critical_s[0]},
        {"core.meta_step (critical path)", traced.critical_s[1]},
        {"nn.optimizer_step (critical path)", traced.critical_s[2]},
    };
    write_trace(opt, first_traced_spans);
  }
  out.passes["setup_s"] = setup_s;
  out.passes["throughput_per_s"] = rate;
  return out;
}

}  // namespace perfbench
