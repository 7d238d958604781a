#include "training.h"

#include <cmath>

#include "core/algorithms.h"
#include "core/meta.h"
#include "nn/params.h"
#include "util/rng.h"

namespace perfbench {

using namespace fedml;

NodeOptimizers make_node_optimizers(const std::vector<fed::EdgeNode>& nodes,
                                    double beta) {
  NodeOptimizers out;
  for (const auto& n : nodes)
    out.emplace(n.id, nn::make_optimizer(nn::OptimizerKind::kSgd, beta));
  return out;
}

fed::Platform::LocalStep make_local_step(const nn::Module& model,
                                         const NodeOptimizers& optimizers,
                                         double alpha, std::size_t local_steps,
                                         obs::Tracer* tracer) {
  if (tracer == nullptr) {
    return [&model, &optimizers, alpha](fed::EdgeNode& node, std::size_t) {
      node.resample_support();
      const nn::ParamList g = core::meta_gradient(
          model, node.params, node.data.train, node.data.test, alpha);
      node.params = optimizers.at(node.id)->step(node.params, g);
    };
  }
  return [&model, &optimizers, alpha, local_steps, tracer](
             fed::EdgeNode& node, std::size_t iteration) {
    const auto round = static_cast<double>((iteration - 1) / local_steps);
    obs::TraceSpan resample = tracer->span(kResample);
    resample.arg("round", round);
    node.resample_support();
    resample.end();
    obs::TraceSpan meta = tracer->span(kMetaStep);
    meta.arg("round", round);
    const nn::ParamList g = core::meta_gradient(
        model, node.params, node.data.train, node.data.test, alpha);
    meta.end();
    obs::TraceSpan optimizer = tracer->span(kOptimizer);
    optimizer.arg("round", round);
    node.params = optimizers.at(node.id)->step(node.params, g);
  };
}

bool all_finite(const nn::ParamList& params) {
  for (const auto& p : params) {
    const tensor::Tensor& v = p.value();
    const double* d = v.data();
    for (std::size_t i = 0; i < v.size(); ++i)
      if (!std::isfinite(d[i])) return false;
  }
  return true;
}

std::uint64_t federation_seed(std::uint64_t seed, std::size_t f) {
  return util::Rng(seed).split(f).engine()();
}

void record_pass(FederationResult& r, const nn::Module& model,
                 const std::vector<fed::EdgeNode>& nodes,
                 const nn::ParamList& theta0,
                 const std::vector<nn::ParamList>& snaps,
                 const nn::ParamList& theta_final,
                 const std::vector<double>& hook_offsets, double alpha,
                 double target_share) {
  if (!r.seen) {
    r.seen = true;
    r.theta = nn::clone_leaves(theta_final, false);
    r.g0 = core::global_meta_loss(model, theta0, nodes, alpha);
    for (std::size_t i = 0; i < snaps.size() && r.target_round < 0; ++i)
      if (core::global_meta_loss(model, snaps[i], nodes, alpha) <=
          target_share * r.g0)
        r.target_round = static_cast<std::ptrdiff_t>(i);
    r.final_loss = core::global_meta_loss(model, theta_final, nodes, alpha);
  } else if (nn::param_distance(theta_final, r.theta) != 0.0) {
    r.identical = false;
  }
  if (r.target_round >= 0)
    r.time_to_target_s.push_back(
        hook_offsets.at(static_cast<std::size_t>(r.target_round)));
}

LossSummary summarize(const std::vector<FederationResult>& feds,
                      double ceiling_share) {
  LossSummary s;
  std::size_t n = 0;
  for (const FederationResult& r : feds) {
    if (!r.seen) continue;
    ++n;
    s.final_loss += r.final_loss;
    s.time_to_target_s += median(r.time_to_target_s);
    s.identical &= r.identical;
    s.finite &= all_finite(r.theta);
    s.reached &= r.target_round >= 0;
    s.below_ceiling &= r.final_loss <= ceiling_share * r.g0;
  }
  if (n > 0) {
    s.final_loss /= static_cast<double>(n);
    s.time_to_target_s /= static_cast<double>(n);
  }
  return s;
}

}  // namespace perfbench
