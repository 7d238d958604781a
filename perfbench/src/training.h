#pragma once

// What the two training workloads share: the generated federation, the
// paper's local meta-update as one LocalStep (optionally traced), and the
// per-federation loss bookkeeping evaluated after each timed phase.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "fed/node.h"
#include "fed/platform.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace perfbench {

/// One generated federation: the model, the edge nodes as generated (also
/// the set G(θ) is evaluated on), and θ⁰.
struct Federation {
  std::shared_ptr<fedml::nn::Module> model;
  std::vector<fedml::fed::EdgeNode> nodes;
  fedml::nn::ParamList theta0;
};

/// Span names the local step records in a traced pass.
inline constexpr const char* kResample = "data.resample";
inline constexpr const char* kMetaStep = "core.meta_step";
inline constexpr const char* kOptimizer = "nn.optimizer_step";

/// One SGD optimizer per node id, created up front so the parallel local
/// phase only reads the map.
using NodeOptimizers =
    std::unordered_map<std::size_t, std::unique_ptr<fedml::nn::Optimizer>>;
NodeOptimizers make_node_optimizers(
    const std::vector<fedml::fed::EdgeNode>& nodes, double beta);

/// The local step of `core::train_fedml`: resample the K-shot support,
/// take the second-order meta-gradient, apply the optimizer. With a
/// tracer, each of the three calls is recorded as a span on the calling
/// thread's track, with arg "round" = (iteration − 1) / local_steps.
fedml::fed::Platform::LocalStep make_local_step(
    const fedml::nn::Module& model, const NodeOptimizers& optimizers,
    double alpha, std::size_t local_steps, fedml::obs::Tracer* tracer);

/// Every parameter value finite.
bool all_finite(const fedml::nn::ParamList& params);

/// Seed of the f-th federation of a run. A run trains several federations
/// drawn from its seed, so its loss metrics average over them instead of
/// hanging on the difficulty of one draw.
std::uint64_t federation_seed(std::uint64_t seed, std::size_t f);

/// What a training workload keeps per federation across its passes.
struct FederationResult {
  bool seen = false;
  fedml::nn::ParamList theta;    ///< final θ of the first pass
  double g0 = 0.0;               ///< G(θ⁰)
  double final_loss = 0.0;       ///< G(θ) after the last round
  std::ptrdiff_t target_round = -1;  ///< first round with G ≤ target, or -1
  std::vector<double> time_to_target_s;  ///< one per pass
  bool identical = true;         ///< later passes ended on the same θ
};

/// Fold one pass into `r`. On the first pass, evaluates G(θ⁰), G over the
/// round snapshots up to the first at or below target_share·G(θ⁰), and G
/// of the final θ; on later passes, checks the final θ is bit-identical.
/// `hook_offsets` are the pass's aggregation times from its timed start.
void record_pass(FederationResult& r, const fedml::nn::Module& model,
                 const std::vector<fedml::fed::EdgeNode>& nodes,
                 const fedml::nn::ParamList& theta0,
                 const std::vector<fedml::nn::ParamList>& snaps,
                 const fedml::nn::ParamList& theta_final,
                 const std::vector<double>& hook_offsets, double alpha,
                 double target_share);

/// The loss metrics and loss gates over every federation a run trained.
struct LossSummary {
  double final_loss = 0.0;        ///< mean G(θ_final) over federations
  double time_to_target_s = 0.0;  ///< mean over federations of the median pass
  bool identical = true, finite = true, reached = true, below_ceiling = true;
};
LossSummary summarize(const std::vector<FederationResult>& feds,
                      double ceiling_share);

}  // namespace perfbench
