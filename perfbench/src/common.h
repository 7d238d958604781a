#pragma once

// Shared pieces of the end-to-end benchmark: options, the pass loop, timing
// and statistics helpers, the tracer of the traced run, host/build
// provenance, and the one-line JSON result every run ends with.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide epoch (steady clock).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: the benchmark's own test runs every workload this way.
  bool smoke = false;
  /// Directory for the span dump of a traced run.
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Median, and nearest-rank percentile p ∈ [0, 100]; 0 when empty.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

/// ru_maxrss of this process in MB.
double peak_rss_mb();

/// Ordered name → (value, unit) map of one run's metrics.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  /// JSON object body: {"name": {"value": v, "unit": "u"}, ...}.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The end-to-end metrics every workload reports (name, unit).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// The per-layer metrics every traced run reports (name, unit). A layer a
/// workload does not exercise reads 0 there and "-" in the printed table.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  ///< failed correctness gates, by name
  std::size_t attempted = 0;          ///< units of work attempted
  std::size_t failed = 0;             ///< units that failed
  Metrics metrics;                    ///< the metrics of this mode
  /// Per-pass values of every metric that has one, kept for the run log.
  std::map<std::string, std::vector<double>> passes;
  /// Workload config, threads and clients (provenance).
  std::vector<std::pair<std::string, std::string>> config;
  /// Counts behind the correctness gates, printed with the provenance.
  std::vector<std::pair<std::string, double>> details;
  /// Traced run: layer rows (seconds) that, with `unattributed`, sum to
  /// `wall_s`.
  std::vector<std::pair<std::string, double>> layer_rows;
  double wall_s = 0.0;

  void gate(bool ok, const std::string& name) {
    if (!ok) {
      correct = false;
      failures.push_back(name);
    }
  }
};

/// Runs passes until `seconds` have elapsed and at least `min_passes` ran.
/// `pass(i)` returns false to stop early (a failed gate).
void run_passes(double seconds, std::size_t min_passes,
                const std::function<bool(std::size_t)>& pass);

/// Host, build and kernel-mode provenance as a JSON object.
std::string provenance_json(const Options& opt, const Outcome& out);

/// A JSON string literal: `s` escaped and quoted.
std::string quoted(const std::string& s);

// ---------------------------------------------------------------- tracing --

/// A tracer for one traced pass. Spans are kept in memory by obs::Tracer;
/// its clock is now_s(), so span times compare with the pass's own
/// timestamps. Each recording thread gets its own track.
std::unique_ptr<fedml::obs::Tracer> make_tracer();

/// The numeric arg `key` of a span (the round or request it belongs to).
double span_arg(const fedml::obs::SpanRecord& s, const std::string& key);

/// Write spans as Chrome trace JSON (open in Perfetto) to
/// `<out_dir>/<workload>.trace.json`, creating the directory when missing.
void write_trace(const Options& opt,
                 const std::vector<fedml::obs::SpanRecord>& spans);

// -------------------------------------------------------------- workloads --

Outcome run_train_sync(const Options& opt);
Outcome run_fleet_tcp(const Options& opt);
Outcome run_serve_zipf(const Options& opt);

}  // namespace perfbench
