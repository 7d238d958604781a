#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "kern/kern.h"
#include "obs/export.h"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Metrics::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += fedml::obs::detail::json_escape(s);
  return out + "\"";
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i > 0) out += ", ";
    out += quoted(order_[i]) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + quoted(unit) + "}";
  }
  return out + "}";
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},          {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"time_to_target_s", "s"},
      {"final_loss", "loss"},    {"ok_share", "share"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      // train_sync (core/nn/data also on fleet_tcp's node side)
      {"core.meta_step_ms", "ms"},
      {"nn.optimizer_step_ms", "ms"},
      {"data.resample_ms", "ms"},
      {"fed.worker_busy_share", "share"},
      {"fed.round_unattributed_ms", "ms"},
      // fleet_tcp
      {"net.exchange_ms", "ms"},
      {"net.upload_to_merge_ms", "ms"},
      {"net.merge_to_adopt_ms", "ms"},
      {"net.bytes_up_per_round", "bytes"},
      {"net.bytes_down_per_round", "bytes"},
      {"net.uploads_per_round", "count"},
      {"net.nodes_shed", "count"},
      {"net.reconnects", "count"},
      // serve_zipf
      {"serve.queue_ms", "ms"},
      {"serve.adapt_ms", "ms"},
      {"serve.predict_ms", "ms"},
      {"serve.hit_share", "share"},
      {"serve.evictions_per_1k", "count"},
      {"serve.shed", "count"},
      {"rec.request_build_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.latency_samples", "count"},
      // set-up breakdown
      {"setup.data_s", "s"},
      {"setup.connect_s", "s"},
      {"setup.meta_init_s", "s"},
      // reconciliation of the traced run
      {"trace.unattributed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return m;
}

void run_passes(double seconds, std::size_t min_passes,
                const std::function<bool(std::size_t)>& pass) {
  const double start = now_s();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_passes && now_s() - start >= seconds) break;
    if (!pass(i)) break;
    // Hand the pass's freed heap back, so peak RSS is one pass's high-water
    // mark rather than the fragmentation left by however many ran before.
    malloc_trim(0);
  }
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

bool cpu_flag(const std::string& flag) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      std::istringstream words(line.substr(line.find(':') + 1));
      std::string w;
      while (words >> w)
        if (w == flag) return true;
      return false;
    }
  }
  return false;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

}  // namespace

std::string provenance_json(const Options& opt, const Outcome& out) {
  const char* mode =
      fedml::kern::mode() == fedml::kern::Mode::kFast ? "fast" : "compat";
  std::string s = "{";
  s += "\"cpu_model\": " + quoted(cpu_model());
  s += ", \"avx512f\": " + std::string(cpu_flag("avx512f") ? "true" : "false");
  s += ", \"nproc\": " + std::to_string(online_cpus());
  s += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  s += ", \"compiler\": " + quoted(PERFBENCH_CXX_ID);
  s += ", \"FEDML_KERN_NATIVE\": " + std::to_string(PERFBENCH_KERN_NATIVE);
  s += ", \"kern_mode\": " + quoted(mode);
  s += ", \"workload\": " + quoted(opt.workload);
  s += ", \"seed\": " + std::to_string(opt.seed);
  s += ", \"seconds\": " + json_number(opt.seconds);
  s += ", \"trace\": " + std::string(opt.trace ? "true" : "false");
  s += ", \"smoke\": " + std::string(opt.smoke ? "true" : "false");
  s += ", \"config\": {";
  for (std::size_t i = 0; i < out.config.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(out.config[i].first) + ": " +
         quoted(out.config[i].second);
  }
  return s + "}}";
}

// ---------------------------------------------------------------- tracing --

std::unique_ptr<fedml::obs::Tracer> make_tracer() {
  auto tracer = std::make_unique<fedml::obs::Tracer>();
  tracer->set_clock(std::make_shared<fedml::obs::FunctionClock>(now_s));
  return tracer;
}

double span_arg(const fedml::obs::SpanRecord& s, const std::string& key) {
  for (const auto& [k, v] : s.args)
    if (k == key) return v;
  throw std::logic_error("span " + s.name + " has no arg " + key);
}

void write_trace(const Options& opt,
                 const std::vector<fedml::obs::SpanRecord>& spans) {
  std::filesystem::create_directories(opt.out_dir);
  fedml::obs::write_chrome_trace_file(
      opt.out_dir + "/" + opt.workload + ".trace.json", spans);
}

}  // namespace perfbench
