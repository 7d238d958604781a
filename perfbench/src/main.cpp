// perfbench: the repo's end-to-end benchmark, one workload per process.
//
//   perfbench --workload train_sync|fleet_tcp|serve_zipf --seed N
//             --seconds S --trace 0|1 [--smoke 1] [--out-dir DIR]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// variant and prints every per-layer metric, the layer table that
// reconciles with the wall clock, and writes the spans to --out-dir. The
// last line of stdout is the JSON result; the exit code is 0 only when
// every correctness gate held.

#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --key value pairs, got " + key);
    kv[key.substr(2)] = argv[++i];
  }
  for (const auto& [k, v] : kv) {
    if (k == "workload") opt.workload = v;
    else if (k == "seed") opt.seed = std::stoull(v);
    else if (k == "seconds") opt.seconds = std::stod(v);
    else if (k == "trace") opt.trace = v == "1";
    else if (k == "smoke") opt.smoke = v == "1";
    else if (k == "out-dir") opt.out_dir = v;
    else throw std::invalid_argument("unknown option --" + k);
  }
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

void print_layer_table(const Outcome& out) {
  double attributed = 0.0;
  std::printf("%-40s %12s %8s\n", "layer (timed phase)", "seconds", "share");
  for (const auto& [name, s] : out.layer_rows) {
    attributed += s;
    std::printf("%-40s %12.6f %7.2f%%\n", name.c_str(), s,
                100.0 * s / out.wall_s);
  }
  const double rest = out.wall_s - attributed;
  std::printf("%-40s %12.6f %7.2f%%\n", "unattributed", rest,
              100.0 * rest / out.wall_s);
  std::printf("%-40s %12.6f %7.2f%%\n", "wall clock", out.wall_s, 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Outcome out;
  try {
    opt = parse(argc, argv);
    if (opt.workload == "train_sync") out = run_train_sync(opt);
    else if (opt.workload == "fleet_tcp") out = run_fleet_tcp(opt);
    else if (opt.workload == "serve_zipf") out = run_serve_zipf(opt);
    else throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  // Every metric of the mode, in the declared order; a layer the workload
  // does not exercise reads 0.
  Metrics metrics;
  if (opt.trace) {
    if (out.wall_s > 0.0) {
      double attributed = 0.0;
      for (const auto& row : out.layer_rows) attributed += row.second;
      out.metrics.set("trace.unattributed_share",
                      (out.wall_s - attributed) / out.wall_s, "share");
    }
    std::printf("per-layer metrics (%s; '-' = layer not exercised)\n",
                opt.workload.c_str());
    for (const auto& [name, unit] : per_layer_metrics()) {
      const bool measured = out.metrics.has(name);
      metrics.set(name, out.metrics.get(name), unit);
      if (measured)
        std::printf("  %-28s %14.6g %s\n", name.c_str(), out.metrics.get(name),
                    unit.c_str());
      else
        std::printf("  %-28s %14s %s\n", name.c_str(), "-", unit.c_str());
    }
    print_layer_table(out);
  } else {
    for (const auto& [name, unit] : end_to_end_metrics()) {
      metrics.set(name, out.metrics.get(name), unit);
      std::printf("  %-20s %16.6f %s\n", name.c_str(), out.metrics.get(name),
                  unit.c_str());
    }
  }
  for (const auto& f : out.failures)
    std::printf("GATE FAILED: %s\n", f.c_str());

  std::string passes = "{";
  for (const auto& [name, values] : out.passes) {
    if (passes.size() > 1) passes += ", ";
    passes += quoted(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
      passes += buf;
    }
    passes += "]";
  }
  passes += "}";
  std::string details = "{";
  for (const auto& [name, value] : out.details) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    details += (details.size() > 1 ? ", " : "") + quoted(name) + ": " + buf;
  }
  details += "}";
  std::string failed = "[";
  for (const auto& f : out.failures)
    failed += (failed.size() > 1 ? ", " : "") + quoted(f);
  failed += "]";
  std::printf(
      "{\"provenance\": %s, \"passes\": %s, \"details\": %s, "
      "\"gates_failed\": %s}\n",
      provenance_json(opt, out).c_str(), passes.c_str(), details.c_str(),
      failed.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              metrics.json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
