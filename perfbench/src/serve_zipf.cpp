// serve_zipf: the recommendation workload served closed loop. Set-up trains
// the meta-init (rec::train_meta_init) and publishes it once; then client
// threads walk a user-id sequence drawn in advance from Zipf(0.9), build
// each request with rec::make_user_request, and wait for each reply before
// sending the next. Nearly all the work is the serve layer: admission
// queue, cache hits next to misses that adapt (first-order core::adapt),
// put and evict, and registry snapshots.
//
// A pass is one set-up from the seed followed by the whole sequence against
// a fresh server, so every pass serves the same requests.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common.h"
#include "rec/config.h"
#include "rec/workload.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

using namespace fedml;

namespace {

struct Config {
  rec::Config rec;
  std::size_t clients = 3;  ///< closed-loop client threads
  std::size_t workers = 1;  ///< server worker threads
  std::size_t requests = 6000;       ///< pre-drawn sequence length
  std::size_t warmup_requests = 32;  ///< untimed, on a throwaway server
};

/// What one request produced, in sequence order.
struct Served {
  serve::AdaptResponse response;
  double build_start = 0.0, submit = 0.0, done = 0.0;
  std::uint32_t client = 0;
};

std::vector<std::uint64_t> draw_sequence(const Config& cfg,
                                         std::uint64_t seed) {
  // User ids as bench/rec_serving draws them: Zipf ranks over the whole
  // user-id space.
  util::Rng rng = util::Rng(seed).split(0x5e9e);
  const util::ZipfSampler zipf(cfg.rec.users, cfg.rec.traffic_zipf);
  std::vector<std::uint64_t> seq(cfg.requests);
  for (auto& uid : seq) uid = zipf.sample(rng);
  return seq;
}

/// Serve `seq` closed loop from `clients` threads; fills `served` by index.
/// A client polls for its reply instead of blocking on it: with more
/// clients than workers the queue never drains and no thread sleeps, so no
/// request waits for a sleeping thread to be woken. On a virtualised host
/// such a wake-up can cost more than the request and varies with the load
/// of other tenants.
void serve_closed_loop(const Config& cfg, const data::RecSys& rec,
                       serve::AdaptationServer& server,
                       const std::vector<std::uint64_t>& seq,
                       std::size_t clients, std::vector<Served>& served) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= seq.size()) break;
          Served& s = served[i];
          s.client = static_cast<std::uint32_t>(c);
          s.build_start = now_s();
          serve::AdaptRequest req =
              rec::make_user_request(cfg.rec, rec, seq[i]);
          s.submit = now_s();
          std::future<serve::AdaptResponse> reply =
              server.submit(std::move(req));
          while (reply.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready)
            std::this_thread::yield();
          s.response = reply.get();
          s.done = now_s();
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

Outcome run_serve_zipf(const Options& opt) {
  Config cfg;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  // Client threads plus server workers stay within nproc, so the one
  // rec::Config departure is the worker count: the shipped default (one
  // worker per hardware thread) leaves no core for the clients.
  cfg.clients = std::clamp<std::size_t>(nproc - cfg.workers, 1, cfg.clients);
  cfg.rec.serve_threads = cfg.workers;
  cfg.rec.seed = opt.seed;
  if (opt.smoke) {
    cfg.requests = 600;
    cfg.rec.iterations = 20;
  }
  cfg.rec.validate();

  Outcome out;
  {
    std::ostringstream dump;
    cfg.rec.dump(dump);
    std::string line;
    std::istringstream lines(dump.str());
    while (std::getline(lines, line)) {
      const auto eq = line.find('=');
      if (line.rfind("# ", 0) == 0 && eq != std::string::npos)
        out.config.emplace_back(line.substr(2, eq - 2), line.substr(eq + 1));
    }
  }
  out.config.emplace_back("clients", std::to_string(cfg.clients));
  out.config.emplace_back("loop", "closed");
  out.config.emplace_back("requests_per_pass", std::to_string(cfg.requests));
  out.config.emplace_back("time_to_target",
                          "seconds to serve the whole pre-drawn sequence");

  // The per-request records are the spans; the first traced pass's are
  // written out when the run ends, one track per client.
  obs::Tracer dump;
  std::vector<double> setup_s, data_s, meta_init_s, rate, latency_s, ttt;
  std::vector<double> traced_rate, queue_ms, adapt_ms, predict_ms, build_ms,
      traced_latency_ms;
  double traced_wall_s = 0.0, rows_build = 0.0, rows_queue = 0.0,
         rows_adapt = 0.0, rows_predict = 0.0;
  std::uint64_t traced_hits = 0, traced_served = 0, traced_evictions = 0;
  std::optional<double> first_loss;
  std::size_t attempted = 0, failed = 0, shed = 0;
  bool versions_ok = true, losses_repeat = true, hit_equals_miss = true,
       saw_hit_and_miss = false;

  const std::vector<std::uint64_t> seq = draw_sequence(cfg, opt.seed);

  run_passes(opt.seconds, 3, [&](std::size_t pass) {
    const bool traced_pass = opt.trace && pass % 2 == 0;
    // ---- set-up: generator, model, meta-init, publish, server, warm-up ----
    const double s0 = now_s();
    const data::RecSys rec(cfg.rec.dataset());
    const std::shared_ptr<nn::Module> model = rec::make_model(cfg.rec);
    const double s1 = now_s();
    const core::TrainResult meta = rec::train_meta_init(cfg.rec, rec, *model);
    const double s2 = now_s();
    serve::ModelRegistry registry(model, cfg.rec.registry_stripes);
    const std::uint64_t version = registry.publish(meta.theta);
    {
      serve::AdaptationServer warm(registry, cfg.rec.server());
      std::vector<Served> warm_served(cfg.warmup_requests);
      const std::vector<std::uint64_t> warm_seq(
          seq.begin(), seq.begin() + cfg.warmup_requests);
      serve_closed_loop(cfg, rec, warm, warm_seq, cfg.clients, warm_served);
    }
    serve::AdaptationServer server(registry, cfg.rec.server());
    std::vector<Served> served(seq.size());
    const double t0 = now_s();
    setup_s.push_back(t0 - s0);
    data_s.push_back(s1 - s0);
    meta_init_s.push_back(s2 - s1);

    // ---- timed closed loop ----
    serve_closed_loop(cfg, rec, server, seq, cfg.clients, served);
    const double t1 = now_s();

    // ---- per-pass checks and numbers (outside the timing) ----
    attempted += seq.size();
    double loss_sum = 0.0;
    // user → (eval_loss, bit 1: served a miss, bit 2: served a hit)
    std::unordered_map<std::uint64_t, std::pair<double, int>> per_user;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const serve::AdaptResponse& r = served[i].response;
      if (r.status != serve::RequestStatus::kServed) {
        ++shed;
        continue;
      }
      ++ok;
      versions_ok &= r.model_version == version;
      loss_sum += r.eval_loss;
      auto [it, fresh] =
          per_user.emplace(seq[i], std::make_pair(r.eval_loss, 0));
      if (!fresh && it->second.first != r.eval_loss) hit_equals_miss = false;
      it->second.second |= r.cache_hit ? 2 : 1;
    }
    failed += seq.size() - ok;
    for (const auto& [uid, v] : per_user) saw_hit_and_miss |= v.second == 3;
    const double loss = loss_sum / static_cast<double>(seq.size());
    if (!first_loss) first_loss = loss;
    losses_repeat &= loss == *first_loss;

    const double r = static_cast<double>(seq.size()) / (t1 - t0);
    if (traced_pass) {
      traced_rate.push_back(r);
      traced_wall_s += t1 - t0;
      const auto stats = server.cache_stats();
      traced_evictions += stats.evictions;
      const bool first_traced = dump.size() == 0;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        const Served& s = served[i];
        const serve::AdaptResponse& resp = s.response;
        const double predict = resp.total_s - resp.queue_s - resp.adapt_s;
        build_ms.push_back((s.submit - s.build_start) * 1e3);
        queue_ms.push_back(resp.queue_s * 1e3);
        if (!resp.cache_hit) adapt_ms.push_back(resp.adapt_s * 1e3);
        predict_ms.push_back(predict * 1e3);
        traced_latency_ms.push_back((s.done - s.submit) * 1e3);
        rows_build += s.submit - s.build_start;
        rows_queue += resp.queue_s;
        rows_adapt += resp.adapt_s;
        rows_predict += predict;
        traced_hits += resp.cache_hit ? 1 : 0;
        traced_served += resp.status == serve::RequestStatus::kServed ? 1 : 0;
        if (first_traced) {
          // Server phases are laid out from the submit instant, in order.
          const double q = s.submit + resp.queue_s;
          const double a = q + resp.adapt_s;
          for (const auto& [name, from, to] :
               {std::tuple{"rec.request_build", s.build_start, s.submit},
                std::tuple{"serve.round_trip", s.submit, s.done},
                std::tuple{"serve.queue", s.submit, q},
                std::tuple{"serve.adapt", q, a},
                std::tuple{"serve.predict", a, a + predict}}) {
            obs::SpanRecord span;
            span.name = name;
            span.start_s = from;
            span.end_s = to;
            span.track = s.client;
            span.args = {{"request", static_cast<double>(i)}};
            dump.record(std::move(span));
          }
        }
      }
    } else {
      rate.push_back(r);
      ttt.push_back(t1 - t0);
      for (const Served& s : served) latency_s.push_back(s.done - s.submit);
    }
    return versions_ok && losses_repeat && hit_equals_miss;
  });

  out.gate(versions_ok, "every response carries the published version");
  out.gate(hit_equals_miss,
           "hits and misses of a user return bit-equal eval_loss");
  out.gate(saw_hit_and_miss, "some user was served both a hit and a miss");
  out.gate(losses_repeat, "every pass repeats final_loss exactly");
  out.gate(shed == 0, "no request is shed");
  out.attempted = attempted;
  out.failed = failed;

  Metrics& m = out.metrics;
  if (!opt.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("throughput_per_s", median(rate), "1/s");
    m.set("latency_p50_ms", median(latency_s) * 1e3, "ms");
    m.set("time_to_target_s", median(ttt), "s");
    m.set("final_loss", first_loss.value_or(0.0), "loss");
    m.set("ok_share",
          static_cast<double>(attempted - failed) /
              static_cast<double>(attempted),
          "share");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double served_n = static_cast<double>(traced_served);
    m.set("serve.queue_ms", median(queue_ms), "ms");
    m.set("serve.adapt_ms", median(adapt_ms), "ms");
    m.set("serve.predict_ms", median(predict_ms), "ms");
    m.set("serve.hit_share", static_cast<double>(traced_hits) / served_n,
          "share");
    m.set("serve.evictions_per_1k",
          static_cast<double>(traced_evictions) / served_n * 1e3, "count");
    m.set("serve.shed", static_cast<double>(shed), "count");
    m.set("rec.request_build_ms", median(build_ms), "ms");
    m.set("serve.latency_p99_ms", percentile(traced_latency_ms, 99.0), "ms");
    m.set("serve.latency_samples",
          static_cast<double>(traced_latency_ms.size()), "count");
    m.set("setup.data_s", median(data_s), "s");
    m.set("setup.meta_init_s", median(meta_init_s), "s");
    // Client-lane view: each client's wall clock is request builds plus
    // server time (queue + adapt + predict) plus the rest; rows are means
    // over the client lanes.
    const double lanes = static_cast<double>(cfg.clients);
    out.wall_s = traced_wall_s;
    out.layer_rows = {
        {"rec.request_build (per client)", rows_build / lanes},
        {"serve.queue (per client)", rows_queue / lanes},
        {"serve.adapt (per client)", rows_adapt / lanes},
        {"serve.predict (per client)", rows_predict / lanes},
    };
    const double untraced = median(rate);
    m.set("trace.overhead_share", (untraced - median(traced_rate)) / untraced,
          "share");
    write_trace(opt, dump.snapshot());
  }
  out.passes["setup_s"] = setup_s;
  out.passes["throughput_per_s"] = rate;
  out.passes["time_to_target_s"] = ttt;
  return out;
}

}  // namespace perfbench
