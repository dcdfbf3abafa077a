// Benchmark workloads: runs one workload in-process against the AutoMDT
// libraries and prints one JSON object of raw measurements on stdout.
//
//   perfbench_workloads --workload W --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--tiny]
//
// Everything is measured from outside the program: this binary times its own
// calls into public APIs and reads counters the program already exports
// (TransferStats, telemetry_snapshot(), the serve plane's kStatsSnapshot).
// run.py turns the raw figures into the benchmark's metrics (percentiles,
// rates, ratios) so that arithmetic lives in one tested place.
//
// --trace 1 sets TelemetryOptions::sample_every = 1 with a TraceExporter
// attached, records spans around every public call it makes, runs the
// per-layer microbenchmarks after the workload, and writes the Chrome trace to
// --trace-out. End-to-end figures always come from a --trace 0 invocation.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/logging.hpp"
#include "common/mpmc_ring.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/automdt.hpp"
#include "net/frame.hpp"
#include "net/uring.hpp"
#include "optimizers/automdt_controller.hpp"
#include "probe/explorer.hpp"
#include "probe/scenario_factory.hpp"
#include "serve/session_client.hpp"
#include "serve/session_server.hpp"
#include "sim/simulator_env.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_export.hpp"
#include "testbed/dataset.hpp"
#include "transfer/dtn_pair.hpp"
#include "transfer/engine.hpp"
#include "transfer/token_bucket.hpp"

using namespace automdt;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int os_threads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Minimal JSON emitter: flat objects of numbers, strings, bools and number
// arrays, which is all this binary reports.

class Json {
 public:
  Json& num(const std::string& key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"' << telemetry::json_escape(v) << '"';
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& array(const std::string& key, const std::vector<double>& values) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", values[i]);
      os_ << (i ? "," : "") << buf;
    }
    os_ << ']';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    sep(key);
    os_ << json;
    return *this;
  }
  std::string done() const { return "{" + os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "" : ",") << '"' << telemetry::json_escape(key) << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Shared run state: options, correctness ledger, raw figures.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

struct Report {
  // Correctness ledger. Every operation the workload attempts is counted;
  // an operation fails if any of its checks fails. Names of failed checks
  // are kept (deduplicated) for the human-readable summary.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;

  // Data phase, summed over every measured repetition.
  double bytes = 0.0;     // bytes accounted at the sink
  double chunks = 0.0;    // chunks accounted at the sink
  double wall_s = 0.0;    // data-phase wall time
  double cpu_s = 0.0;     // process user+sys CPU over the data phase
  std::vector<double> threads;  // OS thread counts sampled while data flows
  double stage_threads_weighted = 0.0;  // sum of n_r+n_n+n_w, time-weighted
  std::vector<double> setup_s;
  std::vector<double> object_ms;
  // Engine workloads, traced runs: the same dataset through the in-process
  // backend, with default telemetry and no poller (bytes/s, median of 3).
  double inproc_bytes_per_s = 0.0;

  std::map<std::string, double> layer;
  std::map<std::string, std::vector<double>> layer_samples;

  /// One operation with its checks; returns true when all passed.
  bool op(std::initializer_list<std::pair<const char*, bool>> checks) {
    ++attempted;
    bool ok = true;
    for (const auto& [name, passed] : checks) {
      if (!passed) {
        ok = false;
        ++failures[name];
      }
    }
    if (!ok) ++failed;
    return ok;
  }

  /// Count another report's operations here too (unmeasured passes still
  /// have to be correct).
  void merge_ledger(const Report& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [name, n] : other.failures) failures[name] += n;
  }
};

// Bench-side spans around every public call (traced runs only). The exporter
// is null on untraced runs, so a Span is a branch and nothing else.
class Span {
 public:
  Span(telemetry::TraceExporter* exporter, int track, const char* name)
      : exporter_(exporter), track_(track), name_(name),
        start_(exporter ? telemetry::now_ns() : 0) {}
  ~Span() {
    if (exporter_)
      exporter_->emit(track_, name_, start_, telemetry::now_ns() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  telemetry::TraceExporter* exporter_;
  int track_;
  const char* name_;
  std::uint64_t start_;
};

struct Tracing {
  std::unique_ptr<telemetry::TraceExporter> exporter;
  int bench_track = -1;

  telemetry::TraceExporter* get() const { return exporter.get(); }
  void configure(transfer::EngineConfig& config) const {
    if (!exporter) return;
    config.telemetry.sample_every = 1;
    config.telemetry.exporter = exporter.get();
  }
};

/// The paper's Dataset B (testbed::Dataset::mixed: files log-uniform in
/// 100 KB .. 2 GB) scaled to `total_bytes`, as examples/mixed_workload scales
/// it: the per-file law is kept and the inventory ends at the total. Sizes
/// are rounded down to whole bytes (the engine moves whole-byte chunks) and
/// the last file is cut, so every seed moves exactly `total_bytes`.
std::vector<double> dataset_b(Rng& rng, double total_bytes) {
  std::vector<double> files = testbed::Dataset::mixed(rng, total_bytes).files();
  double assigned = 0.0;
  for (std::size_t i = 0; i + 1 < files.size(); ++i) {
    files[i] = std::floor(files[i]);
    assigned += files[i];
  }
  files.back() = total_bytes - assigned;
  return files;
}

std::uint64_t chunk_count(const std::vector<double>& files,
                          std::uint32_t chunk_bytes) {
  std::uint64_t n = 0;
  for (const double f : files)
    n += static_cast<std::uint64_t>(std::ceil(f / chunk_bytes));
  return n;
}

// ---------------------------------------------------------------------------
// Engine-side per-layer bookkeeping, accumulated over every session of a run.

struct EngineLayers {
  double ring_stalls = 0, ring_parks = 0, pool_hits = 0, pool_misses = 0;
  double coalesced = 0, batch_writes = 0, syscalls = 0, copies = 0;
  double recv_syscalls = 0, recv_copies = 0, chunks = 0;
  double busy_ns[3] = {}, blocked_ns[3] = {};
  std::map<std::string, std::vector<double>> hist;  // per-session quantiles

  void add(const transfer::TransferStats& s,
           const telemetry::MetricsSnapshot& snap) {
    const auto& sq = s.sender_queue_counters;
    const auto& rq = s.receiver_queue_counters;
    ring_stalls += static_cast<double>(sq.push_stalls + sq.pop_stalls +
                                       rq.push_stalls + rq.pop_stalls);
    ring_parks += static_cast<double>(sq.push_parks + sq.pop_parks +
                                      rq.push_parks + rq.pop_parks);
    pool_hits += static_cast<double>(s.payload_pool_hits);
    pool_misses += static_cast<double>(s.payload_pool_misses);
    coalesced += static_cast<double>(s.net_chunks_coalesced);
    batch_writes += static_cast<double>(s.net_batch_writes);
    syscalls += static_cast<double>(s.io_syscalls);
    copies += static_cast<double>(s.payload_copies);
    recv_syscalls += static_cast<double>(s.recv_syscalls);
    recv_copies += static_cast<double>(s.recv_copies);
    chunks += static_cast<double>(s.chunks_written);
    for (const Stage stage : kAllStages) {
      const int i = static_cast<int>(stage);
      const std::string p = std::string("stage.") + stage_name(stage);
      busy_ns[i] += snap.value_or(p + ".busy_ns");
      blocked_ns[i] += snap.value_or(p + ".blocked_up_ns") +
                       snap.value_or(p + ".blocked_down_ns");
    }
    static const std::pair<const char*, const char*> kHists[] = {
        {"read.service_ns", "transfer.read_service_us"},
        {"network.service_ns", "transfer.net_service_us"},
        {"write.service_ns", "transfer.write_service_us"},
        {"sender_queue.wait_ns", "transfer.sender_wait_us"},
        {"receiver_queue.wait_ns", "transfer.recv_wait_us"},
    };
    for (const auto& [src, dst] : kHists) {
      const std::string base = src;
      if (snap.value_or(base + ".count") <= 0.0) continue;
      hist[std::string(dst) + ".p50"].push_back(
          snap.value_or(base + ".p50") / 1e3);
      hist[std::string(dst) + ".p99"].push_back(
          snap.value_or(base + ".p99") / 1e3);
    }
  }

  void publish(Report& r, double cpu_s) const {
    const double ck = std::max(chunks, 1.0);
    r.layer["common.ring_stalls_per_chunk"] = ring_stalls / ck;
    r.layer["common.ring_parks_per_chunk"] = ring_parks / ck;
    r.layer["common.pool_hit_frac"] =
        pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses)
                                    : 0.0;
    r.layer["net.chunks_per_write"] =
        batch_writes > 0 ? coalesced / batch_writes : 0.0;
    r.layer["net.syscalls_per_chunk"] = syscalls / ck;
    r.layer["net.copies_per_chunk"] = copies / ck;
    r.layer["net.recv_syscalls_per_chunk"] = recv_syscalls / ck;
    r.layer["net.recv_copies_per_chunk"] = recv_copies / ck;
    double busy_total_s = 0.0;
    for (const Stage stage : kAllStages) {
      const int i = static_cast<int>(stage);
      const double active = busy_ns[i] + blocked_ns[i];
      const std::string p = std::string("transfer.") + stage_name(stage);
      r.layer[p + ".busy_frac"] = active > 0 ? busy_ns[i] / active : 0.0;
      r.layer[p + ".blocked_frac"] = active > 0 ? blocked_ns[i] / active : 0.0;
      busy_total_s += busy_ns[i] / 1e9;
    }
    r.layer["transfer.busy_cpu_ratio"] = cpu_s > 0 ? busy_total_s / cpu_s : 0.0;
    for (const auto& [name, values] : hist) {
      std::vector<double> v = values;
      std::sort(v.begin(), v.end());
      r.layer[name] = v[v.size() / 2];  // median over sessions
    }
  }
};

/// Bench thread that times calls while data flows (traced runs only): every
/// 5 ms it makes each probe call once. Samples land in the report when the
/// poller is destroyed, after its thread has joined.
class LatencyPoller {
 public:
  struct Probe {
    const char* metric;  // layer_samples key, also the span name
    double scale;        // seconds -> the metric's unit
    std::function<void()> call;
  };

  LatencyPoller(std::vector<Probe> probes, Report& report,
                telemetry::TraceExporter* exporter, int track)
      : probes_(std::move(probes)),
        samples_(probes_.size()),
        report_(report),
        thread_([this, exporter, track] {
          while (!stop_.load()) {
            for (std::size_t i = 0; i < probes_.size(); ++i) {
              const auto t0 = Clock::now();
              {
                Span span(exporter, track, probes_[i].metric);
                probes_[i].call();
              }
              samples_[i].push_back(seconds_since(t0) * probes_[i].scale);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~LatencyPoller() {
    stop_.store(true);
    thread_.join();
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      auto& out = report_.layer_samples[probes_[i].metric];
      out.insert(out.end(), samples_[i].begin(), samples_[i].end());
    }
  }
  LatencyPoller(const LatencyPoller&) = delete;
  LatencyPoller& operator=(const LatencyPoller&) = delete;

 private:
  const std::vector<Probe> probes_;
  std::vector<std::vector<double>> samples_;
  Report& report_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after the members it uses
};

/// stats() and telemetry_snapshot() latency of a live engine session.
std::unique_ptr<LatencyPoller> poll_session(
    const transfer::TransferSession& session, Report& report,
    const Tracing& tracing) {
  if (!tracing.get()) return nullptr;
  return std::make_unique<LatencyPoller>(
      std::vector<LatencyPoller::Probe>{
          {"transfer.stats_ms", 1e3, [&session] { (void)session.stats(); }},
          {"telemetry.snapshot_us", 1e6,
           [&session] { (void)session.telemetry_snapshot(); }}},
      report, tracing.get(), tracing.bench_track);
}

// ---------------------------------------------------------------------------
// bulk_tcp / small_tcp: repeated batch transfers of one seeded dataset
// through the engine over loopback TCP. One "object" is one whole batch.

struct EngineWorkload {
  std::uint32_t chunk_bytes;
  bool payload;  // fill_payload and verify_payload
  ConcurrencyTuple tuple;
  double total_bytes;
};

/// One batch transfer; returns false when the session never finished.
bool run_batch(const transfer::EngineConfig& config,
               const std::vector<double>& files, std::uint64_t expect_chunks,
               const ConcurrencyTuple& tuple, Report& report,
               EngineLayers* layers, const Tracing& tracing) {
  const auto t_construct = Clock::now();
  transfer::TransferSession session(config, files);
  {
    Span span(tracing.get(), tracing.bench_track, "session.start");
    session.start(tuple);
  }
  const auto t_start = Clock::now();
  const double cpu0 = cpu_seconds();
  report.setup_s.push_back(
      std::chrono::duration<double>(t_start - t_construct).count());
  bool finished = false;
  {
    const auto poller = poll_session(session, report, tracing);
    Span span(tracing.get(), tracing.bench_track, "session.wait");
    // Count threads once data flows: stream threads may still be spawning
    // when start() returns, and workers exit as the batch drains.
    finished = session.wait_finished(0.02);
    report.threads.push_back(os_threads());
    finished = finished || session.wait_finished(60.0);
  }
  const double wall = seconds_since(t_start);
  const double cpu = cpu_seconds() - cpu0;
  transfer::TransferStats stats;
  {
    Span span(tracing.get(), tracing.bench_track, "stats");
    stats = session.stats();
  }
  report.bytes += stats.bytes_written;
  report.chunks += static_cast<double>(stats.chunks_written);
  report.wall_s += wall;
  report.cpu_s += cpu;
  report.object_ms.push_back(wall * 1e3);
  report.stage_threads_weighted += wall * (tuple.read + tuple.network +
                                           tuple.write);
  if (layers) layers->add(stats, session.telemetry_snapshot());
  return report.op({
      {"engine.finished", finished && stats.finished},
      {"engine.sink_bytes_equal_dataset",
       stats.bytes_written == session.total_bytes()},
      {"engine.sink_chunks_equal_dataset",
       stats.chunks_written == expect_chunks},
      {"engine.verify_failures_zero", stats.verify_failures == 0},
      {"engine.net_frame_errors_zero", stats.net_frame_errors == 0},
      {"engine.net_send_failures_zero", stats.net_send_failures == 0},
  });
}

void run_engine(const Options& opt, const EngineWorkload& w, Report& report,
                const Tracing& tracing) {
  Rng rng(opt.seed);
  const std::vector<double> files = dataset_b(rng, w.total_bytes);
  const std::uint64_t expect_chunks = chunk_count(files, w.chunk_bytes);

  transfer::EngineConfig config;
  config.max_threads = 4;
  config.chunk_bytes = w.chunk_bytes;
  config.fill_payload = w.payload;
  config.verify_payload = w.payload;
  config.backend = transfer::NetworkBackend::kTcp;
  config.io_backend = transfer::IoBackend::kSyscall;
  tracing.configure(config);

  // One unmeasured batch lets lazy set-up (allocator arenas, page faults of
  // the payload pool) finish before timing.
  Report warmup;
  run_batch(config, files, expect_chunks, w.tuple, warmup, nullptr, tracing);
  report.merge_ledger(warmup);

  EngineLayers layers;
  const auto t0 = Clock::now();
  do {
    if (!run_batch(config, files, expect_chunks, w.tuple, report, &layers,
                   tracing))
      break;  // a wedged session would only repeat
  } while (seconds_since(t0) < opt.seconds);
  if (!tracing.get()) return;

  layers.publish(report, report.cpu_s);
  // The cost of the TCP network stage: the same dataset through the
  // in-process backend under untraced conditions. run.py divides the
  // untraced TCP rate of the same seed by this rate.
  transfer::EngineConfig inproc = config;
  inproc.backend = transfer::NetworkBackend::kInProcess;
  inproc.telemetry = transfer::TelemetryOptions{};
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    Report scratch;
    run_batch(inproc, files, expect_chunks, w.tuple, scratch, nullptr,
              Tracing{});
    report.merge_ledger(scratch);
    if (scratch.wall_s > 0) rates.push_back(scratch.bytes / scratch.wall_s);
  }
  std::sort(rates.begin(), rates.end());
  if (!rates.empty()) report.inproc_bytes_per_s = rates[rates.size() / 2];
}

// ---------------------------------------------------------------------------
// serve_fanin: 4 tenants, one connection and one client thread each, 16
// sessions per connection. Each session sends one fixed-size object of
// verified 64 KiB pattern chunks, closes, and reopens (closed loop).

constexpr int kTenants = 4;
constexpr int kSessionsPerTenant = 16;
constexpr std::uint32_t kServeChunk = 64 * 1024;
// 1 MiB objects: one open and one close per 16 chunks keeps session
// lifecycle a large share of the work, and a 10 s run completes several
// thousand objects, enough for a p99 with ten objects beyond it.
constexpr int kServeObjectChunks = 16;

serve::SessionServerConfig serve_config() {
  serve::SessionServerConfig config;
  config.max_sessions = kTenants * kSessionsPerTenant + 8;
  config.worker_threads = 4;
  config.event_loops = 2;
  config.queue_capacity = 512;
  return config;
}

struct ServeClient {
  std::string tenant;
  std::vector<int> slot_order;  // seeded session order on this connection
  std::uint64_t bytes_acked = 0;
  std::vector<double> object_ms, open_ms, close_ms;
  std::uint64_t opens = 0, opens_ok = 0, objects = 0, objects_ok = 0;
  bool connected = false;
  bool send_failed = false;
  std::map<std::string, std::uint64_t> failures;
};

/// Set-up only: start a server and open the first 64 sessions from the four
/// tenant connections; returns the wall time. Sessions are closed and the
/// server stopped afterwards, outside the timed part.
double serve_setup_once(Report& report) {
  const auto t0 = Clock::now();
  serve::SessionServer server(serve_config());
  if (!server.start()) {
    report.op({{"serve.server_start", false}});
    return seconds_since(t0);
  }
  std::vector<std::unique_ptr<serve::SessionClient>> clients(kTenants);
  std::vector<std::vector<std::uint32_t>> ids(kTenants);
  std::vector<int> accepted(kTenants, 0);
  {
    std::vector<std::thread> threads;
    for (int d = 0; d < kTenants; ++d) {
      threads.emplace_back([&, d] {
        clients[d] = serve::SessionClient::connect("127.0.0.1", server.port());
        if (!clients[d]) return;
        for (int s = 0; s < kSessionsPerTenant; ++s) {
          const auto open = clients[d]->open("tenant" + std::to_string(d));
          if (open.ok()) {
            ids[d].push_back(open.session_id);
            ++accepted[d];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = seconds_since(t0);
  for (int d = 0; d < kTenants; ++d) {
    report.op({{"serve.open_accepted",
                accepted[d] == kSessionsPerTenant}});
    if (!clients[d]) continue;
    for (const std::uint32_t id : ids[d]) (void)clients[d]->close_session(id);
  }
  clients.clear();
  server.stop();
  return elapsed;
}

void run_serve(const Options& opt, Report& report, const Tracing& tracing) {
  // Set-up is cheap here, so it is repeated and reported as a median.
  for (int i = 0; i < 15; ++i)
    report.setup_s.push_back(serve_setup_once(report));

  Rng master(opt.seed);
  std::vector<int> tenant_order(kTenants);
  for (int i = 0; i < kTenants; ++i) tenant_order[i] = i;
  std::shuffle(tenant_order.begin(), tenant_order.end(), master);
  std::vector<ServeClient> tenants(kTenants);
  for (int d = 0; d < kTenants; ++d) {
    tenants[d].tenant = "tenant" + std::to_string(tenant_order[d]);
    tenants[d].slot_order.resize(kSessionsPerTenant);
    for (int s = 0; s < kSessionsPerTenant; ++s) tenants[d].slot_order[s] = s;
    std::shuffle(tenants[d].slot_order.begin(), tenants[d].slot_order.end(),
                 master);
  }
  const int object_chunks = opt.tiny ? 4 : kServeObjectChunks;

  serve::SessionServer server(serve_config());
  if (!server.start()) {
    report.op({{"serve.server_start", false}});
    return;
  }
  const int track = tracing.bench_track;
  telemetry::TraceExporter* exporter = tracing.get();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<serve::SessionClient>> clients(kTenants);
  for (int d = 0; d < kTenants; ++d) {
    threads.emplace_back([&, d] {
      ServeClient& conn = tenants[d];
      auto& client = clients[d];
      client = serve::SessionClient::connect("127.0.0.1", server.port());
      struct Slot {
        std::uint32_t id = 0;
        int sent = 0;
        Clock::time_point opened{};
      };
      std::vector<Slot> slots(kSessionsPerTenant);
      auto open_slot = [&](Slot& slot) {
        slot = Slot{};
        slot.opened = Clock::now();
        serve::SessionClient::OpenResult open;
        {
          Span span(exporter, track, "client.open");
          open = client->open(conn.tenant,
                              static_cast<std::uint64_t>(object_chunks) *
                                  kServeChunk,
                              kServeChunk);
        }
        conn.open_ms.push_back(seconds_since(slot.opened) * 1e3);
        ++conn.opens;
        if (open.ok()) {
          ++conn.opens_ok;
          slot.id = open.session_id;
        } else {
          ++conn.failures["serve.open_accepted"];
        }
        return open.ok();
      };
      conn.connected = client != nullptr;
      bool alive = conn.connected;
      for (auto& slot : slots)
        if (alive && !open_slot(slot)) alive = false;
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (alive) {
        bool any_open = false;
        for (const int s : conn.slot_order) {
          Slot& slot = slots[s];
          if (slot.id == 0) continue;
          any_open = true;
          bool sent;
          {
            Span span(exporter, track, "client.send_chunk");
            sent = client->send_pattern_chunk(
                slot.id, static_cast<std::uint64_t>(slot.sent) * kServeChunk,
                kServeChunk);
          }
          if (!sent) {
            conn.send_failed = true;
            alive = false;
            break;
          }
          if (++slot.sent < object_chunks) continue;
          const auto t_close = Clock::now();
          std::optional<serve::SessionFinalStats> final_stats;
          {
            Span span(exporter, track, "client.close");
            final_stats = client->close_session(slot.id);
          }
          conn.close_ms.push_back(seconds_since(t_close) * 1e3);
          ++conn.objects;
          const bool ok = final_stats &&
                          final_stats->chunks_ok ==
                              static_cast<std::uint64_t>(object_chunks) &&
                          final_stats->verify_failures == 0;
          if (ok) {
            ++conn.objects_ok;
            conn.bytes_acked += final_stats->bytes_ok;
            conn.object_ms.push_back(seconds_since(slot.opened) * 1e3);
          } else {
            ++conn.failures[final_stats ? "serve.chunks_ok_equal_sent"
                                       : "serve.close_acknowledged"];
          }
          slot.id = 0;
          if (!stop.load() && !open_slot(slot)) alive = false;
        }
        if (!any_open) break;
      }
    });
  }
  while (ready.load() < kTenants) std::this_thread::yield();
  const double cpu0 = cpu_seconds();
  const auto pool0 = server.metrics().snapshot();
  const auto t_data = Clock::now();
  go.store(true);
  report.threads.push_back(os_threads());
  std::unique_ptr<LatencyPoller> poller;
  if (exporter)
    poller = std::make_unique<LatencyPoller>(
        std::vector<LatencyPoller::Probe>{
            {"telemetry.snapshot_us", 1e6,
             [&server] { (void)server.metrics().snapshot(); }}},
        report, exporter, track);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double wall = seconds_since(t_data);
  const double cpu = cpu_seconds() - cpu0;
  poller.reset();

  // The server's counters, read in-process from its registry. The same
  // registry is also asked for over kStatsSnapshot from a fresh connection:
  // replies past the codec's 16384-metric cap are refused by the client, and
  // the serve plane keeps per-session metrics for every session it has
  // served, so whether the query still succeeds is recorded as a layer
  // figure rather than assumed.
  const telemetry::MetricsSnapshot snap = server.metrics().snapshot();
  {
    serve::SessionClientConfig qc;
    qc.io_timeout_s = 2.0;
    auto client = serve::SessionClient::connect("127.0.0.1", server.port(), qc);
    Span span(exporter, track, "client.query_stats");
    report.layer["serve.stats_query_ok"] =
        client && client->query_stats().has_value() ? 1.0 : 0.0;
  }
  report.layer["serve.registry_metrics"] =
      static_cast<double>(snap.samples.size());

  std::uint64_t acked = 0;
  std::vector<double> tenant_bytes;
  for (auto& conn : tenants) {
    acked += conn.bytes_acked;
    tenant_bytes.push_back(static_cast<double>(conn.bytes_acked));
    report.object_ms.insert(report.object_ms.end(), conn.object_ms.begin(),
                            conn.object_ms.end());
    auto& open_s = report.layer_samples["serve.open_ms"];
    open_s.insert(open_s.end(), conn.open_ms.begin(), conn.open_ms.end());
    auto& close_s = report.layer_samples["serve.close_ms"];
    close_s.insert(close_s.end(), conn.close_ms.begin(), conn.close_ms.end());
    // Ledger: every connection, every open and every object is one
    // operation. A connection fails if it never connected or a send failed.
    report.op({{"serve.client_connect", conn.connected},
               {"serve.send_chunk", !conn.send_failed}});
    report.attempted += conn.opens + conn.objects;
    report.failed +=
        (conn.opens - conn.opens_ok) + (conn.objects - conn.objects_ok);
    for (const auto& [name, n] : conn.failures) report.failures[name] += n;
  }
  report.op({{"serve.server_bytes_equal_acked",
              snap.value_or("serve.bytes_ok") == static_cast<double>(acked)},
             {"serve.verify_failures_zero",
              snap.value_or("serve.verify_failures") == 0.0}});
  report.bytes = static_cast<double>(acked);
  report.chunks = static_cast<double>(acked / kServeChunk);
  report.wall_s = wall;
  report.cpu_s = cpu;
  report.stage_threads_weighted = wall * (2 + 4);  // event loops + workers

  const double ideal = static_cast<double>(acked) / kTenants;
  const auto [mn, mx] = std::minmax_element(tenant_bytes.begin(),
                                            tenant_bytes.end());
  report.layer["serve.tenant_share_min"] = ideal > 0 ? *mn / ideal : 0.0;
  report.layer["serve.tenant_share_max"] = ideal > 0 ? *mx / ideal : 0.0;
  const double pool_busy_s = (snap.value_or("serve.pool.busy_ns") -
                              pool0.value_or("serve.pool.busy_ns")) / 1e9;
  report.layer["serve.worker_busy_frac"] = pool_busy_s / (wall * 4);
  double defers = 0.0, rejects = 0.0;
  for (const auto& sample : snap.samples) {
    const std::string& n = sample.name;
    if (n.rfind("tenant.", 0) != 0) continue;
    if (n.size() > 16 && n.compare(n.size() - 16, 16, ".throttle_defers") == 0)
      defers += sample.value;
    if (n.size() > 8 && n.compare(n.size() - 8, 8, ".rejects") == 0)
      rejects += sample.value;
  }
  report.layer["serve.admission_defers"] = defers;
  report.layer["serve.admission_rejects"] =
      rejects + snap.value_or("serve.sessions_rejected");
  clients.clear();
  server.stop();
}

// ---------------------------------------------------------------------------
// agent_loop: explore -> train -> production on a throttled TCP DtnPairEnv.

constexpr double kAgentRead = 48.0 * kMiB;     // per-thread throttles
constexpr double kAgentNetwork = 80.0 * kMiB;
constexpr double kAgentWrite = 40.0 * kMiB;  // the bottleneck stage
constexpr double kProbeInterval = 0.1;

transfer::DtnPairConfig agent_env_config(std::vector<double> files,
                                         const Tracing& tracing) {
  transfer::DtnPairConfig cfg;
  cfg.backend = transfer::NetworkBackend::kTcp;
  cfg.engine.max_threads = 4;
  cfg.engine.chunk_bytes = 128 * 1024;
  cfg.engine.sender_buffer_bytes = 4.0 * kMiB;
  cfg.engine.receiver_buffer_bytes = 4.0 * kMiB;
  cfg.engine.read.per_thread_bytes_per_s = kAgentRead;
  cfg.engine.network.per_thread_bytes_per_s = kAgentNetwork;
  cfg.engine.write.per_thread_bytes_per_s = kAgentWrite;
  cfg.file_sizes_bytes = std::move(files);
  cfg.probe_interval_s = kProbeInterval;
  tracing.configure(cfg.engine);
  return cfg;
}

void run_agent(const Options& opt, Report& report, const Tracing& tracing) {
  Rng data_rng(opt.seed);
  const int track = tracing.bench_track;
  telemetry::TraceExporter* exporter = tracing.get();
  auto& overrun = report.layer_samples["transfer.step_overrun_ms"];

  // Exploration: three rounds of a fixed step count against one env with a
  // large dataset (the work does not depend on rates). Each round is timed as
  // one set-up sample; the logs are pooled for the link estimates.
  const int rounds = 6;
  const int explore_steps = 4;
  probe::ProbeLog log;
  std::vector<double> explore_s;
  {
    transfer::DtnPairEnv env(
        agent_env_config(dataset_b(data_rng, 64.0 * kGiB), tracing));
    // Explorer::run steps the env through the Env interface; a thin wrapper
    // times each call from outside.
    struct TimedEnv final : Env {
      Env& inner;
      std::vector<double>& overrun;
      Report& report;
      telemetry::TraceExporter* exporter;
      int track;
      TimedEnv(Env& e, std::vector<double>& o, Report& r,
               telemetry::TraceExporter* x, int t)
          : inner(e), overrun(o), report(r), exporter(x), track(t) {}
      std::vector<double> reset(Rng& rng) override {
        Span span(exporter, track, "env.reset");
        return inner.reset(rng);
      }
      EnvStep step(const ConcurrencyTuple& a) override {
        const auto t0 = Clock::now();
        EnvStep out;
        {
          Span span(exporter, track, "env.step");
          out = inner.step(a);
        }
        overrun.push_back((seconds_since(t0) - kProbeInterval) * 1e3);
        report.op({{"agent.explore_step_not_done", !out.done}});
        return out;
      }
      int max_threads() const override { return inner.max_threads(); }
    } timed(env, overrun, report, exporter, track);
    probe::ExplorerOptions eo;
    eo.duration_steps = explore_steps;
    eo.hold_steps = 4;
    Rng explore_rng(opt.seed ^ 0xE4);
    for (int r = 0; r < rounds; ++r) {
      const auto t0 = Clock::now();
      probe::ProbeLog round;
      {
        Span span(exporter, track, "Explorer::run");
        round = probe::Explorer(eo).run(timed, explore_rng);
      }
      explore_s.push_back(seconds_since(t0));
      for (const auto& sample : round.samples()) log.add(sample);
    }
  }

  const probe::LinkEstimates est = probe::LinkEstimates::from_log(log);
  const double configured[3] = {to_mbps(kAgentRead), to_mbps(kAgentNetwork),
                                to_mbps(kAgentWrite)};
  const double estimated[3] = {est.tpt_mbps.read, est.tpt_mbps.network,
                               est.tpt_mbps.write};
  for (const Stage stage : kAllStages) {
    const int i = static_cast<int>(stage);
    report.layer[std::string("probe.rate_error.") + stage_name(stage)] =
        std::abs(estimated[i] - configured[i]) / configured[i];
  }
  std::vector<double> sorted_explore = explore_s;
  std::sort(sorted_explore.begin(), sorted_explore.end());
  report.layer["probe.explore_s"] = sorted_explore[sorted_explore.size() / 2];

  // Training runs on the configured link, not on the estimates: while the
  // stats() stall inflates the estimates (probe.rate_error), a policy trained
  // on them is a different policy every run and the production figures would
  // measure that lottery rather than the system. The link is fed through the
  // same LinkEstimates path as a probe log of one saturated sample.
  probe::ProbeLog configured_log;
  configured_log.add(probe::ProbeSample{
      0.0, {4, 4, 4}, {4 * configured[0], 4 * configured[1],
                       4 * configured[2]}});
  probe::BufferSpec buffers;
  buffers.sender_capacity_bytes = 4.0 * kMiB;
  buffers.receiver_capacity_bytes = 4.0 * kMiB;
  const sim::SimScenario scenario = probe::make_scenario(
      probe::LinkEstimates::from_log(configured_log), buffers, 4);
  core::PipelineConfig pc;
  pc.max_threads = 4;
  pc.seed = opt.seed;
  pc.ppo.seed = opt.seed;
  pc.ppo.num_envs = 1;
  pc.ppo.max_episodes = opt.tiny ? 8 : 400;
  pc.ppo.stagnation_episodes = pc.ppo.max_episodes;
  pc.trace_exporter = exporter;
  const auto t_train = Clock::now();
  std::unique_ptr<core::AutoMdt> agent;
  {
    Span span(exporter, track, "AutoMdt::train_on_scenario");
    agent = std::make_unique<core::AutoMdt>(
        core::AutoMdt::train_on_scenario(scenario, pc));
  }
  const double train_s = seconds_since(t_train);
  report.layer["rl.train_s"] = train_s;
  // One set-up = one exploration round plus training.
  for (const double e : explore_s) report.setup_s.push_back(e + train_s);

  // Production: the deterministic controller drives a fixed dataset to
  // completion under a deadline.
  // Sized so that the best policy (four writers) takes about --seconds.
  const double production_bytes =
      std::max(1.0, std::round(opt.seconds)) * 4 * kAgentWrite;
  const double deadline_s = 6.0 * std::max(1.0, opt.seconds);
  transfer::DtnPairEnv env(
      agent_env_config(dataset_b(data_rng, production_bytes), tracing));
  auto controller = agent->make_controller(/*deterministic=*/true);
  Rng prod_rng(opt.seed ^ 0xA9);
  controller->reset(prod_rng);
  std::vector<EnvStep> feedback_log;
  std::vector<ConcurrencyTuple> tuple_log;
  EnvStep last;
  {
    Span span(exporter, track, "env.reset");
    last.observation = env.reset(prod_rng);
  }
  ConcurrencyTuple tuple = controller->initial_action();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto poller = poll_session(*env.session(), report, tracing);
  bool done = false;
  double weighted = 0.0;
  while (!done && seconds_since(t0) < deadline_s) {
    const auto ts = Clock::now();
    {
      Span span(exporter, track, "env.step");
      last = env.step(tuple);
    }
    const double dt = seconds_since(ts);
    overrun.push_back((dt - kProbeInterval) * 1e3);
    weighted += dt * (tuple.read + tuple.network + tuple.write);
    report.threads.push_back(os_threads());
    done = last.done;
    if (done) break;
    feedback_log.push_back(last);
    tuple_log.push_back(tuple);
    const auto td = Clock::now();
    {
      Span span(exporter, track, "AutoMdtController::decide");
      tuple = controller->decide(last, tuple);
    }
    report.layer_samples["optimizers.decide_us"].push_back(
        seconds_since(td) * 1e6);
  }
  poller.reset();
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  const transfer::TransferStats stats = env.session()->stats();
  report.op({{"agent.production_finished_before_deadline", done},
             {"engine.sink_bytes_equal_dataset",
              stats.bytes_written == production_bytes},
             {"engine.verify_failures_zero", stats.verify_failures == 0},
             {"engine.net_frame_errors_zero", stats.net_frame_errors == 0},
             {"engine.net_send_failures_zero", stats.net_send_failures == 0}});
  report.bytes = stats.bytes_written;
  report.chunks = static_cast<double>(stats.chunks_written);
  report.object_ms.push_back(wall * 1e3);  // the dataset is the one object
  report.wall_s = wall;
  report.cpu_s = cpu;
  report.stage_threads_weighted = weighted;
  if (!exporter) return;

  EngineLayers layers;
  layers.add(stats, env.session()->telemetry_snapshot());
  layers.publish(report, cpu);

  // decide() latency needs more samples than a production run yields:
  // replay the recorded feedback through the controller.
  auto& decide = report.layer_samples["optimizers.decide_us"];
  for (std::size_t i = 0; decide.size() < 2000 && !feedback_log.empty(); ++i) {
    const std::size_t k = i % feedback_log.size();
    const auto td = Clock::now();
    (void)controller->decide(feedback_log[k], tuple_log[k]);
    decide.push_back(seconds_since(td) * 1e6);
  }

  sim::SimulatorEnv sim_env(scenario);
  Rng sim_rng(opt.seed ^ 0x51);
  sim_env.reset(sim_rng);
  std::uint64_t steps = 0;
  const auto ts = Clock::now();
  while (seconds_since(ts) < 0.2) {
    for (int i = 0; i < 64; ++i) {
      const EnvStep s = sim_env.step({sim_rng.uniform_int(1, 4),
                                      sim_rng.uniform_int(1, 4),
                                      sim_rng.uniform_int(1, 4)});
      if (s.done) sim_env.reset(sim_rng);
    }
    steps += 64;
  }
  report.layer["sim.steps_per_s"] = static_cast<double>(steps) /
                                    seconds_since(ts);
}

// ---------------------------------------------------------------------------
// Per-layer microbenchmarks (traced runs only), at the workload's chunk size.

template <typename F>
double time_loop(F&& body, double min_s = 0.2) {
  std::uint64_t iters = 0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 16; ++i) body();
    iters += 16;
  } while (seconds_since(t0) < min_s);
  return seconds_since(t0) / static_cast<double>(iters);
}

void run_micro(std::uint32_t chunk_bytes, Report& report) {
  std::vector<std::byte> payload(chunk_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i * 131 + 7);
  volatile std::uint64_t sink = 0;

  const double hash_s =
      time_loop([&] { sink = sink + fnv1a(payload.data(), payload.size()); });
  report.layer["common.fnv1a_gb_s"] = chunk_bytes / hash_s / 1e9;

  net::Frame frame;
  frame.type = net::FrameType::kChunk;
  frame.payload = payload;
  std::vector<std::byte> wire;
  const double enc_s = time_loop([&] {
    wire.clear();
    net::encode_frame(frame, wire);
  });
  report.layer["net.frame_encode_gb_s"] = chunk_bytes / enc_s / 1e9;
  net::Frame decoded;
  const double dec_s = time_loop([&] {
    const auto r = net::decode_frame(wire.data(), wire.size(), decoded);
    sink = sink + r.consumed;
  });
  report.layer["net.frame_decode_gb_s"] = chunk_bytes / dec_s / 1e9;

  transfer::TokenBucket bucket(0.0);
  const double tb_s =
      time_loop([&] { sink = sink + bucket.acquire_batch(chunk_bytes, 1); });
  report.layer["transfer.token_bucket_ns"] = tb_s * 1e9;

  // One producer, one consumer, header-only chunks: the ring handoff alone.
  constexpr std::uint64_t kPairs = 1u << 20;
  MpmcRingQueue<transfer::Chunk> ring(1024);
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      transfer::Chunk c;
      c.offset = i;
      c.size = chunk_bytes;
      ring.push(std::move(c));
    }
  });
  transfer::Chunk out;
  for (std::uint64_t i = 0; i < kPairs; ++i) ring.pop(out);
  producer.join();
  report.layer["common.ring_pair_ns"] = seconds_since(t0) / kPairs * 1e9;
  (void)sink;
}

// ---------------------------------------------------------------------------

std::string environment_json() {
  Json j;
  j.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  utsname u{};
  uname(&u);
  j.str("kernel", u.release);
  j.boolean("uring_available", net::UringRing::available());
  const auto tmp = std::filesystem::temp_directory_path();
  struct statfs fs{};
  std::string fs_type = "unknown";
  if (statfs(tmp.c_str(), &fs) == 0) {
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0xEF53: fs_type = "ext4"; break;
      case 0x01021994: fs_type = "tmpfs"; break;
      case 0x58465342: fs_type = "xfs"; break;
      case 0x9123683E: fs_type = "btrfs"; break;
      case 0x794C7630: fs_type = "overlayfs"; break;
      default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        fs_type = buf;
      }
    }
  }
  j.str("tmp_fs", fs_type);
  j.boolean("trace_compiled_in", telemetry::kTraceCompiledIn);
  return j.done();
}

std::string samples_json(const std::map<std::string, std::vector<double>>& m) {
  Json j;
  for (const auto& [k, v] : m) j.array(k, v);
  return j.done();
}

std::string values_json(const std::map<std::string, double>& m) {
  Json j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload bulk_tcp|small_tcp|"
               "serve_fanin|agent_loop --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) opt.workload = argv[++i];
    else if (a == "--seed" && has_value) opt.seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has_value) opt.seconds = std::stod(argv[++i]);
    else if (a == "--trace" && has_value) opt.trace = std::stoi(argv[++i]) != 0;
    else if (a == "--trace-out" && has_value) opt.trace_out = argv[++i];
    else if (a == "--tiny") opt.tiny = true;
    else return usage();
  }
  set_log_level(LogLevel::kWarn);

  Tracing tracing;
  if (opt.trace) {
    tracing.exporter = std::make_unique<telemetry::TraceExporter>(1u << 18);
    tracing.bench_track = tracing.exporter->track("bench", opt.workload);
  }

  Report report;
  std::uint32_t chunk_bytes = 0;
  if (opt.workload == "bulk_tcp") {
    chunk_bytes = 256 * 1024;
    run_engine(opt,
               {chunk_bytes, true, {2, 2, 2},
                (opt.tiny ? 8.0 : 64.0) * kMiB},
               report, tracing);
  } else if (opt.workload == "small_tcp") {
    chunk_bytes = 16 * 1024;
    run_engine(opt,
               {chunk_bytes, false, {1, 4, 1},
                (opt.tiny ? 64.0 : 3072.0) * kMiB},
               report, tracing);
  } else if (opt.workload == "serve_fanin") {
    chunk_bytes = kServeChunk;
    run_serve(opt, report, tracing);
  } else if (opt.workload == "agent_loop") {
    chunk_bytes = 128 * 1024;
    run_agent(opt, report, tracing);
  } else {
    return usage();
  }
  if (opt.trace) run_micro(chunk_bytes, report);

  Json failures;
  for (const auto& [name, n] : report.failures)
    failures.num(name, static_cast<double>(n));
  Json out;
  out.str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .boolean("trace", opt.trace)
      .num("attempted", static_cast<double>(report.attempted))
      .num("failed", static_cast<double>(report.failed))
      .raw("failures", failures.done())
      .num("chunk_bytes", chunk_bytes)
      .num("bytes", report.bytes)
      .num("chunks", report.chunks)
      .num("wall_s", report.wall_s)
      .num("cpu_s", report.cpu_s)
      .array("threads", report.threads)
      .num("rss_mib", peak_rss_mib())
      .num("stage_threads_mean", report.wall_s > 0
                                     ? report.stage_threads_weighted /
                                           report.wall_s
                                     : 0.0)
      .array("setup_s", report.setup_s)
      .array("object_ms", report.object_ms)
      .num("inproc_bytes_per_s", report.inproc_bytes_per_s)
      .raw("layer", values_json(report.layer))
      .raw("layer_samples", samples_json(report.layer_samples))
      .raw("environment", environment_json());
  if (tracing.get()) {
    out.num("trace_events", static_cast<double>(tracing.get()->events()))
        .num("trace_dropped", static_cast<double>(tracing.get()->dropped()));
    if (!opt.trace_out.empty() && !tracing.get()->write_file(opt.trace_out)) {
      std::fprintf(stderr, "perfbench_workloads: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}
