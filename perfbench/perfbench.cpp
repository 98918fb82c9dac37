// End-to-end and per-layer benchmark of the SGL library.
//
// Workloads (see BENCHMARK.json and perfbench/layers.json):
//   mesh256    256x256 periodic grid (Fig. 11 scale point): measurement
//              generation on PCG-AMG, HNSW kNN, solver-free embedding.
//   mesh96     96x96 periodic grid: exact engine (grounded Cholesky +
//              block Lanczos every iteration).
//   serve-mix  closed-loop NDJSON replay through serve::handle_request:
//              hot resistance/solve queries on a learned graph beside
//              key-pinned cold queries that miss the factorization LRU.
//
// Every learn uses the default SglConfig (fig11's ef_construction = 120 on
// mesh256); thread counts are set explicitly to nproc (the CPUs this
// process may run on) everywhere.
//
// --trace 0 prints the end-to-end metrics; --trace 1 re-runs the workload
// with spans around every public-layer call and prints per-layer metrics.
// Layers reachable only inside SglLearner::step(), finalize() or the
// measurement solve are timed by calling the same public function on the
// same input beside the real call ("shadow" spans, outside the timed real
// span; identical work under IncrementalMode::kOff).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sgl.hpp"

namespace {

using namespace sgl;
using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         // smoke-test sizes
  bool gate_selftest = false;
  Index threads = 1;         // nproc: CPUs in this process's affinity mask
  std::string commit = "unknown";
  std::string trace_out;     // Chrome trace-event JSON path (trace runs)
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "sgl_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") o.workload = value();
    else if (key == "--seed") o.seed = std::stoull(value());
    else if (key == "--seconds") o.seconds = std::stod(value());
    else if (key == "--trace") o.trace = value() != "0";
    else if (key == "--commit") o.commit = value();
    else if (key == "--trace-out") o.trace_out = value();
    else if (key == "--tiny") o.tiny = true;
    else if (key == "--gate-selftest") o.gate_selftest = true;
    else usage_error("unknown option " + key);
  }
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
    o.threads = static_cast<Index>(std::max(1, CPU_COUNT(&cpus)));
  if (!o.gate_selftest && o.workload != "mesh256" && o.workload != "mesh96" &&
      o.workload != "serve-mix")
    usage_error("--workload must be mesh256, mesh96 or serve-mix");
  return o;
}

// ---------------------------------------------------------------------------
// Trace: spans with a name, start, end, parent and run id, kept in memory
// and written out when the run ends. Shadow spans name a real span as
// their parent even though they run beside it, so self time per layer
// (duration minus children) sums exactly to the real roots' durations.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  bool shadow = false;
  bool probe = false;  // outside the setup/learn accounting
  bool dropped = false;
};

class Tracer {
 public:
  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under `parent` (-2: the innermost open span).
  int open(const std::string& name, int parent = -2, bool shadow = false) {
    if (!enabled_) return -1;
    if (parent == -2) parent = stack_.empty() ? -1 : stack_.back();
    Span s;
    s.name = name;
    s.parent = parent;
    s.shadow = shadow || (parent >= 0 && spans_[static_cast<std::size_t>(parent)].shadow);
    s.probe = probe_depth_ > 0;
    s.start = now_s();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    SGL_ASSERT(!stack_.empty() && stack_.back() == id, "Tracer: unbalanced span");
    stack_.pop_back();
  }

  void rename(int id, const std::string& name) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].name = name;
  }
  void drop(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].dropped = true;
  }

  /// Adds a span under `parent` that time() fills in later, so shadows
  /// that must run before the real call can already name it as parent.
  int reserve(const std::string& name, int parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Runs fn() timed into a reserved span.
  template <class F>
  void time(int id, F&& fn) {
    if (id < 0) return fn();
    Span& s = spans_[static_cast<std::size_t>(id)];
    stack_.push_back(id);
    s.start = now_s();
    fn();
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  /// Spans opened while a probe scope is active are excluded from the
  /// self-time accounting (layer work the workload's real path skips).
  void begin_probe() { ++probe_depth_; }
  void end_probe() { --probe_depth_; }

  [[nodiscard]] double duration(int id) const {
    if (id < 0) return 0.0;
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// Total duration of every kept span with this name.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (!s.dropped && s.name == name) sum += s.end - s.start;
    return sum;
  }

  /// Self time (duration minus kept children) summed per layer, the
  /// layer being the span-name prefix before the first '.'. Probe spans
  /// are left out.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (!s.dropped && !s.probe && s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.dropped || s.probe) continue;
      out[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - child[i];
    }
    return out;
  }

  /// Sum of the durations of the real (non-shadow) root spans.
  [[nodiscard]] double real_root_total() const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (!s.dropped && !s.probe && s.parent < 0) sum += s.end - s.start;
    return sum;
  }

  void write_chrome_trace(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) return;
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.dropped) continue;
      if (!first) out << ",";
      first = false;
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"shadow\":%s,\"probe\":%s,\"run\":\"%s\"}}",
                    s.name.c_str(), s.shadow ? 2 : 1, s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent,
                    s.shadow ? "true" : "false", s.probe ? "true" : "false",
                    run_id_.c_str());
      out << buf;
    }
    out << "]}\n";
  }

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int probe_depth_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int parent = -2, bool shadow = false)
      : t_(t), id_(t.open(name, parent, shadow)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Counters the traced run collects beside the spans.
struct LayerCounters {
  double factor_nnz = 0;
  double pcg_iterations = 0;
  double lanczos_steps = 0;
  double smoother_sweeps = 0;
  double knn_edges = 0;
  double iterations = 0;
};

/// L⁺ operator whose every apply is a solver.sweep span — the same calls
/// smallest_laplacian_eigenpairs makes through LaplacianPinvOperator.
class TracedPinvOperator final : public la::LinearOperator {
 public:
  TracedPinvOperator(const solver::LaplacianPinvSolver& pinv, Index threads,
                     Tracer& tracer)
      : pinv_(pinv), threads_(threads), tracer_(tracer) {}
  [[nodiscard]] Index rows() const noexcept override { return pinv_.num_nodes(); }
  [[nodiscard]] Index cols() const noexcept override { return pinv_.num_nodes(); }
  void apply(const la::Vector& x, la::Vector& y) const override {
    const Scope s(tracer_, "solver.sweep");
    y = pinv_.apply(x);
  }
  void apply_block(la::ConstBlockView x, la::BlockView y) const override {
    const Scope s(tracer_, "solver.sweep");
    pinv_.apply_block(x, y, threads_);
  }

 private:
  const solver::LaplacianPinvSolver& pinv_;
  Index threads_;
  Tracer& tracer_;
};

/// Shadow of a LaplacianPinvSolver construction: solver.order
/// (compute_ordering on the grounded Laplacian) then the construction
/// with that ordering as hint, named solver.factor on the Cholesky path
/// or solver.amg_setup on the PCG path (kAuto resolves to Cholesky or
/// PCG-AMG), where the hint is unused and its ordering span is dropped.
std::unique_ptr<solver::LaplacianPinvSolver> traced_pinv(
    Tracer& tracer, LayerCounters& counters, const graph::Graph& g,
    const solver::LaplacianSolverOptions& options, int parent) {
  const int order = tracer.open("solver.order", parent, true);
  std::vector<Index> perm =
      solver::compute_ordering(solver::grounded_laplacian(g), options.ordering);
  tracer.close(order);
  const int build = tracer.open("solver.factor", parent, true);
  auto pinv = std::make_unique<solver::LaplacianPinvSolver>(g, options, std::move(perm));
  tracer.close(build);
  if (pinv->method() == solver::LaplacianMethod::kCholesky) {
    counters.factor_nnz += static_cast<double>(pinv->factor_stats()->factor_nnz);
  } else {
    tracer.drop(order);
    tracer.rename(build, "solver.amg_setup");
  }
  return pinv;
}

/// Shadow multi-RHS solve: solver.sweep (Cholesky) or solver.pcg_solve.
void traced_apply(Tracer& tracer, LayerCounters& counters,
                  const solver::LaplacianPinvSolver& pinv,
                  const la::DenseMatrix& rhs, Index threads, int parent) {
  const bool direct = pinv.method() == solver::LaplacianMethod::kCholesky;
  la::DenseMatrix out(rhs.rows(), rhs.cols());
  {
    const Scope s(tracer, direct ? "solver.sweep" : "solver.pcg_solve", parent, true);
    pinv.apply_block(la::view_of(rhs), la::view_of(out), threads);
  }
  if (!direct)
    counters.pcg_iterations += static_cast<double>(pinv.pcg_block_stats().max_iterations);
}

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

/// Connected, every weight finite and > 0. Operates on an edge list so a
/// deliberately corrupted copy (which graph::Graph refuses to hold) can be
/// checked too.
bool learned_graph_ok(Index n, const std::vector<graph::Edge>& edges,
                      std::string* why) {
  graph::UnionFind uf(n);
  for (const graph::Edge& e : edges) {
    if (!std::isfinite(e.weight) || !(e.weight > 0.0)) {
      if (why) *why = "non-finite or non-positive edge weight";
      return false;
    }
    if (e.s < 0 || e.s >= n || e.t < 0 || e.t >= n || e.s == e.t) {
      if (why) *why = "edge endpoint out of range";
      return false;
    }
    uf.unite(e.s, e.t);
  }
  if (uf.num_sets() != 1) {
    if (why) *why = "learned graph is disconnected";
    return false;
  }
  return true;
}

std::vector<graph::Edge> edge_list(const graph::Graph& g) {
  std::vector<graph::Edge> out;
  out.reserve(static_cast<std::size_t>(g.num_edges()));
  for (Index e = 0; e < g.num_edges(); ++e) out.push_back(g.edge(e));
  return out;
}

/// Floor for reff_corr. With the paper's §III-A spherical current
/// excitations (1/M)‖Xᵀe_st‖² concentrates on a biharmonic distance, so
/// the learned graph's effective resistances correlate only moderately
/// with the truth (fig07's "spherical" rows): 0.34-0.56 over the seeds
/// tried on these meshes (mean ~0.45, sd ~0.05). The floor sits five
/// standard deviations below: it catches a broken learner, not a seed.
constexpr double kReffCorrFloor = 0.2;

/// reff_corr probe pairs: hop-stratified as in fig07, with fig07's fixed
/// sampling seed so every workload seed is scored on the same pairs.
constexpr Index kReffPairs = 500;
constexpr std::uint64_t kReffPairSeed = 17;

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  /// Records a gate failure covering `operations` failed operations.
  void fail(const std::string& why, long operations = 1) {
    correct = false;
    failed += operations;
    notes.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : "; ") + p;
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_result(const Result& r) {
  for (const std::string& note : r.notes)
    std::printf("# gate failed: %s\n", note.c_str());
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

void print_host(const Options& o) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %d, \"threads\": %d, \"build_type\": \"%s\", "
      "\"ndebug\": %s, \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"tiny\": %s}}\n",
      o.threads, o.threads,
      ndebug ? "Release" : "Debug", ndebug ? "true" : "false",
      json_escape(kCompiler).c_str(), json_escape(o.commit).c_str(),
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0, o.tiny ? "true" : "false");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Serving helpers (shared by the query phase of the learn workloads and
// the serve-mix workload)
// ---------------------------------------------------------------------------

std::string key_json(const graph::GraphKey& key) {
  return serve::json_serialize(serve::graph_key_to_json(key));
}

std::string resistance_request(long id, Index s, Index t, const std::string& key) {
  return "{\"op\":\"resistance\",\"id\":" + std::to_string(id) +
         ",\"s\":" + std::to_string(s) + ",\"t\":" + std::to_string(t) +
         ",\"key\":" + key + "}";
}

std::string solve_request(long id, Index n, Index s, Index t, const std::string& key) {
  std::string line = "{\"op\":\"solve\",\"id\":" + std::to_string(id) + ",\"rhs\":[";
  line.reserve(line.size() + static_cast<std::size_t>(n) * 2 + 256);
  for (Index i = 0; i < n; ++i) {
    if (i > 0) line += ',';
    line += i == s ? "1" : (i == t ? "-1" : "0");
  }
  line += "],\"key\":" + key + "}";
  return line;
}

bool response_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// Parses a resistance response; NaN when it is not a positive finite value.
double resistance_value(const std::string& response) {
  const serve::JsonValue v = serve::json_parse(response);
  const serve::JsonValue* value = v.find("value");
  if (value == nullptr || !value->is_number()) return std::nan("");
  const double r = value->as_number();
  return std::isfinite(r) && r > 0.0 ? r : std::nan("");
}

serve::ServeStats stats_delta(const serve::ServeStats& a, const serve::ServeStats& b) {
  serve::ServeStats d;
  d.requests = b.requests - a.requests;
  d.batches = b.batches - a.batches;
  d.batched_columns = b.batched_columns - a.batched_columns;
  d.width_flushes = b.width_flushes - a.width_flushes;
  d.deadline_flushes = b.deadline_flushes - a.deadline_flushes;
  d.serial_fallbacks = b.serial_fallbacks - a.serial_fallbacks;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.cache_evictions = b.cache_evictions - a.cache_evictions;
  d.errors = b.errors - a.errors;
  return d;
}

/// Per-client record of one closed-loop window: latencies, the serve.*
/// span durations (thread-local, merged in client order), and a sample of
/// request/response pairs for the bitwise width-1 replay.
struct ClientLog {
  std::vector<double> latency_s;
  std::vector<double> end_s;  // completion time of each request (now_s)
  std::vector<double> parse_s;
  long ok = 0;
  long bad = 0;
  std::vector<std::pair<std::string, std::string>> sample;
};

/// Sends `line` through handle_request, timing it; in trace runs the
/// request is also parsed on its own beside the real call (serve.parse).
std::string timed_request(serve::ServeEngine& engine, const std::string& line,
                          ClientLog& log, bool trace) {
  const double t0 = now_s();
  std::string response = serve::handle_request(engine, line).response;
  const double t1 = now_s();
  log.latency_s.push_back(t1 - t0);
  log.end_s.push_back(t1);
  if (trace) {
    const double p0 = now_s();
    const serve::JsonValue parsed = serve::json_parse(line);
    log.parse_s.push_back(now_s() - p0);
    (void)parsed;
  }
  return response;
}

/// Replays the sampled requests one at a time (batch width 1) on the same
/// engine and compares the response bytes; returns mismatches.
long replay_mismatches(serve::ServeEngine& engine, const std::vector<ClientLog>& logs) {
  long bad = 0;
  for (const ClientLog& log : logs)
    for (const auto& [request, response] : log.sample)
      if (serve::handle_request(engine, request).response != response) ++bad;
  return bad;
}

void add_serve_layer_metrics(Result& r, const std::vector<ClientLog>& logs,
                             const serve::ServeStats& d) {
  std::vector<double> handle, parse;
  for (const ClientLog& log : logs) {
    handle.insert(handle.end(), log.latency_s.begin(), log.latency_s.end());
    parse.insert(parse.end(), log.parse_s.begin(), log.parse_s.end());
  }
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                                 static_cast<double>(v.size());
  };
  r.add("serve.handle_s", mean(handle), "s");
  r.add("serve.handle_p99_us", 1e6 * percentile(handle, 0.99), "us");
  r.add("serve.parse_s", mean(parse), "s");
  r.add("serve.batch_width_mean",
        d.batches > 0 ? static_cast<double>(d.batched_columns) / static_cast<double>(d.batches) : 0.0,
        "columns");
  r.add("serve.deadline_flush_frac",
        d.batches > 0 ? static_cast<double>(d.deadline_flushes) / static_cast<double>(d.batches) : 0.0,
        "ratio");
  r.add("serve.cache_hits", static_cast<double>(d.cache_hits), "count");
  r.add("serve.cache_misses", static_cast<double>(d.cache_misses), "count");
  r.add("serve.cache_evictions", static_cast<double>(d.cache_evictions), "count");
  r.add("serve.errors", static_cast<double>(d.errors), "count");
  r.add("serve.serial_fallbacks", static_cast<double>(d.serial_fallbacks), "count");
}

// ---------------------------------------------------------------------------
// Learn pipeline (setup + learn), optionally traced
// ---------------------------------------------------------------------------

struct LearnSpec {
  Index side = 96;
  bool periodic = true;
  Index measurements = 50;
  Index ef_construction = 0;  // 0: library default
};

core::SglConfig learn_config(const LearnSpec& spec, Index threads) {
  core::SglConfig config;  // defaults: auto policies, IncrementalMode::kOff
  config.num_threads = threads;
  config.knn.num_threads = threads;
  config.embedding.solver.num_threads = threads;
  config.embedding.lanczos.num_threads = threads;
  config.embedding.sf.num_threads = threads;
  if (spec.ef_construction > 0) config.knn.hnsw.ef_construction = spec.ef_construction;
  return config;
}

measure::MeasurementOptions measurement_options(const LearnSpec& spec,
                                                std::uint64_t seed, Index threads) {
  measure::MeasurementOptions mopt;
  mopt.num_measurements = spec.measurements;
  mopt.seed = seed;
  mopt.num_threads = threads;
  mopt.solver.num_threads = threads;
  return mopt;
}

struct SetupData {
  graph::Graph truth;
  measure::Measurements data;
  double setup_s = 0.0;
};

struct LearnRun {
  core::SglResult result;
  graph::Graph unscaled;  // learned graph before edge scaling (traced runs)
  double learn_s = 0.0;
};

/// Ground truth + generate_measurements. Traced: graph.generate and
/// measure.generate are real spans (roots); the measurement solve is
/// shadowed under measure.generate.
SetupData run_setup(const LearnSpec& spec, std::uint64_t seed, Index threads,
                    Tracer& tracer, LayerCounters& counters, int parent = -1) {
  SetupData s;
  const double t0 = now_s();
  {
    const Scope span(tracer, "graph.generate", parent);
    s.truth = graph::make_grid2d(spec.side, spec.side, spec.periodic).graph;
  }
  const measure::MeasurementOptions mopt = measurement_options(spec, seed, threads);
  const int gen = tracer.open("measure.generate", parent);
  s.data = measure::generate_measurements(s.truth, mopt);
  tracer.close(gen);
  s.setup_s = now_s() - t0;
  if (tracer.enabled()) {
    solver::LaplacianSolverOptions sopt = mopt.solver;
    const auto pinv = traced_pinv(tracer, counters, s.truth, sopt, gen);
    traced_apply(tracer, counters, *pinv, s.data.currents, threads, gen);
  }
  return s;
}

/// SglLearner construction → run(&currents), exactly what learn_graph
/// does. Traced: run()'s step loop is spelled out so core.init / core.step
/// / core.finalize are real spans; knn, mst, embedding and solver work is
/// shadowed on the same inputs right before or after each real call.
LearnRun run_learn(const SetupData& s, const core::SglConfig& config,
                   Tracer& tracer, LayerCounters& counters, int parent = -1) {
  LearnRun out;
  const la::DenseMatrix& x = s.data.voltages;
  if (!tracer.enabled()) {
    const double t0 = now_s();
    core::SglLearner learner(x, config);
    out.result = learner.run(&s.data.currents);
    out.learn_s = now_s() - t0;
    return out;
  }

  const int init = tracer.open("core.init", parent);
  core::SglLearner learner(x, config);
  tracer.close(init);
  double real_s = tracer.duration(init);

  {
    // Step 1 shadow: the kNN backend build_knn_graph resolves for kAuto
    // (brute force up to 4096 points, HNSW above), then the MST.
    const Index n = x.rows();
    const bool hnsw = config.knn.backend == knn::KnnBackend::kHnsw ||
                      (config.knn.backend == knn::KnnBackend::kAuto && n > 4096);
    if (hnsw) {
      std::optional<knn::HnswIndex> index;
      {
        const Scope b(tracer, "knn.hnsw_build", init, true);
        index.emplace(x, config.knn.hnsw, config.knn.num_threads);
      }
      const Scope q(tracer, "knn.query", init, true);
      (void)index->knn_all(config.k, config.knn.num_threads);
    } else {
      const Scope q(tracer, "knn.query", init, true);
      (void)knn::brute_force_knn(x, config.k, config.knn.num_threads);
    }
    counters.knn_edges += static_cast<double>(learner.knn_graph().num_edges());
    const Scope m(tracer, "graph.mst", init, true);
    (void)graph::maximum_spanning_forest(learner.knn_graph());
  }

  while (!learner.converged() && !learner.exhausted() &&
         learner.iteration() < config.max_iterations) {
    // The shadow embedding must see the graph BEFORE step() adds edges,
    // so it runs first, under the step span timed afterwards.
    const int step = tracer.reserve("core.step", parent);
    {
      const graph::Graph& g = learner.current_graph();
      const spectral::EmbeddingOptions& emb = config.embedding;
      const int embed = tracer.open("spectral.embed", step, true);
      const spectral::Embedding e = spectral::compute_embedding(g, emb);
      tracer.close(embed);
      counters.smoother_sweeps += static_cast<double>(e.smoother_sweeps);
      counters.lanczos_steps += static_cast<double>(e.lanczos_steps);
      if (e.engine_used == spectral::EmbeddingEngine::kExact) {
        const auto pinv = traced_pinv(tracer, counters, g, emb.solver, embed);
        const Scope lz(tracer, "eig.lanczos", embed, true);
        const TracedPinvOperator op(*pinv, emb.lanczos.num_threads, tracer);
        (void)eig::largest_operator_eigenpairs(
            op, std::min(emb.r - 1, g.num_nodes() - 1), emb.lanczos);
      }
    }
    tracer.time(step, [&] { learner.step(); });
    real_s += tracer.duration(step);
  }
  counters.iterations += static_cast<double>(learner.iteration());

  out.unscaled = learner.current_graph();
  // Edge-scaling shadow on finalize's input: one L⁺Y block solve on the
  // learned graph through the learner's solver options.
  const int fin = tracer.open("core.finalize", parent);
  out.result = learner.finalize(&s.data.currents);
  tracer.close(fin);
  real_s += tracer.duration(fin);
  const auto pinv =
      traced_pinv(tracer, counters, out.unscaled, config.embedding.solver, fin);
  traced_apply(tracer, counters, *pinv, s.data.currents, config.num_threads, fin);
  out.learn_s = real_s;
  return out;
}


/// Exact effective resistances (Cholesky, nested dissection), probes
/// solved in blocks.
std::vector<double> exact_resistances(const graph::Graph& g,
                                      const std::vector<std::pair<Index, Index>>& pairs,
                                      Index threads) {
  solver::LaplacianSolverOptions sopt;
  sopt.method = solver::LaplacianMethod::kCholesky;
  sopt.ordering = solver::OrderingMethod::kNestedDissection;
  sopt.num_threads = threads;
  const solver::LaplacianPinvSolver pinv(g, sopt);
  constexpr std::size_t kChunk = 64;
  std::vector<double> out;
  for (std::size_t p0 = 0; p0 < pairs.size(); p0 += kChunk) {
    const std::size_t width = std::min(kChunk, pairs.size() - p0);
    la::DenseMatrix probes(g.num_nodes(), to_index(width));
    for (std::size_t i = 0; i < width; ++i) {
      probes(pairs[p0 + i].first, to_index(i)) = 1.0;
      probes(pairs[p0 + i].second, to_index(i)) = -1.0;
    }
    const la::DenseMatrix x = pinv.apply_block(probes, threads);
    for (std::size_t i = 0; i < width; ++i)
      out.push_back(x(pairs[p0 + i].first, to_index(i)) - x(pairs[p0 + i].second, to_index(i)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Query phase of the learn workloads: the learned graph is served, and one
// closed-loop client asks the reff_corr pairs as single `resistance`
// requests key-pinned to it, one pass over all pairs at a time. Every pass
// must answer bitwise like the first. One client leaves the other cores
// free, so latency is the request's service time rather than the host's
// scheduling of nproc busy threads (the contended mix is serve-mix's job).
// miss_p50_ms samples the first query on a freshly loaded ground truth (a
// factorization-LRU miss): unlike the learned graph, whose factorization
// cost changes with the seed, the ground truth is the same for every seed.
// Untraced runs take passes and miss samples between rounds, spread over
// the whole run, and report medians, so a slow phase of a shared host
// moves a few samples rather than the result.
// ---------------------------------------------------------------------------

constexpr std::size_t kPassesPerPoint = 2;   // query passes per sample point
constexpr std::size_t kMissesPerPoint = 2;   // at least this many misses ...
constexpr double kMissPoint_s = 0.3;         // ... and for at least this long

serve::ServeOptions query_serve_options() {
  serve::ServeOptions so;
  so.num_threads = 1;  // clients alone fill the cores
  so.solver.method = solver::LaplacianMethod::kCholesky;
  so.solver.ordering = solver::OrderingMethod::kNestedDissection;
  so.solver.num_threads = 1;
  return so;
}

/// First queries on freshly loaded copies of the ground truth (LRU
/// misses): at least kMissesPerPoint of them, for at least kMissPoint_s.
/// Appends the latencies; `failed` counts errors.
void sample_misses(const graph::Graph& truth, std::vector<double>& latency_s,
                   long& failed) {
  const double t0 = now_s();
  for (std::size_t k = 0; k < kMissesPerPoint || now_s() - t0 < kMissPoint_s; ++k) {
    serve::ServeEngine fresh(query_serve_options());
    const std::string key = key_json(fresh.load_graph(truth));
    ClientLog log;
    const std::string response = timed_request(
        fresh, resistance_request(0, 0, truth.num_nodes() - 1, key), log, false);
    if (std::isnan(resistance_value(response))) ++failed;
    latency_s.push_back(log.latency_s.front());
  }
}

struct QueryPhase {
  std::vector<double> learned;  // served Reff per pair (first pass)
  std::vector<double> latency_s;
  std::vector<double> pass_qps;
  long attempted = 0;
  long failed = 0;
  std::vector<ClientLog> logs;
  serve::ServeStats delta;
  std::vector<std::string> errors;
};

/// The learned graph behind a warm ServeEngine; pass() asks every pair
/// once, finish() applies the gates over all passes.
class LearnedGraphQueries {
 public:
  LearnedGraphQueries(const graph::Graph& learned,
                      const std::vector<std::pair<Index, Index>>& pairs, bool trace)
      : engine_(query_serve_options()), trace_(trace) {
    const std::string key = key_json(engine_.load_graph(learned));
    for (std::size_t j = 0; j < pairs.size(); ++j)
      lines_.push_back(resistance_request(static_cast<long>(j), pairs[j].first,
                                          pairs[j].second, key));
    (void)serve::handle_request(engine_, lines_[0]);  // warm the factorization
    before_ = engine_.stats();
    q_.logs.resize(1);
  }

  void pass() {
    ClientLog& log = q_.logs.front();
    const bool first = values_.empty();
    const double t0 = now_s();
    for (std::size_t j = 0; j < lines_.size(); ++j) {
      const std::string response = timed_request(engine_, lines_[j], log, trace_);
      const double v = response_ok(response) ? resistance_value(response) : std::nan("");
      std::isnan(v) ? ++log.bad : ++log.ok;
      values_.push_back(v);
      if (first && j % 8 == 0) log.sample.emplace_back(lines_[j], response);
    }
    q_.pass_qps.push_back(static_cast<double>(lines_.size()) / (now_s() - t0));
  }

  QueryPhase finish() {
    const auto fail = [this](const std::string& why, long operations) {
      q_.failed += operations;
      q_.errors.push_back(why);
    };
    q_.delta = stats_delta(before_, engine_.stats());
    q_.latency_s = q_.logs.front().latency_s;
    q_.attempted = static_cast<long>(values_.size());
    const std::size_t num_pairs = lines_.size();
    long bad = 0, unequal = 0;
    for (std::size_t j = 0; j < values_.size(); ++j) {
      const double a = values_[j % num_pairs];
      if (std::isnan(values_[j])) ++bad;
      else if (std::memcmp(&a, &values_[j], sizeof a) != 0) ++unequal;
    }
    if (bad > 0) fail(std::to_string(bad) + " resistance queries failed", bad);
    if (unequal > 0) fail(std::to_string(unequal) + " repeated queries answered differently", unequal);
    if (q_.delta.cache_misses != 0) fail("query passes missed the factorization cache", 1);
    if (const long mismatches = replay_mismatches(engine_, q_.logs); mismatches > 0)
      fail(std::to_string(mismatches) + " responses differ from the width-1 replay", mismatches);
    q_.learned.assign(values_.begin(), values_.begin() + static_cast<std::ptrdiff_t>(num_pairs));
    return q_;
  }

 private:
  serve::ServeEngine engine_;
  bool trace_;
  std::vector<std::string> lines_;
  serve::ServeStats before_;
  std::vector<double> values_;  // every pass, in order
  QueryPhase q_;
};

// ---------------------------------------------------------------------------
// Single-thread baselines (traced runs): each layer call repeated at 1
// thread and at `threads` on the same input; speedup = t(1) / t(threads).
// ---------------------------------------------------------------------------

double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void add_speedups(Result& r, const LearnSpec& spec, const SetupData& s,
                  const LearnRun& l, const core::SglConfig& config,
                  std::uint64_t seed, Index threads) {
  const la::DenseMatrix& x = s.data.voltages;
  const auto ratio = [](double t1, double tn) { return tn > 0.0 ? t1 / tn : 0.0; };

  // HNSW build and all-points query (built explicitly even where kAuto
  // would brute-force, so the metric exists at every size).
  std::optional<knn::HnswIndex> index_n, index_1;
  const double build_n = timed([&] { index_n.emplace(x, config.knn.hnsw, threads); });
  const double build_1 = timed([&] { index_1.emplace(x, config.knn.hnsw, 1); });
  const double query_n = timed([&] { (void)index_n->knn_all(config.k, threads); });
  const double query_1 = timed([&] { (void)index_1->knn_all(config.k, 1); });
  r.add("knn.hnsw_build.speedup_nproc", ratio(build_1, build_n), "x");
  r.add("knn.query.speedup_nproc", ratio(query_1, query_n), "x");

  // Factorization and triangular sweeps of the final learned graph, with
  // one shared ordering so only the numeric phase differs.
  solver::LaplacianSolverOptions sopt = config.embedding.solver;
  sopt.method = solver::LaplacianMethod::kCholesky;
  const std::vector<Index> perm = solver::compute_ordering(
      solver::grounded_laplacian(l.unscaled), sopt.ordering);
  std::optional<solver::LaplacianPinvSolver> pinv_n, pinv_1;
  sopt.num_threads = threads;
  const double factor_n = timed([&] { pinv_n.emplace(l.unscaled, sopt, perm); });
  sopt.num_threads = 1;
  const double factor_1 = timed([&] { pinv_1.emplace(l.unscaled, sopt, perm); });
  r.add("solver.factor.speedup_nproc", ratio(factor_1, factor_n), "x");
  la::DenseMatrix out(x.rows(), x.cols());
  const double sweep_n = timed([&] {
    pinv_n->apply_block(la::view_of(s.data.currents), la::view_of(out), threads);
  });
  const double sweep_1 = timed([&] {
    pinv_n->apply_block(la::view_of(s.data.currents), la::view_of(out), 1);
  });
  r.add("solver.sweep.speedup_nproc", ratio(sweep_1, sweep_n), "x");

  // Measurement generation on a column subset (the full M at one thread
  // would dominate the mesh256 run); both thread counts see the same input.
  LearnSpec sub = spec;
  sub.measurements = std::min<Index>(spec.measurements, 8);
  const double gen_n = timed([&] {
    (void)measure::generate_measurements(s.truth, measurement_options(sub, seed, threads));
  });
  const double gen_1 = timed([&] {
    (void)measure::generate_measurements(s.truth, measurement_options(sub, seed, 1));
  });
  r.add("measure.generate.speedup_nproc", ratio(gen_1, gen_n), "x");

  // Embedding of the final learned graph.
  spectral::EmbeddingOptions emb = config.embedding;
  const double embed_n = timed([&] { (void)spectral::compute_embedding(l.unscaled, emb); });
  emb.solver.num_threads = 1;
  emb.lanczos.num_threads = 1;
  emb.sf.num_threads = 1;
  const double embed_1 = timed([&] { (void)spectral::compute_embedding(l.unscaled, emb); });
  r.add("spectral.embed.speedup_nproc", ratio(embed_1, embed_n), "x");
}

/// AMG-PCG measurement solve on the ground truth, for workloads whose
/// kAuto measurement solve resolves to Cholesky: keeps solver.amg_setup_s
/// and solver.pcg_iterations measured everywhere. Probe spans are outside
/// the setup/learn accounting.
void amg_probe(Tracer& tracer, LayerCounters& counters, const SetupData& s,
               Index threads) {
  if (tracer.total("solver.amg_setup") > 0.0) return;
  tracer.begin_probe();
  solver::LaplacianSolverOptions sopt;
  sopt.method = solver::LaplacianMethod::kPcgAmg;
  sopt.num_threads = threads;
  std::optional<solver::LaplacianPinvSolver> pinv;
  {
    const Scope span(tracer, "solver.amg_setup", -1, true);
    pinv.emplace(s.truth, sopt);
  }
  traced_apply(tracer, counters, *pinv, s.data.currents, threads, -1);
  tracer.end_probe();
}

/// Per-layer metrics shared by every traced workload.
void add_layer_metrics(Result& r, const Tracer& t, const LayerCounters& c,
                       double setup_s, double learn_s, double untraced_learn_s) {
  r.add("measure.generate_s", t.total("measure.generate"), "s");
  r.add("solver.amg_setup_s", t.total("solver.amg_setup"), "s");
  r.add("solver.pcg_solve_s", t.total("solver.pcg_solve"), "s");
  r.add("solver.pcg_iterations", c.pcg_iterations, "count");
  r.add("solver.order_s", t.total("solver.order"), "s");
  r.add("solver.factor_s", t.total("solver.factor"), "s");
  r.add("solver.factor_nnz", c.factor_nnz, "count");
  r.add("solver.sweep_s", t.total("solver.sweep"), "s");
  r.add("knn.hnsw_build_s", t.total("knn.hnsw_build"), "s");
  r.add("knn.query_s", t.total("knn.query"), "s");
  r.add("knn.edges", c.knn_edges, "count");
  r.add("graph.mst_s", t.total("graph.mst"), "s");
  r.add("spectral.embed_s", t.total("spectral.embed"), "s");
  r.add("spectral.smoother_sweeps", c.smoother_sweeps, "count");
  r.add("eig.lanczos_steps", c.lanczos_steps, "count");
  const double step = t.total("core.step");
  r.add("core.init_s", t.total("core.init"), "s");
  r.add("core.step_s", step, "s");
  r.add("core.scan_select_s", step - t.total("spectral.embed"), "s");
  r.add("core.finalize_s", t.total("core.finalize"), "s");
  r.add("core.iterations", c.iterations, "count");

  const std::map<std::string, double> self = t.self_by_layer();
  double self_sum = 0.0;
  std::string table = "# self_time_s {";
  for (const auto& [layer, sec] : self) {
    self_sum += sec;
    table += "\"" + layer + "\": " + json_number(sec) + ", ";
  }
  table += "\"total\": " + json_number(self_sum) + "}";
  std::printf("%s\n", table.c_str());
  for (const char* layer : {"measure", "solver", "knn", "graph", "spectral", "core"}) {
    const auto it = self.find(layer);
    r.add(std::string("self.") + layer + "_s", it == self.end() ? 0.0 : it->second, "s");
  }
  r.add("trace.setup_s", setup_s, "s");
  r.add("trace.learn_s", learn_s, "s");
  r.add("trace.self_sum_s", self_sum, "s");
  r.add("trace.overhead_s", learn_s - untraced_learn_s, "s");
}

// ---------------------------------------------------------------------------
// Learn workloads: mesh256, mesh96
// ---------------------------------------------------------------------------

struct Determinism {
  Index iterations = -1;
  Index edges = -1;
  std::uint64_t endpoints = 0;
  std::uint64_t weights = 0;
};

/// Gates on one learn; returns the failure reasons (empty when it passed).
std::vector<std::string> learn_gates(const LearnRun& l, const core::SglConfig& config,
                                     std::optional<Determinism>& first) {
  std::vector<std::string> why;
  const core::SglResult& res = l.result;
  std::string reason;
  if (!learned_graph_ok(res.learned.num_nodes(), edge_list(res.learned), &reason))
    why.push_back(reason);
  if (!res.converged || !(res.final_smax < config.tolerance))
    why.push_back("no smax < tolerance certificate (converged=" +
                  std::to_string(res.converged) + ", final_smax=" +
                  json_number(res.final_smax) + ")");
  const graph::GraphKey key = graph::graph_key(res.learned);
  const Determinism d{res.iterations, res.learned.num_edges(), key.endpoints, key.weights};
  if (!first) {
    first = d;
  } else if (d.iterations != first->iterations || d.edges != first->edges ||
             d.endpoints != first->endpoints || d.weights != first->weights) {
    why.push_back("learned graph differs between runs of one seed");
  }
  return why;
}

Result run_learn_workload(const Options& o) {
  const bool big = o.workload == "mesh256";
  LearnSpec spec;
  spec.side = o.tiny ? (big ? 40 : 24) : (big ? 256 : 96);
  spec.ef_construction = big ? 120 : 0;
  const Index num_pairs = o.tiny ? 60 : kReffPairs;
  const core::SglConfig config = learn_config(spec, o.threads);
  Result r;

  Tracer off(false, "");
  LayerCounters unused;
  std::optional<Determinism> first;
  std::vector<std::pair<Index, Index>> pairs;
  std::vector<double> truth_reff;
  std::optional<LearnedGraphQueries> server;
  // Serves the learned graph (once per run) on the reff_corr pairs.
  const auto serve_learned = [&](const SetupData& s, const LearnRun& l, bool trace) {
    pairs = spectral::sample_node_pairs_by_hops(s.truth, num_pairs, kReffPairSeed);
    truth_reff = exact_resistances(s.truth, pairs, o.threads);
    server.emplace(l.result.learned, pairs, trace);
  };
  // Gates the query passes and scores the served answers against the
  // ground truth.
  const auto score = [&](double density) {
    QueryPhase q = server->finish();
    r.attempted += q.attempted;
    if (q.failed > 0) r.fail(o.workload + " queries: " + join(q.errors), q.failed);
    const double reff_corr = pearson(truth_reff, q.learned);
    if (!(reff_corr >= kReffCorrFloor))
      r.fail("reff_corr " + json_number(reff_corr) + " below floor");
    std::printf("# quality reff_corr=%s density=%s\n", json_number(reff_corr).c_str(),
                json_number(density).c_str());
    return std::make_pair(std::move(q), reff_corr);
  };
  const auto learn = [&](const SetupData& s, Tracer& t, LayerCounters& c) {
    LearnRun l = run_learn(s, config, t, c);
    r.attempted += 1;
    for (const std::string& w : learn_gates(l, config, first)) r.fail(o.workload + ": " + w);
    return l;
  };

  if (!o.trace) {
    // Rounds repeat setup → learn until --seconds have passed, so setup_s
    // and learn_s are medians over rounds; round 0's learned graph is
    // served. Miss samples are taken before the first round and, with
    // query passes, after every learn. When one round outlasts --seconds
    // (mesh256), its setup is learned a second time so the determinism
    // gate always compares two learns.
    const graph::Graph truth = graph::make_grid2d(spec.side, spec.side, spec.periodic).graph;
    std::vector<double> misses;
    long miss_failures = 0;
    const auto sample_point = [&] {
      sample_misses(truth, misses, miss_failures);
      for (std::size_t k = 0; k < kPassesPerPoint; ++k) server->pass();
    };
    sample_misses(truth, misses, miss_failures);
    const double start = now_s();
    std::vector<double> setups, learns;
    std::optional<SetupData> last;
    double density = 0.0;
    do {
      last = run_setup(spec, o.seed, o.threads, off, unused);
      const LearnRun l = learn(*last, off, unused);
      setups.push_back(last->setup_s);
      learns.push_back(l.learn_s);
      density = l.result.learned.density();
      if (!server) serve_learned(*last, l, false);
      sample_point();
    } while (now_s() - start < o.seconds);
    if (learns.size() < 2) {
      learns.push_back(learn(*last, off, unused).learn_s);
      sample_point();
    }
    const QueryPhase q = score(density).first;
    r.attempted += static_cast<long>(misses.size());
    if (miss_failures > 0) r.fail(o.workload + ": miss queries failed", miss_failures);
    r.add("setup_s", median(setups), "s");
    r.add("learn_s", median(learns), "s");
    r.add("density", density, "edges/node");
    r.add("queries_per_s", median(q.pass_qps), "1/s");
    r.add("query_p50_us", 1e6 * percentile(q.latency_s, 0.50), "us");
    r.add("miss_p50_ms", 1e3 * median(misses), "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# rounds=%zu learns=%zu iterations=%d edges=%d passes=%zu queries=%zu "
                "misses=%zu query_p99_us=%.1f\n",
                setups.size(), learns.size(), first ? first->iterations : -1,
                first ? first->edges : -1, q.pass_qps.size(), q.latency_s.size(),
                misses.size(), 1e6 * percentile(q.latency_s, 0.99));
    return r;
  }

  // Traced run: a traced setup, an untraced learn on it (the overhead
  // baseline), the traced learn, the query phase's serve layer, the AMG
  // probe, and the single-thread baselines.
  Tracer tracer(true, o.workload + "-seed" + std::to_string(o.seed));
  LayerCounters counters;
  const SetupData s = run_setup(spec, o.seed, o.threads, tracer, counters);
  const LearnRun untraced = learn(s, off, unused);
  const LearnRun l = learn(s, tracer, counters);
  serve_learned(s, l, true);
  for (std::size_t k = 0; k < 2 * kPassesPerPoint; ++k) server->pass();
  const auto [q, reff_corr] = score(l.result.learned.density());
  double setup_s = 0.0;
  for (const char* root : {"graph.generate", "measure.generate"}) setup_s += tracer.total(root);
  amg_probe(tracer, counters, s, o.threads);
  add_layer_metrics(r, tracer, counters, setup_s, l.learn_s, untraced.learn_s);
  r.add("core.reff_corr", reff_corr, "ratio");
  add_serve_layer_metrics(r, q.logs, q.delta);
  add_speedups(r, spec, s, l, config, o.seed, o.threads);
  tracer.write_chrome_trace(o.trace_out);
  return r;
}

// ---------------------------------------------------------------------------
// serve-mix: hot learned graph + cold graphs that cycle through the LRU
// ---------------------------------------------------------------------------

struct ServeSpec {
  Index hot_side = 128;     // learn_synthetic grid2d (open boundary)
  Index cold_side = 32;     // cold grids with seeded random weights
  Index cold_graphs = 5;    // > the LRU's 4 slots: every cold query misses
  Index solve_every = 256;  // every 256th hot query is a full `solve`
  double cold_per_second = 130.0;  // cold request budget per second of --seconds
  Index setup_rounds = 5;   // setups per run; setup_s is their median
  Index num_pairs = kReffPairs;  // reff_corr pairs on the hot graph
};

/// The learn_synthetic request's seed field is an Index.
Index wire_seed(std::uint64_t seed) { return static_cast<Index>(seed % 1000000007ULL); }

std::string learn_synthetic_request(const ServeSpec& spec, std::uint64_t seed) {
  return "{\"op\":\"learn_synthetic\",\"id\":0,\"graph\":\"grid2d\",\"nx\":" +
         std::to_string(spec.hot_side) + ",\"ny\":" + std::to_string(spec.hot_side) +
         ",\"measurements\":50,\"seed\":" + std::to_string(wire_seed(seed)) + "}";
}

std::vector<std::string> cold_graph_requests(const ServeSpec& spec, std::uint64_t seed) {
  std::vector<std::string> lines;
  for (Index g = 0; g < spec.cold_graphs; ++g) {
    const graph::Graph grid = graph::make_grid2d(spec.cold_side, spec.cold_side).graph;
    Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(g) + 1);
    std::string line = "{\"op\":\"load_graph\",\"id\":" + std::to_string(g + 1) +
                       ",\"num_nodes\":" + std::to_string(grid.num_nodes()) + ",\"edges\":[";
    for (Index e = 0; e < grid.num_edges(); ++e) {
      const graph::Edge& edge = grid.edge(e);
      if (e > 0) line += ',';
      line += "[" + std::to_string(edge.s) + "," + std::to_string(edge.t) + "," +
              json_number(rng.uniform(0.5, 1.5)) + "]";
    }
    line += "]}";
    lines.push_back(std::move(line));
  }
  return lines;
}

struct ServeSetup {
  std::unique_ptr<serve::ServeEngine> engine;
  std::string hot_key;
  std::vector<std::string> cold_keys;
  Index hot_nodes = 0;
  Index hot_edges = 0;
  Index cold_nodes = 0;
  Index iterations = 0;
  bool converged = false;
  double final_smax = 0.0;
  double setup_s = 0.0;
  double learn_s = 0.0;
  std::vector<std::string> errors;
};

serve::ServeOptions mix_serve_options() {
  serve::ServeOptions so;
  so.num_threads = 1;  // 4 clients = nproc; workers stay inside them
  so.solver.num_threads = 1;
  return so;
}

/// learn_synthetic + load_graph × cold_graphs, until the first query. In a
/// traced run each request is a real serve.handle span, and the learn is
/// shadowed under its request with the same public calls learn_synthetic
/// makes (make_grid2d, generate_measurements, SglLearner).
ServeSetup serve_setup(const LearnSpec& hot, std::uint64_t seed,
                       const std::string& learn_line,
                       const std::vector<std::string>& cold_lines, Index threads,
                       Tracer& tracer, LayerCounters& counters,
                       std::optional<std::pair<SetupData, LearnRun>>& shadow) {
  ServeSetup out;
  const double t0 = now_s();
  out.engine = std::make_unique<serve::ServeEngine>(mix_serve_options());
  const int req = tracer.open("serve.handle");
  const std::string learned = serve::handle_request(*out.engine, learn_line).response;
  tracer.close(req);
  out.learn_s = now_s() - t0;
  std::vector<std::string> loaded;
  for (const std::string& line : cold_lines) {
    const Scope span(tracer, "serve.handle");
    loaded.push_back(serve::handle_request(*out.engine, line).response);
  }
  out.setup_s = now_s() - t0;
  if (tracer.enabled()) {
    out.learn_s = tracer.duration(req);
    out.setup_s = tracer.real_root_total();
  }

  if (!response_ok(learned)) {
    out.errors.push_back("learn_synthetic failed: " + learned);
    return out;
  }
  const serve::JsonValue lr = serve::json_parse(learned);
  out.hot_key = serve::json_serialize(*lr.find("key"));
  out.hot_nodes = static_cast<Index>(lr.find("num_nodes")->as_number());
  out.hot_edges = static_cast<Index>(lr.find("num_edges")->as_number());
  out.iterations = static_cast<Index>(lr.find("iterations")->as_number());
  out.converged = lr.find("converged")->as_bool();
  out.final_smax = lr.find("final_smax")->as_number();
  for (const std::string& response : loaded) {
    if (!response_ok(response)) {
      out.errors.push_back("load_graph failed: " + response);
      continue;
    }
    const serve::JsonValue v = serve::json_parse(response);
    out.cold_keys.push_back(serve::json_serialize(*v.find("key")));
    out.cold_nodes = static_cast<Index>(v.find("num_nodes")->as_number());
  }

  if (tracer.enabled()) {
    SetupData s = run_setup(hot, static_cast<std::uint64_t>(wire_seed(seed)), threads,
                            tracer, counters, req);
    LearnRun l = run_learn(s, learn_config(hot, threads), tracer, counters, req);
    shadow.emplace(std::move(s), std::move(l));
  }
  return out;
}

struct MixWindow {
  std::vector<ClientLog> logs;  // hot clients, then the cold client
  double t0 = 0.0;
  double window_s = 0.0;
  serve::ServeStats delta;
  long hot_ok = 0;
  long cold_ok = 0;
  long bad = 0;
};

MixWindow serve_window(serve::ServeEngine& engine, const ServeSetup& setup,
                       const ServeSpec& spec, std::uint64_t seed, Index threads,
                       double seconds, bool trace) {
  MixWindow w;
  const Index hot_clients = std::max<Index>(1, threads - 1);
  w.logs.resize(static_cast<std::size_t>(hot_clients) + 1);
  std::atomic<bool> stop{false};
  const serve::ServeStats before = engine.stats();
  const double t0 = now_s();
  w.t0 = t0;
  std::vector<std::thread> clients;
  for (Index c = 0; c < hot_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = w.logs[static_cast<std::size_t>(c)];
      Rng rng(seed * 7919ULL + static_cast<std::uint64_t>(c) + 1);
      for (long k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const long id = (static_cast<long>(c) + 1) * 1000000000L + k;
        const Index s = rng.uniform_index(setup.hot_nodes);
        Index t = rng.uniform_index(setup.hot_nodes - 1);
        if (t >= s) ++t;
        const bool solve = k % spec.solve_every == spec.solve_every - 1;
        const std::string line = solve
            ? solve_request(id, setup.hot_nodes, s, t, setup.hot_key)
            : resistance_request(id, s, t, setup.hot_key);
        const std::string response = timed_request(engine, line, log, trace);
        const bool ok = solve ? response_ok(response)
                              : response_ok(response) && !std::isnan(resistance_value(response));
        ok ? ++log.ok : ++log.bad;
        if (k % 64 == 0) log.sample.emplace_back(line, response);
      }
    });
  }
  // The cold client sends its requests back to back, a fixed budget of
  // them, and the window ends with its last reply: the miss count repeats
  // from run to run, and the window lasts about --seconds on a commit that
  // serves cold_per_second misses beside the hot clients.
  const long cold_requests = std::max(5L, std::lround(seconds * spec.cold_per_second));
  std::thread cold([&] {
    ClientLog& log = w.logs.back();
    Rng rng(seed * 104729ULL + 17);
    const Index n = setup.cold_nodes;
    for (long k = 0; k < cold_requests; ++k) {
      const std::string& key =
          setup.cold_keys[static_cast<std::size_t>(k) % setup.cold_keys.size()];
      const Index s = rng.uniform_index(n);
      Index t = rng.uniform_index(n - 1);
      if (t >= s) ++t;
      const std::string line = resistance_request(k, s, t, key);
      const std::string response = timed_request(engine, line, log, trace);
      const bool ok = response_ok(response) && !std::isnan(resistance_value(response));
      ok ? ++log.ok : ++log.bad;
      if (k % 8 == 0) log.sample.emplace_back(line, response);
    }
  });
  cold.join();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  w.window_s = now_s() - t0;
  w.delta = stats_delta(before, engine.stats());
  for (std::size_t i = 0; i < w.logs.size(); ++i) {
    (i + 1 < w.logs.size() ? w.hot_ok : w.cold_ok) += w.logs[i].ok;
    w.bad += w.logs[i].bad;
  }
  return w;
}

/// The window's end-to-end numbers as medians over kSlices equal time
/// slices (requests binned by completion time), so one burst of host
/// contention moves one slice, not the result.
struct MixMetrics {
  double qps = 0.0;
  double hot_p50_s = 0.0;
  double hot_p99_s = 0.0;
  double miss_p50_s = 0.0;
};

MixMetrics slice_medians(const MixWindow& w) {
  constexpr int kSlices = 5;
  const double slice = w.window_s / kSlices;
  std::vector<std::vector<double>> hot(kSlices), cold(kSlices);
  for (std::size_t i = 0; i < w.logs.size(); ++i) {
    const ClientLog& log = w.logs[i];
    auto& bins = i + 1 < w.logs.size() ? hot : cold;
    for (std::size_t j = 0; j < log.latency_s.size(); ++j) {
      const int b = std::min(kSlices - 1, static_cast<int>((log.end_s[j] - w.t0) / slice));
      bins[static_cast<std::size_t>(b)].push_back(log.latency_s[j]);
    }
  }
  std::vector<double> qps, p50, p99, miss;
  for (int b = 0; b < kSlices; ++b) {
    const auto& h = hot[static_cast<std::size_t>(b)];
    const auto& c = cold[static_cast<std::size_t>(b)];
    qps.push_back(static_cast<double>(h.size() + c.size()) / slice);
    p50.push_back(percentile(h, 0.50));
    p99.push_back(percentile(h, 0.99));
    miss.push_back(median(c));
  }
  return {median(qps), median(p50), median(p99), median(miss)};
}

Result run_serve_mix(const Options& o) {
  // glibc raises its mmap threshold each time a large block is freed, after
  // which the window's batch blocks (up to 16 x 16,384 doubles) and solve
  // lines are kept in per-thread arenas: how much depends on which client
  // thread allocated what, and added 0-18 MB of retained memory to
  // peak_rss_mb from run to run. A fixed threshold (glibc's 128 KiB
  // default) returns them to the system when freed, so peak_rss_mb is the
  // live high-water mark.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ServeSpec spec;
  if (o.tiny) {
    spec.hot_side = 24;
    spec.cold_side = 12;
    spec.setup_rounds = 2;
    spec.num_pairs = 60;
  }
  // The ground truth learn_synthetic builds for the hot graph.
  LearnSpec hot;
  hot.side = spec.hot_side;
  hot.periodic = false;
  Result r;
  const std::string learn_line = learn_synthetic_request(spec, o.seed);
  const std::vector<std::string> cold_lines = cold_graph_requests(spec, o.seed);

  Tracer off(false, "");
  Tracer tracer(o.trace, o.workload + "-seed" + std::to_string(o.seed));
  LayerCounters counters;
  std::optional<std::pair<SetupData, LearnRun>> shadow;
  std::vector<double> setups, learns;
  ServeSetup setup;
  const Index rounds = o.trace ? 1 : spec.setup_rounds;
  for (Index round = 0; round < rounds; ++round) {
    setup.engine.reset();  // one engine alive at a time
    ServeSetup next = serve_setup(hot, o.seed, learn_line, cold_lines, o.threads,
                                  o.trace ? tracer : off, counters, shadow);
    r.attempted += 1 + static_cast<long>(cold_lines.size());
    if (!next.errors.empty()) {
      r.fail("serve-mix setup: " + join(next.errors), static_cast<long>(next.errors.size()));
      print_result(r);
      std::exit(0);
    }
    if (round > 0 && (next.hot_key != setup.hot_key || next.iterations != setup.iterations))
      r.fail("serve-mix: learn_synthetic differs between setups of one seed");
    setups.push_back(next.setup_s);
    learns.push_back(next.learn_s);
    setup = std::move(next);
  }
  if (!setup.converged || !(setup.final_smax < core::SglConfig{}.tolerance))
    r.fail("serve-mix: learned hot graph has no smax < tolerance certificate");

  // Prime the hot factorization (the one expected hot miss), then run the
  // closed-loop window.
  {
    const std::string first = serve::handle_request(
        *setup.engine, resistance_request(0, 0, 1, setup.hot_key)).response;
    if (!response_ok(first)) r.fail("serve-mix: first hot query failed");
  }
  MixWindow w = serve_window(*setup.engine, setup, spec, o.seed, o.threads, o.seconds, o.trace);
  const double rss_mb = peak_rss_mb();  // before the quality check's own solves
  const long cold_queries = w.logs.back().ok + w.logs.back().bad;
  r.attempted += w.hot_ok + w.cold_ok + w.bad;
  if (w.bad > 0) r.fail("serve-mix: " + std::to_string(w.bad) + " responses not ok", w.bad);
  // Every cold query must miss. The hot graph may also be evicted (LRU)
  // when three cold misses land while no hot query touches it, so misses
  // can exceed the cold count by those hot re-misses.
  if (w.delta.cache_misses < cold_queries)
    r.fail("serve-mix: cache_misses " + std::to_string(w.delta.cache_misses) +
           " < cold queries " + std::to_string(cold_queries));
  if (const long bad = replay_mismatches(*setup.engine, w.logs); bad > 0)
    r.fail("serve-mix: " + std::to_string(bad) + " responses differ from the width-1 replay", bad);

  // Quality of the hot learned graph, after timing.
  const graph::Graph truth = graph::make_grid2d(hot.side, hot.side, hot.periodic).graph;
  const auto pairs = spectral::sample_node_pairs_by_hops(truth, spec.num_pairs, kReffPairSeed);
  const std::vector<double> ref = exact_resistances(truth, pairs, o.threads);
  const std::vector<double> app = setup.engine->effective_resistance_batch(
      pairs, serve::graph_key_from_json(serve::json_parse(setup.hot_key)));
  const double reff_corr = pearson(ref, app);
  if (!(reff_corr >= kReffCorrFloor))
    r.fail("serve-mix: reff_corr " + json_number(reff_corr) + " below floor");
  std::printf("# quality reff_corr=%s\n", json_number(reff_corr).c_str());

  if (!o.trace) {
    const MixMetrics m = slice_medians(w);
    r.add("setup_s", median(setups), "s");
    r.add("learn_s", median(learns), "s");
    r.add("density", static_cast<double>(setup.hot_edges) / static_cast<double>(setup.hot_nodes),
          "edges/node");
    r.add("queries_per_s", m.qps, "1/s");
    r.add("query_p50_us", 1e6 * m.hot_p50_s, "us");
    r.add("miss_p50_ms", 1e3 * m.miss_p50_s, "ms");
    r.add("peak_rss_mb", rss_mb, "MB");
    std::printf("# setups=%zu iterations=%d hot_ok=%ld cold_ok=%ld hot_re_misses=%ld "
                "window_s=%.3f batches=%d batched_columns=%d query_p99_us=%.1f\n",
                setups.size(), setup.iterations, w.hot_ok, w.cold_ok,
                static_cast<long>(w.delta.cache_misses) - cold_queries, w.window_s,
                w.delta.batches, w.delta.batched_columns, 1e6 * m.hot_p99_s);
    return r;
  }

  // Traced: the shadow learn of the hot graph carries the learn layers.
  const SetupData& s = shadow->first;
  const LearnRun& l = shadow->second;
  LayerCounters unused;
  const LearnRun untraced = run_learn(s, learn_config(hot, o.threads), off, unused);
  amg_probe(tracer, counters, s, o.threads);
  add_layer_metrics(r, tracer, counters, setups.front(), l.learn_s, untraced.learn_s);
  r.add("core.reff_corr", reff_corr, "ratio");
  add_serve_layer_metrics(r, w.logs, w.delta);
  add_speedups(r, hot, s, l, learn_config(hot, o.threads), o.seed, o.threads);
  tracer.write_chrome_trace(o.trace_out);
  return r;
}

// ---------------------------------------------------------------------------
// Gate self-test: the learned-graph gate must pass on a real learned graph
// and fire on corrupted copies of it.
// ---------------------------------------------------------------------------

int run_gate_selftest(Index threads) {
  LearnSpec spec;
  spec.side = 12;
  Tracer off(false, "");
  LayerCounters unused;
  const SetupData s = run_setup(spec, 7, threads, off, unused);
  const LearnRun l = run_learn(s, learn_config(spec, threads), off, unused);
  const Index n = l.result.learned.num_nodes();
  const std::vector<graph::Edge> edges = edge_list(l.result.learned);

  std::vector<graph::Edge> negative = edges;
  negative[negative.size() / 2].weight = -negative[negative.size() / 2].weight;
  std::vector<graph::Edge> nan_weight = edges;
  nan_weight.front().weight = std::nan("");
  std::vector<graph::Edge> disconnected;
  for (const graph::Edge& e : edges)
    if (e.s != 0 && e.t != 0) disconnected.push_back(e);

  const bool clean = learned_graph_ok(n, edges, nullptr);
  const bool fires = !learned_graph_ok(n, negative, nullptr) &&
                     !learned_graph_ok(n, nan_weight, nullptr) &&
                     !learned_graph_ok(n, disconnected, nullptr);
  std::printf("{\"gate_selftest\": {\"clean_passes\": %s, \"corrupted_fail\": %s}}\n",
              clean ? "true" : "false", fires ? "true" : "false");
  return clean && fires ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr,
               "sgl_perfbench: refusing to record numbers from a build without "
               "NDEBUG (configure with CMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  // Library-default thread counts (used by learn_synthetic, whose config
  // carries no thread knob) follow nproc, not the caller's environment.
  setenv("SGL_NUM_THREADS", std::to_string(o.threads).c_str(), 1);
  print_host(o);
  try {
    if (o.gate_selftest) return run_gate_selftest(o.threads);
    const Result r = o.workload == "serve-mix" ? run_serve_mix(o) : run_learn_workload(o);
    print_result(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sgl_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
