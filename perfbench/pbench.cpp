// Serving-tier benchmark harness (see README.md; run.py is the entry point).
//
// Drives query_service over one backend with one workload, times it from
// outside the program, and checks its answers. Modes:
//
//   pbench gen   --workload W --seed S --seconds T --out FILE
//       Writes the workload's initial points and request stream to FILE.
//   pbench serve --workload W --backend B --seed S --seconds T --stream FILE
//       End-to-end pass in rounds of fresh services: set-up time,
//       throughput, batch latency and resident memory, timings scaled to
//       a reference machine speed.
//   pbench trace --workload W --backend B --seed S --seconds T --stream FILE
//                --trace-out FILE
//       Per-layer pass: a telemetry=trace service with harness spans around
//       the calls into it, untraced and telemetry=off comparison windows, a
//       one-engine replay through a timing spatial_index decorator, and the
//       paper structures called directly. Writes the spans as Chrome JSON.
//
// Every mode prints one JSON object on its last stdout line. The stream is
// generated in its own process and read back batch by batch, so the
// serving process's resident memory is the service's and not the stream's.
//
// Only public headers are used, and service internals are read only through
// metrics_text() family names (an absent family reads as null), so the same
// file builds against older and newer revisions of src/.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdltree/bdl_tree.h"
#include "kdtree/kdtree.h"
#include "query/query_engine.h"
#include "query/query_service.h"
#include "query/spatial_index.h"
#include "query/workload.h"
#include "zdtree/zdtree.h"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#error "perfbench times optimized code only: build with -O2/-O3 -DNDEBUG"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif

namespace {

using namespace pargeo;
using namespace pargeo::query;

constexpr int D = 2;
using pt = point<D>;
using req = request<D>;
using clk = std::chrono::steady_clock;

double secs_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workloads -------------------------------------------------------------

/// Both workloads are a closed loop of one producer keeping up to this
/// many batches in flight, over uniformly distributed points.
constexpr std::size_t kInflight = 4;

struct workload_def {
  const char* name;
  std::size_t n;         // initial points
  double read_frac;      // reads split 70% k-NN / 15% box / 15% ball
  std::size_t batch;     // requests per submitted batch
  double stream_rate;    // requests per second the generated stream covers
  std::size_t sample_every;  // reference check: 1 in this many reads
  int rounds;            // fresh services per backend in `serve` (README.md)
};

// Why each workload exists: README.md.
const workload_def kWorkloads[] = {
    {"write_mix", 50000, 0.50, 2048, 300000, 64, 1},
    {"read_large", 1000000, 0.95, 32, 100000, 256, 4},
};

const workload_def& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (want write_mix|read_large)");
}

std::size_t stream_ops(const workload_def& w, double seconds) {
  return static_cast<std::size_t>(w.stream_rate * seconds) + 4 * w.batch;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool sampled(const workload_def& w, std::uint64_t seed, std::size_t i,
             const req& r) {
  return is_read(r.kind) &&
         mix64(seed * 0x2545f4914f6cdd1dULL + i) % w.sample_every == 0;
}

// ---- stream file -----------------------------------------------------------

constexpr char kMagic[8] = {'P', 'B', 'S', 'T', 'R', 'M', '1', '\0'};

struct stream_header {
  char magic[8];
  std::uint64_t n_initial;
  std::uint64_t n_ops;
  std::uint64_t req_size;
};

void write_stream(const std::string& path, const std::vector<pt>& initial,
                  const std::vector<req>& reqs) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write stream file " + path);
  stream_header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.n_initial = initial.size();
  h.n_ops = reqs.size();
  h.req_size = sizeof(req);
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
  os.write(reinterpret_cast<const char*>(initial.data()),
           static_cast<std::streamsize>(initial.size() * sizeof(pt)));
  os.write(reinterpret_cast<const char*>(reqs.data()),
           static_cast<std::streamsize>(reqs.size() * sizeof(req)));
  if (!os) throw std::runtime_error("short write to stream file " + path);
}

/// Sequential reader over a stream file; requests come back in batches.
class stream_reader {
 public:
  explicit stream_reader(const std::string& path)
      : is_(path, std::ios::binary) {
    if (!is_) throw std::runtime_error("cannot open stream file " + path);
    is_.read(reinterpret_cast<char*>(&h_), sizeof(h_));
    if (!is_ || std::memcmp(h_.magic, kMagic, sizeof(kMagic)) != 0 ||
        h_.req_size != sizeof(req)) {
      throw std::runtime_error("bad stream file " + path);
    }
  }

  std::vector<pt> initial() {
    std::vector<pt> pts(h_.n_initial);
    is_.seekg(sizeof(h_));
    is_.read(reinterpret_cast<char*>(pts.data()),
             static_cast<std::streamsize>(pts.size() * sizeof(pt)));
    if (!is_) throw std::runtime_error("truncated stream file");
    next_ = 0;
    return pts;
  }

  /// Rewinds to the first request.
  void rewind() {
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(sizeof(h_) +
                                          h_.n_initial * sizeof(pt)));
    next_ = 0;
  }

  /// Reads up to `n` requests into `out`; returns the stream index of the
  /// first one. `out` is empty once the stream is exhausted.
  std::size_t next(std::size_t n, std::vector<req>& out) {
    const std::size_t first = next_;
    const std::size_t take =
        std::min<std::size_t>(n, h_.n_ops - std::min<std::size_t>(next_, h_.n_ops));
    out.resize(take);
    if (take > 0) {
      is_.read(reinterpret_cast<char*>(out.data()),
               static_cast<std::streamsize>(take * sizeof(req)));
      if (!is_) throw std::runtime_error("truncated stream file");
    }
    next_ += take;
    return first;
  }

 private:
  std::ifstream is_;
  stream_header h_{};
  std::size_t next_ = 0;
};

// ---- statistics ------------------------------------------------------------

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct proc_usage {
  double cpu_s = 0;
  double minflt = 0;
  double ctxsw = 0;
};

proc_usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  proc_usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.ctxsw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

/// Resident set of this process in MB (second field of /proc/self/statm).
double rss_mb() {
  std::ifstream is("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  if (!(is >> size_pages >> resident_pages)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Samples rss_mb() every 5 ms from its own thread until stopped. The
/// median of the samples is the service's resident memory while serving;
/// unlike the process-lifetime peak it does not depend on whether shard
/// rebuilds happened to overlap for a few milliseconds.
class rss_sampler {
 public:
  rss_sampler() : thread_([this] { run(); }) {}
  ~rss_sampler() { stop(); }
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;

  /// Stops sampling; returns the samples' median in MB.
  double stop_median() {
    stop();
    return query::percentile(samples_, 50);
  }

 private:
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  void run() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!done_) {
      samples_.push_back(rss_mb());
      cv_.wait_for(lk, std::chrono::milliseconds(5), [this] { return done_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

// ---- machine speed ---------------------------------------------------------

/// Seconds one pass of a fixed kernel takes, median of `reps` passes: a
/// brute-force nearest-neighbour scan of 256 queries over 64k points
/// (arithmetic, L2-resident) and a dependent random walk of 256k steps over
/// 16 MB (memory latency). It calls no library code, so it times the
/// machine and not the program; serve scales its timings by it.
double kernel_seconds(int reps) {
  constexpr std::size_t kPts = 1 << 16, kQueries = 256, kSlots = 1 << 22,
                        kSteps = 1 << 18;
  static const std::vector<pt> pts = [] {
    std::vector<pt> v(kPts);
    for (std::size_t i = 0; i < kPts; ++i) {
      for (int d = 0; d < D; ++d) {
        v[i][d] = static_cast<double>(mix64(i * D + d) >> 11) * 0x1p-53;
      }
    }
    return v;
  }();
  static const std::vector<std::uint32_t> next = [] {
    // One cycle through every slot (Sattolo's shuffle).
    std::vector<std::uint32_t> v(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) v[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kSlots - 1; i > 0; --i) {
      std::swap(v[i], v[mix64(i) % i]);
    }
    return v;
  }();
  std::vector<double> times;
  volatile double sink = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clk::now();
    double acc = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const pt& c = pts[q * 97];
      double best = 1e300;
      for (const pt& p : pts) {
        double d2 = 0;
        for (int d = 0; d < D; ++d) d2 += (p[d] - c[d]) * (p[d] - c[d]);
        best = std::min(best, d2 + static_cast<double>(&p == &c));
      }
      acc += best;
    }
    std::uint32_t at = static_cast<std::uint32_t>(r);
    for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
    sink = acc + at;
    times.push_back(secs_between(t0, clk::now()));
  }
  (void)sink;
  return query::percentile(times, 50);
}

// ---- spans -----------------------------------------------------------------

/// In-memory span log: name, start, end, parent; written out at exit as
/// Chrome-trace JSON. Self time = duration minus the part of the interval
/// covered by child spans.
class span_log {
 public:
  struct span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;  // 0: root
    std::uint64_t batch;   // request/batch identifier shared by a chain
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    std::uint32_t tid;
  };

  explicit span_log(bool on) : on_(on), origin_(clk::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() -
                                                                origin_)
        .count();
  }
  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }

  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t batch, std::int64_t t0, std::int64_t t1) {
    if (!on_) return;
    const auto tid = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, id, parent, batch, t0, t1, tid});
  }

  /// Mean self time (µs) of spans named `name`.
  double mean_self_us(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const auto& s : spans_) {
      if (s.parent != 0) children[s.parent].push_back({s.t0_ns, s.t1_ns});
    }
    double total = 0;
    std::size_t n = 0;
    for (const auto& s : spans_) {
      if (name != s.name) continue;
      std::int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur0 = 0, cur1 = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.t0_ns);
          b = std::min(b, s.t1_ns);
          if (b <= a) continue;
          if (a > cur1) {
            if (cur1 > cur0) covered += cur1 - cur0;
            cur0 = a;
            cur1 = b;
          } else {
            cur1 = std::max(cur1, b);
          }
        }
        if (cur1 > cur0) covered += cur1 - cur0;
      }
      total += static_cast<double>(s.t1_ns - s.t0_ns - covered) * 1e-3;
      ++n;
    }
    return n ? total / static_cast<double>(n) : 0;
  }

  void write_chrome(const std::string& path, const std::string& process,
                    std::size_t cap) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"process\":\""
       << process << "\",\"spans_total\":" << spans_.size()
       << ",\"spans_written\":" << std::min(cap, spans_.size())
       << "},\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\""
       << process << "\"}}";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size() && i < cap; ++i) {
      const auto& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"batch\":%llu}}",
                    s.name, s.tid, static_cast<double>(s.t0_ns) * 1e-3,
                    static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.batch));
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  const bool on_;
  const clk::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<span> spans_;
};

// ---- metrics_text() reader -------------------------------------------------

/// Parsed Prometheus exposition, looked up by sample name; a family the
/// service does not export reads as std::nullopt.
class metrics_view {
 public:
  explicit metrics_view(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      values_[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }

  std::optional<double> value(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  /// Quantile `q` (seconds) of the stage latency histogram, interpolated
  /// linearly inside the bucket; nullopt if the stage is not exported.
  std::optional<double> stage_quantile(const std::string& stage,
                                       double q) const {
    const std::string prefix =
        "pargeo_stage_latency_seconds_bucket{stage=\"" + stage + "\",le=\"";
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    for (auto it = values_.lower_bound(prefix);
         it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      const std::string le =
          it->first.substr(prefix.size(), it->first.size() - prefix.size() - 2);
      const double bound = le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(), nullptr);
      buckets.push_back({bound, it->second});
    }
    if (buckets.empty()) return std::nullopt;
    std::sort(buckets.begin(), buckets.end());
    const double total = buckets.back().second;
    if (total <= 0) return 0.0;
    const double target = q * total;
    double prev_le = 0, prev_cum = 0;
    for (const auto& [le, cum] : buckets) {
      if (cum >= target) {
        if (le == HUGE_VAL) return prev_le;
        const double in = cum - prev_cum;
        const double frac = in > 0 ? (target - prev_cum) / in : 1.0;
        return prev_le + (le - prev_le) * frac;
      }
      prev_le = le;
      prev_cum = cum;
    }
    return prev_le;
  }

 private:
  std::map<std::string, double> values_;
};

// ---- output checks ---------------------------------------------------------

/// Shape check every response must pass: k-NN rows have min(k, size) rows
/// sorted by distance, range rows lie inside their region, writes are empty.
bool shape_ok(const req& r, const std::vector<pt>& row, std::size_t min_size) {
  switch (r.kind) {
    case op::insert:
    case op::erase:
      return row.empty();
    case op::knn: {
      if (row.size() != std::min(r.k, min_size)) return false;
      double prev = -1;
      for (const auto& p : row) {
        const double d = p.dist_sq(r.p);
        if (d < prev) return false;
        prev = d;
      }
      return true;
    }
    case op::range_box:
      for (const auto& p : row) {
        if (!r.box.contains(p)) return false;
      }
      return true;
    case op::range_ball:
      for (const auto& p : row) {
        if (p.dist_sq(r.p) > r.radius * r.radius) return false;
      }
      return true;
  }
  return false;
}

struct pt_hash {
  std::size_t operator()(const pt& p) const {
    std::uint64_t h = 0;
    for (int d = 0; d < D; ++d) {
      std::uint64_t bits;
      std::memcpy(&bits, &p.x[d], sizeof(bits));
      h = mix64(h ^ bits);
    }
    return static_cast<std::size_t>(h);
  }
};

/// Sequential reference multiset answered by brute force (parallel scans):
/// the oracle the services' answers are compared against.
class reference_set {
 public:
  explicit reference_set(std::vector<pt> initial) : pts_(std::move(initial)) {
    std::sort(pts_.begin(), pts_.end());
    base_ = pts_.size();
    alive_.assign(pts_.size(), 1);
    live_ = pts_.size();
  }

  std::size_t size() const { return live_; }

  void insert(const pt& p) {
    added_[p].push_back(pts_.size());
    pts_.push_back(p);
    alive_.push_back(1);
    ++live_;
  }

  void erase(const pt& p) {
    auto [lo, hi] = std::equal_range(pts_.begin(), pts_.begin() + base_, p);
    for (auto it = lo; it != hi; ++it) {
      const std::size_t i = static_cast<std::size_t>(it - pts_.begin());
      if (alive_[i]) {
        alive_[i] = 0;
        --live_;
        return;
      }
    }
    auto it = added_.find(p);
    if (it == added_.end()) return;
    for (std::size_t i : it->second) {
      if (alive_[i]) {
        alive_[i] = 0;
        --live_;
        return;
      }
    }
  }

  std::vector<double> knn_dists(const pt& q, std::size_t k) const {
    const int nt = omp_get_max_threads();
    std::vector<std::vector<double>> local(nt);
#pragma omp parallel num_threads(nt)
    {
      auto& heap = local[omp_get_thread_num()];
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < pts_.size(); ++i) {
        if (!alive_[i]) continue;
        const double d = pts_[i].dist_sq(q);
        if (heap.size() < k) {
          heap.push_back(d);
          std::push_heap(heap.begin(), heap.end());
        } else if (k > 0 && d < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = d;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
    std::vector<double> all;
    for (const auto& h : local) all.insert(all.end(), h.begin(), h.end());
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

  template <class Pred>
  std::vector<pt> filter(Pred&& keep) const {
    const int nt = omp_get_max_threads();
    std::vector<std::vector<pt>> local(nt);
#pragma omp parallel num_threads(nt)
    {
      auto& out = local[omp_get_thread_num()];
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < pts_.size(); ++i) {
        if (alive_[i] && keep(pts_[i])) out.push_back(pts_[i]);
      }
    }
    std::vector<pt> all;
    for (const auto& o : local) all.insert(all.end(), o.begin(), o.end());
    std::sort(all.begin(), all.end());
    return all;
  }

  /// True if `row` is a correct answer to read request `r`.
  bool matches(const req& r, std::vector<pt> row) const {
    switch (r.kind) {
      case op::knn: {
        std::vector<double> got;
        got.reserve(row.size());
        for (const auto& p : row) got.push_back(p.dist_sq(r.p));
        std::sort(got.begin(), got.end());
        return got == knn_dists(r.p, r.k);
      }
      case op::range_box: {
        std::sort(row.begin(), row.end());
        return row == filter([&](const pt& p) { return r.box.contains(p); });
      }
      case op::range_ball: {
        const double r2 = r.radius * r.radius;
        std::sort(row.begin(), row.end());
        return row == filter([&](const pt& p) { return p.dist_sq(r.p) <= r2; });
      }
      default:
        return row.empty();
    }
  }

 private:
  std::vector<pt> pts_;
  std::vector<std::uint8_t> alive_;
  std::size_t base_ = 0;
  std::size_t live_ = 0;
  std::unordered_map<pt, std::vector<std::size_t>, pt_hash> added_;
};

// ---- serving windows -------------------------------------------------------

struct run_args {
  std::string mode, workload, backend, stream, out, trace_out;
  std::uint64_t seed = 1;
  double seconds = 5;
};

service_config base_config(backend b) {
  service_config cfg;
  cfg.backend = b;
  cfg.shards = 4;
  return cfg;
}

struct window_result {
  std::size_t requests = 0;
  std::size_t failed = 0;
  std::size_t consumed = 0;  // stream prefix submitted
  double wall_s = 0;         // first send -> last completion
  std::vector<double> lat_ms;
  std::vector<double> submit_us;
  std::vector<std::pair<std::size_t, std::vector<pt>>> samples;
  proc_usage before, after;
};

/// Serves the workload's stream from its start for `seconds` and records
/// what a client sees: one producer keeping up to kInflight batches in
/// flight. Latency runs from just before submit() to the completion
/// callback; the first kInflight batches fill the pipeline and are not
/// timed (on write_mix's kd-tree they are a third of the window's batches,
/// each waiting behind a different number of others). `spans` (if on) gets
/// client.batch / service.submit.
window_result serve_window(const workload_def& w, std::uint64_t seed,
                           query_service<D>& svc, stream_reader& stream,
                           double seconds, span_log& spans) {
  window_result res;
  stream.rewind();
  const std::size_t min_size = w.n / 2;
  std::mutex mu;  // guards res and outstanding
  std::condition_variable cv;
  std::size_t outstanding = 0;
  clk::time_point last_done{};

  struct batch_ctx {
    bool timed;
    std::size_t first;
    std::vector<req> reqs;  // kept only for checking
    clk::time_point t0;
    std::uint64_t span_id;
    std::int64_t span_t0;
  };

  auto finish = [&](const batch_ctx& ctx, ticket_result<D>&& r,
                    std::exception_ptr err) {
    const auto done = clk::now();
    const std::int64_t done_ns = spans.now_ns();
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t n = ctx.reqs.size();
    if (err || r.timed_out || r.responses.size() != n) {
      res.failed += n;
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        if (!shape_ok(ctx.reqs[j], r.responses[j].points, min_size)) {
          ++res.failed;
        } else if (sampled(w, seed, ctx.first + j, ctx.reqs[j])) {
          res.samples.emplace_back(ctx.first + j,
                                   std::move(r.responses[j].points));
        }
      }
    }
    if (ctx.timed) res.lat_ms.push_back(secs_between(ctx.t0, done) * 1e3);
    res.requests += n;
    if (done > last_done) last_done = done;
    spans.record("client.batch", ctx.span_id, 0, ctx.first, ctx.span_t0,
                 done_ns);
    --outstanding;
    cv.notify_all();
  };

  res.before = usage_now();
  const auto start = clk::now();
  const auto end = start + std::chrono::duration_cast<clk::duration>(
                               std::chrono::duration<double>(seconds));

  // Callbacks reference this frame: on an error, wait for every batch in
  // flight before leaving it.
  std::exception_ptr error;
  try {
    for (std::size_t sent = 0;; ++sent) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return outstanding < kInflight; });
      }
      if (clk::now() >= end) break;
      auto ctx = std::make_shared<batch_ctx>();
      ctx->timed = sent >= kInflight;
      ctx->first = stream.next(w.batch, ctx->reqs);
      if (ctx->reqs.empty()) break;
      res.consumed = ctx->first + ctx->reqs.size();
      {
        std::lock_guard<std::mutex> lk(mu);
        ++outstanding;
      }
      std::vector<req> batch = ctx->reqs;  // the copy is the harness's cost
      ctx->span_id = spans.new_id();
      ctx->span_t0 = spans.now_ns();
      ctx->t0 = clk::now();
      completion<D> c;
      try {
        c = svc.submit(std::move(batch));
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        --outstanding;
        throw;
      }
      const auto t1 = clk::now();
      spans.record("service.submit", spans.new_id(), ctx->span_id, ctx->first,
                   ctx->span_t0, spans.now_ns());
      {
        std::lock_guard<std::mutex> lk(mu);
        res.submit_us.push_back(secs_between(ctx->t0, t1) * 1e6);
      }
      c.on_complete([&finish, ctx](ticket_result<D>&& r, std::exception_ptr e) {
        finish(*ctx, std::move(r), e);
      });
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return outstanding == 0; });
    res.wall_s = secs_between(start, last_done);
  }
  if (error) std::rethrow_exception(error);
  res.after = usage_now();
  return res;
}

/// Responses awaiting the reference check, gathered over serving windows
/// that each replay the stream from its start.
struct check_set {
  std::vector<std::pair<std::size_t, std::vector<pt>>> samples;
  /// (stream prefix a window submitted, service size after it)
  std::vector<std::pair<std::size_t, std::size_t>> sizes;

  void add(window_result& r, std::size_t service_size) {
    for (auto& smp : r.samples) samples.push_back(std::move(smp));
    r.samples.clear();
    sizes.push_back({r.consumed, service_size});
  }
};

/// Replays the stream through the brute-force reference, comparing every
/// sampled response and every window's final size; returns the mismatches.
std::size_t check_against_reference(stream_reader& stream, check_set& c) {
  std::sort(c.samples.begin(), c.samples.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::sort(c.sizes.begin(), c.sizes.end());
  std::size_t end = 0;
  for (const auto& sz : c.sizes) end = std::max(end, sz.first);
  reference_set ref(stream.initial());
  stream.rewind();
  std::size_t mismatches = 0, next_sample = 0, next_size = 0;
  auto check_sizes = [&](std::size_t prefix) {
    for (; next_size < c.sizes.size() && c.sizes[next_size].first == prefix;
         ++next_size) {
      if (c.sizes[next_size].second != ref.size()) {
        std::fprintf(stderr, "pbench: size %zu after %zu requests, "
                     "reference %zu\n", c.sizes[next_size].second, prefix,
                     ref.size());
        ++mismatches;
      }
    }
  };
  std::vector<req> chunk;
  std::size_t done = 0;
  check_sizes(0);
  while (done < end) {
    const std::size_t first =
        stream.next(std::min<std::size_t>(8192, end - done), chunk);
    if (chunk.empty()) break;
    for (std::size_t j = 0; j < chunk.size(); ++j) {
      const std::size_t i = first + j;
      const req& r = chunk[j];
      if (r.kind == op::insert) {
        ref.insert(r.p);
      } else if (r.kind == op::erase) {
        ref.erase(r.p);
      }
      for (; next_sample < c.samples.size() && c.samples[next_sample].first == i;
           ++next_sample) {
        if (!ref.matches(r, std::move(c.samples[next_sample].second))) {
          if (mismatches < 3) {
            std::fprintf(stderr, "pbench: mismatch at request %zu (%s)\n", i,
                         op_name(r.kind));
          }
          ++mismatches;
        }
      }
      check_sizes(i + 1);
    }
    done += chunk.size();
  }
  return mismatches;
}

// ---- JSON out --------------------------------------------------------------

class json_obj {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(k, std::isfinite(v) ? buf : "null");
  }
  void opt(const std::string& k, std::optional<double> v) {
    if (v) {
      num(k, *v);
    } else {
      add(k, "null");
    }
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + v + "\"");
  }
  void raw(const std::string& k, const std::string& v) { add(k, v); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

std::string build_stamp() {
  json_obj o;
  o.str("compiler", PERFBENCH_COMPILER);
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  o.num("omp_max_threads", omp_get_max_threads());
  return o.text();
}

// ---- modes -----------------------------------------------------------------

int run_gen(const run_args& a) {
  const auto& w = find_workload(a.workload);
  auto spec = make_read_write_spec(w.n, stream_ops(w, a.seconds), w.read_frac);
  spec.batch_size = w.batch;
  spec.seed = a.seed;
  auto initial = make_initial<D>(spec);
  const auto reqs = make_requests<D>(spec, initial);
  write_stream(a.out, initial, reqs);
  json_obj o;
  o.num("n_initial", static_cast<double>(initial.size()));
  o.num("n_ops", static_cast<double>(reqs.size()));
  std::printf("%s\n", o.text().c_str());
  return 0;
}

/// Seconds kernel_seconds() takes on the machine the benchmark's bounds
/// were set on (4-vCPU Intel Xeon VM, quiet); serve reports timings at
/// this speed (README.md, "Machine speed").
constexpr double kRefKernelS = 0.0625;

int run_serve(const run_args& a) {
  const auto& w = find_workload(a.workload);
  const backend b = backend_from_string(a.backend);
  stream_reader stream(a.stream);
  span_log no_spans(false);
  const auto initial = stream.initial();

  // Rounds: each sets up a fresh service (construction + bootstrap, timed;
  // four set-ups in all, the last of a round serves), serves the stream from
  // its start for seconds / w.rounds and destroys the service. The
  // machine-speed kernel runs before the first round and after every
  // round, while no service exists; a round's timings are scaled by
  // kRefKernelS over the mean of the two kernels around it.
  const int setups_per_round = std::max(1, 4 / w.rounds);
  std::vector<double> setup_s, ops, lat_ms, rss, speed;
  std::vector<double> raw_setup_s, raw_ops, raw_lat_ms;
  std::size_t attempted = 0, failed = 0;
  check_set checks;
  double kernel_prev = kernel_seconds(5);
  for (int round = 0; round < w.rounds; ++round) {
    std::unique_ptr<query_service<D>> svc;
    std::vector<double> setups;
    for (int r = 0; r < setups_per_round; ++r) {
      svc.reset();
      const auto t0 = clk::now();
      svc = std::make_unique<query_service<D>>(base_config(b));
      svc->bootstrap(initial);
      setups.push_back(secs_between(t0, clk::now()));
    }
    rss_sampler sampler;
    auto res = serve_window(w, a.seed, *svc, stream, a.seconds / w.rounds,
                            no_spans);
    rss.push_back(sampler.stop_median());
    attempted += res.requests;
    failed += res.failed;
    checks.add(res, svc->size());
    svc.reset();
    const double kernel_next = kernel_seconds(5);
    const double scale = kRefKernelS / ((kernel_prev + kernel_next) / 2);
    kernel_prev = kernel_next;

    const double rate =
        res.wall_s > 0 ? static_cast<double>(res.requests) / res.wall_s : 0;
    speed.push_back(scale);
    for (double setup : setups) {
      raw_setup_s.push_back(setup);
      setup_s.push_back(setup * scale);
    }
    raw_ops.push_back(rate);
    ops.push_back(rate / scale);
    for (double l : res.lat_ms) {
      raw_lat_ms.push_back(l);
      lat_ms.push_back(l * scale);
    }
  }
  const std::size_t checked = checks.samples.size();
  failed += check_against_reference(stream, checks);

  json_obj measured;
  measured.num("setup_s", percentile(raw_setup_s, 50));
  measured.num("ops_per_s", percentile(raw_ops, 50));
  measured.num("lat_p50_ms", percentile(raw_lat_ms, 50));
  measured.num("lat_p90_ms", percentile(raw_lat_ms, 90));
  json_obj o;
  o.num("attempted", static_cast<double>(attempted));
  o.num("failed", static_cast<double>(failed));
  o.num("checked", static_cast<double>(checked));
  o.num("setup_s", percentile(setup_s, 50));
  o.num("ops_per_s", percentile(ops, 50));
  o.num("lat_p50_ms", percentile(lat_ms, 50));
  o.num("lat_p90_ms", percentile(lat_ms, 90));
  o.num("lat_p99_ms", percentile(lat_ms, 99));
  o.num("lat_samples", static_cast<double>(lat_ms.size()));
  o.num("rss_p50_mb", percentile(rss, 50));
  o.num("speed", percentile(speed, 50));
  o.raw("measured", measured.text());
  o.raw("build", build_stamp());
  std::printf("%s\n", o.text().c_str());
  return 0;
}

/// spatial_index decorator that times each batch entry point and records
/// an index.* span under the current engine.execute span.
class timed_index final : public spatial_index<D> {
 public:
  enum slot { s_insert, s_erase, s_knn, s_range, s_ball, s_count };

  timed_index(std::unique_ptr<spatial_index<D>> inner, span_log& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::uint64_t parent = 0;  // engine.execute span the calls belong to
  std::uint64_t batch = 0;

  double us_per_item(slot s) const {
    return items_[s] ? ns_[s] * 1e-3 / static_cast<double>(items_[s]) : 0;
  }

  backend kind() const override { return inner_->kind(); }
  std::size_t size() const override { return inner_->size(); }
  std::uint64_t epoch() const override { return inner_->epoch(); }
  std::shared_ptr<const index_snapshot<D>> snapshot() const override {
    return inner_->snapshot();
  }
  void build(const std::vector<pt>& pts) override { inner_->build(pts); }
  void batch_insert(const std::vector<pt>& pts) override {
    timed(s_insert, "index.insert", pts.size(), [&] { inner_->batch_insert(pts); });
  }
  void batch_erase(const std::vector<pt>& pts) override {
    timed(s_erase, "index.erase", pts.size(), [&] { inner_->batch_erase(pts); });
  }
  std::vector<std::vector<pt>> batch_knn(const std::vector<pt>& q,
                                         std::size_t k) const override {
    std::vector<std::vector<pt>> out;
    timed(s_knn, "index.knn", q.size(), [&] { out = inner_->batch_knn(q, k); });
    return out;
  }
  std::vector<std::vector<pt>> batch_range(
      const std::vector<aabb<D>>& boxes) const override {
    std::vector<std::vector<pt>> out;
    timed(s_range, "index.range", boxes.size(),
          [&] { out = inner_->batch_range(boxes); });
    return out;
  }
  std::vector<std::vector<pt>> batch_ball(
      const std::vector<pt>& c, const std::vector<double>& r) const override {
    std::vector<std::vector<pt>> out;
    timed(s_ball, "index.ball", c.size(), [&] { out = inner_->batch_ball(c, r); });
    return out;
  }
  std::vector<pt> gather() const override { return inner_->gather(); }

 private:
  template <class F>
  void timed(slot s, const char* name, std::size_t items, F&& f) const {
    const std::int64_t t0 = spans_.now_ns();
    f();
    const std::int64_t t1 = spans_.now_ns();
    ns_[s] += static_cast<double>(t1 - t0);
    items_[s] += items;
    spans_.record(name, spans_.new_id(), parent, batch, t0, t1);
  }

  std::unique_ptr<spatial_index<D>> inner_;
  span_log& spans_;
  mutable double ns_[s_count] = {};
  mutable std::size_t items_[s_count] = {};
};

/// The paper structure behind backend `b`, called directly (no adapter).
/// kdtree is static: an update rebuilds it over the current point set.
class raw_structure {
 public:
  explicit raw_structure(backend b) : b_(b) {}

  void build(const std::vector<pt>& pts) {
    switch (b_) {
      case backend::kdtree:
        cur_ = pts;
        kd_ = std::make_unique<kdtree::tree<D>>(cur_);
        break;
      case backend::zdtree:
        zd_ = std::make_unique<zdtree::zd_tree<D>>(pts);
        break;
      case backend::bdltree:
        bdl_ = std::make_unique<bdltree::bdl_tree<D>>();
        bdl_->insert(pts);
        break;
    }
  }
  void insert(const std::vector<pt>& pts) {
    switch (b_) {
      case backend::kdtree:
        cur_.insert(cur_.end(), pts.begin(), pts.end());
        kd_ = std::make_unique<kdtree::tree<D>>(cur_);
        break;
      case backend::zdtree: zd_->insert(pts); break;
      case backend::bdltree: bdl_->insert(pts); break;
    }
  }
  void erase(const std::vector<pt>& pts) {
    switch (b_) {
      case backend::kdtree:
        for (const auto& p : pts) {
          auto it = std::find(cur_.begin(), cur_.end(), p);
          if (it != cur_.end()) {
            *it = cur_.back();
            cur_.pop_back();
          }
        }
        kd_ = std::make_unique<kdtree::tree<D>>(cur_);
        break;
      case backend::zdtree: zd_->erase(pts); break;
      case backend::bdltree: bdl_->erase(pts); break;
    }
  }
  void knn(const std::vector<pt>& qs, std::size_t k) {
    switch (b_) {
      case backend::kdtree: {
        std::vector<std::size_t> sink(qs.size());
        par::parallel_for(0, qs.size(), [&](std::size_t i) {
          sink[i] = kd_->knn(qs[i], k).size();
        });
        break;
      }
      case backend::zdtree: zd_->knn(qs, k); break;
      case backend::bdltree: bdl_->knn(qs, k); break;
    }
  }

 private:
  backend b_;
  std::vector<pt> cur_;
  std::unique_ptr<kdtree::tree<D>> kd_;
  std::unique_ptr<zdtree::zd_tree<D>> zd_;
  std::unique_ptr<bdltree::bdl_tree<D>> bdl_;
};

int run_trace(const run_args& a) {
  const auto& w = find_workload(a.workload);
  const backend b = backend_from_string(a.backend);
  stream_reader stream(a.stream);
  span_log spans(true);
  span_log no_spans(false);
  const double budget = a.seconds;

  auto fresh = [&](std::optional<telemetry_level> lvl) {
    auto cfg = base_config(b);
    if (lvl) cfg.telemetry = *lvl;
    auto svc = std::make_unique<query_service<D>>(cfg);
    svc->bootstrap(stream.initial());
    return svc;
  };
  auto cpu_per_req = [](const window_result& r) {
    return r.requests ? (r.after.cpu_s - r.before.cpu_s) /
                            static_cast<double>(r.requests)
                      : 0;
  };
  auto ops_per_s = [](const window_result& r) {
    return r.wall_s > 0 ? static_cast<double>(r.requests) / r.wall_s : 0;
  };

  std::size_t failed = 0, attempted = 0;
  check_set checks;
  auto account = [&](window_result& r, const query_service<D>& svc) {
    attempted += r.requests;
    failed += r.failed;
    checks.add(r, svc.size());
  };

  // Five windows of equal length, each on a fresh service serving the same
  // stream prefix: shipped defaults (untraced), telemetry=off, traced,
  // telemetry=off, shipped defaults. The repeated windows bracket the
  // traced one, so warm-up and drift land on both sides of each comparison.
  const double window_s = budget * 0.14;
  auto serve_fresh = [&](std::optional<telemetry_level> lvl, span_log& sp) {
    auto svc = fresh(lvl);
    auto r = serve_window(w, a.seed, *svc, stream, window_s, sp);
    account(r, *svc);
    return r;
  };
  auto plain1 = serve_fresh(std::nullopt, no_spans);
  auto off1 = serve_fresh(telemetry_level::off, no_spans);
  auto svc = fresh(telemetry_level::trace);
  auto traced = serve_window(w, a.seed, *svc, stream, window_s, spans);
  const metrics_view m(svc->metrics_text());
  account(traced, *svc);
  svc.reset();
  auto off2 = serve_fresh(telemetry_level::off, no_spans);
  auto plain2 = serve_fresh(std::nullopt, no_spans);
  const double plain_cpu = mean({cpu_per_req(plain1), cpu_per_req(plain2)});
  const double off_cpu = mean({cpu_per_req(off1), cpu_per_req(off2)});
  const double plain_ops = mean({ops_per_s(plain1), ops_per_s(plain2)});
  const std::size_t checked = checks.samples.size();
  failed += check_against_reference(stream, checks);

  json_obj o;
  const double kops = static_cast<double>(traced.requests) / 1000.0;
  o.num("ingest.submit_us", mean(traced.submit_us));
  {
    const auto spins = m.value("pargeo_ingest_spins_total");
    const auto tickets = m.value("pargeo_tickets_total");
    o.opt("ingest.spins_per_batch",
          spins && tickets && *tickets > 0
              ? std::optional<double>(*spins / *tickets)
              : std::nullopt);
  }
  // No execute_read: only read-only batches take that path, and write_mix
  // (2048 requests, half writes) never has one, so it would read 0 always.
  for (const char* st : {"queue_wait", "route", "lane_wait", "execute_write",
                         "merge", "fulfil", "reclaim"}) {
    const auto p50 = m.stage_quantile(st, 0.50);
    const auto p99 = m.stage_quantile(st, 0.99);
    o.opt(std::string("stage.") + st + ".p50_us",
          p50 ? std::optional<double>(*p50 * 1e6) : std::nullopt);
    o.opt(std::string("stage.") + st + ".p99_us",
          p99 ? std::optional<double>(*p99 * 1e6) : std::nullopt);
  }
  {
    const auto retired = m.value("pargeo_retired_snapshots_total");
    o.opt("reclaim.retired_per_kop",
          retired && kops > 0 ? std::optional<double>(*retired / kops)
                              : std::nullopt);
    o.opt("reclaim.limbo_end", m.value("pargeo_limbo_snapshots"));
  }
  o.num("proc.cpu_per_wall",
        traced.wall_s > 0
            ? (traced.after.cpu_s - traced.before.cpu_s) / traced.wall_s
            : 0);
  o.num("proc.minor_faults_per_kop",
        kops > 0 ? (traced.after.minflt - traced.before.minflt) / kops : 0);
  o.num("proc.ctx_switches_per_kop",
        kops > 0 ? (traced.after.ctxsw - traced.before.ctxsw) / kops : 0);
  {
    const auto hits = m.value("pargeo_cache_hits_total");
    const auto misses = m.value("pargeo_cache_misses_total");
    o.opt("cache.hit_frac",
          hits && misses ? std::optional<double>(
                               *hits + *misses > 0 ? *hits / (*hits + *misses) : 0)
                         : std::nullopt);
  }
  o.num("trace.overhead_frac",
        plain_cpu > 0 ? cpu_per_req(traced) / plain_cpu - 1 : 0);
  o.num("telemetry.stats_cost_frac", off_cpu > 0 ? plain_cpu / off_cpu - 1 : 0);

  // One query_engine, no service, same stream, timing decorator inside.
  {
    auto idx = std::make_unique<timed_index>(make_index<D>(b), spans);
    timed_index* tidx = idx.get();
    query_engine<D> engine(std::move(idx));
    engine.bootstrap(stream.initial());
    stream.rewind();
    double exec_s = 0;
    std::size_t reqs = 0, batches = 0, phases = 0;
    std::vector<req> batch;
    const auto end = clk::now() + std::chrono::duration_cast<clk::duration>(
                                      std::chrono::duration<double>(budget * 0.15));
    while (clk::now() < end) {
      const std::size_t first = stream.next(w.batch, batch);
      if (batch.empty()) break;
      const std::uint64_t id = spans.new_id();
      tidx->parent = id;
      tidx->batch = first;
      const std::int64_t t0 = spans.now_ns();
      const auto r = engine.execute(batch);
      const std::int64_t t1 = spans.now_ns();
      spans.record("engine.execute", id, 0, first, t0, t1);
      exec_s += static_cast<double>(t1 - t0) * 1e-9;
      reqs += batch.size();
      phases += r.stats.num_phases();
      ++batches;
    }
    const double engine_ops = exec_s > 0 ? static_cast<double>(reqs) / exec_s : 0;
    o.num("engine.ops_per_s", engine_ops);
    o.num("engine.phases_per_batch",
          batches ? static_cast<double>(phases) / static_cast<double>(batches) : 0);
    o.num("engine.self_us_per_batch", spans.mean_self_us("engine.execute"));
    o.num("serving_tax", engine_ops > 0 ? plain_ops / engine_ops : 0);
    o.num("serving_tax.service_ops_per_s", plain_ops);
    o.num("index.insert_us", tidx->us_per_item(timed_index::s_insert));
    o.num("index.erase_us", tidx->us_per_item(timed_index::s_erase));
    o.num("index.knn_us", tidx->us_per_item(timed_index::s_knn));
    o.num("index.range_us", tidx->us_per_item(timed_index::s_range));
    o.num("index.ball_us", tidx->us_per_item(timed_index::s_ball));
  }

  // The paper structure itself on the same points and write/k-NN runs.
  {
    raw_structure raw(b);
    const auto initial = stream.initial();
    std::int64_t t0 = spans.now_ns();
    raw.build(initial);
    std::int64_t t1 = spans.now_ns();
    spans.record("raw.build", spans.new_id(), 0, 0, t0, t1);
    o.num("raw.build_ms", static_cast<double>(t1 - t0) * 1e-6);
    double ns[3] = {0, 0, 0};
    std::size_t items[3] = {0, 0, 0};
    auto timed = [&](int slot, const char* name, std::size_t first,
                     std::size_t n, auto&& f) {
      const std::int64_t a0 = spans.now_ns();
      f();
      const std::int64_t a1 = spans.now_ns();
      spans.record(name, spans.new_id(), 0, first, a0, a1);
      ns[slot] += static_cast<double>(a1 - a0);
      items[slot] += n;
    };
    std::vector<req> batch;
    std::vector<pt> pts;
    const auto end = clk::now() + std::chrono::duration_cast<clk::duration>(
                                      std::chrono::duration<double>(budget * 0.15));
    while (clk::now() < end) {
      const std::size_t first = stream.next(w.batch, batch);
      if (batch.empty()) break;
      // Same phase cut as the engine: same-kind write runs, read runs.
      std::size_t i = 0;
      while (i < batch.size() && clk::now() < end) {
        std::size_t j = i + 1;
        const bool read = is_read(batch[i].kind);
        while (j < batch.size() &&
               (read ? is_read(batch[j].kind) : batch[j].kind == batch[i].kind)) {
          ++j;
        }
        pts.clear();
        for (std::size_t x = i; x < j; ++x) {
          if (!read || batch[x].kind == op::knn) pts.push_back(batch[x].p);
        }
        if (!read) {
          if (batch[i].kind == op::insert) {
            timed(0, "raw.insert", first + i, pts.size(), [&] { raw.insert(pts); });
          } else {
            timed(1, "raw.erase", first + i, pts.size(), [&] { raw.erase(pts); });
          }
        } else if (!pts.empty()) {
          timed(2, "raw.knn", first + i, pts.size(), [&] { raw.knn(pts, 8); });
        }
        i = j;
      }
    }
    o.num("raw.insert_us", items[0] ? ns[0] * 1e-3 / static_cast<double>(items[0]) : 0);
    o.num("raw.erase_us", items[1] ? ns[1] * 1e-3 / static_cast<double>(items[1]) : 0);
    o.num("raw.knn_us", items[2] ? ns[2] * 1e-3 / static_cast<double>(items[2]) : 0);
  }

  if (!a.trace_out.empty()) {
    spans.write_chrome(a.trace_out, a.workload + "/" + a.backend, 20000);
  }
  json_obj out;
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("checked", static_cast<double>(checked));
  out.raw("metrics", o.text());
  out.raw("build", build_stamp());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

run_args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: pbench gen|serve|trace --flag value ...");
  run_args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--backend") a.backend = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--stream") a.stream = v;
    else if (k == "--out") a.out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const run_args a = parse(argc, argv);
    if (a.mode == "gen") return run_gen(a);
    if (a.mode == "serve") return run_serve(a);
    if (a.mode == "trace") return run_trace(a);
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbench: %s\n", e.what());
    return 2;
  }
}
