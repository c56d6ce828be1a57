#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "grid/grid_ops.h"
#include "grid/packed_kernels.h"

namespace perfbench {

// ------------------------------------------------------------ engines --

int worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<Engine> make_engine(int threads, bool packed) {
  EngineOptions options;
  options.profile.name = "perfbench";
  options.profile.threads = threads;
  if (packed) {
    options.relax.kernels.layout = grid::StencilLayout::kPacked;
    options.relax.kernels.simd_width = grid::packed_simd_width_supported();
  }
  return std::make_unique<Engine>(options);
}

// -------------------------------------------------------------- spans --

namespace {
const auto g_epoch = std::chrono::steady_clock::now();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

void Tracer::record(const SpanRecord& span) {
  thread_local std::vector<SpanRecord>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer = &buffers_.emplace_back();
  }
  buffer->push_back(span);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  return all;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Span::Span(const char* name, std::int64_t parent, std::int64_t request) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  record_.name = name;
  record_.id = t.next_id();
  record_.parent = parent;
  record_.request = request;
  record_.start = now_s();
}

Span::~Span() {
  if (record_.id == 0) return;
  record_.end = now_s();
  tracer().record(record_);
}

std::map<std::string, LayerTime> self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& s : spans) {
    const double duration = s.end - s.start;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (const SpanRecord* c : it->second) {
        const double a = std::max(c->start, s.start);
        const double b = std::min(c->end, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      double reach = s.start;
      for (const auto& [a, b] : iv) {
        const double from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
    }
    LayerTime& lt = out[s.name];
    lt.total_s += duration;
    lt.self_s += duration - covered;
    ++lt.count;
  }
  return out;
}

void finish_trace(const Options& options, Report& report) {
  const std::vector<SpanRecord> spans = tracer().collect();
  char line[160];
  report.notes.push_back("self time by span (traced run):");
  for (const auto& [name, t] : self_times(spans)) {
    std::snprintf(line, sizeof line,
                  "  %-40s calls %8lld  total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<long long>(t.count),
                  t.total_s * 1e3, t.self_s * 1e3);
    report.notes.push_back(line);
  }
  write_spans(spans, options.out_dir + "/spans_" + options.workload + "_seed" +
                         std::to_string(options.seed) + ".jsonl");
}

void write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  char line[256];
  for (const SpanRecord& s : spans) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%lld}\n",
                  s.name, s.start, s.end, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << line;
  }
}

// ---------------------------------------------------------- statistics --

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// -------------------------------------------------------------- sink --

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& entry : metrics) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, value_unit] : metrics) {
    const double v = value_unit.first;
    if (std::isfinite(v)) {
      std::snprintf(number, sizeof number, "%.17g", v);
    } else {
      std::snprintf(number, sizeof number, "null");
    }
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ----------------------------------------------------------- inputs --

std::vector<tune::TrainingInstance> make_pool(const grid::StencilOp& op,
                                              int count, std::uint64_t seed,
                                              std::uint64_t salt,
                                              rt::Scheduler& sched) {
  const Rng base = Rng(seed).split(salt);
  std::vector<tune::TrainingInstance> pool;
  for (int i = 0; i < count; ++i) {
    Rng rng = base.split(static_cast<std::uint64_t>(i) + 1);
    pool.push_back(tune::make_training_instance(
        op, InputDistribution::kUnbiased, rng, sched));
  }
  return pool;
}

double achieved_accuracy(const tune::TrainingInstance& inst,
                         const Grid2D& x_in, const Grid2D& x_out,
                         rt::Scheduler& sched) {
  const double before = grid::norm2_diff_interior(x_in, inst.x_opt, sched);
  const double after = grid::norm2_diff_interior(x_out, inst.x_opt, sched);
  return after > 0.0 ? before / after : INFINITY;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
