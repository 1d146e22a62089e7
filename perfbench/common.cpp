// Tracer, statistics, process counters and the correctness gate.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "core/rng.h"
#include "io/synthetic.h"
#include "nn/reference.h"

namespace perfbench {

double Report::e2e_value(const std::string& name) const {
  for (const Metric& m : e2e) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Tracer::span(const std::string& name, const std::string& layer,
                  Clock::time_point start, Clock::time_point end,
                  std::uint64_t id, int lane) {
  if (!enabled_) return;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  spans_.push_back({name, layer, us(start), us(end) - us(start), id, lane});
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 s.start_us, s.dur_us, s.lane,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double rank = std::ceil(p / 100.0 * n);
  const auto idx = static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return v[idx];
}

double peak_rss_mib() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // survives execve, so it would report the launching process's peak when
  // that one was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

unsigned host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

HostSample host_sample() {
  HostSample s;
  s.own_ms = process_cpu_ms();
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return s;
  // cpu  user nice system idle iowait irq softirq steal (in clock ticks;
  // guest time is already counted in user).
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6],
                            &t[7]);
  std::fclose(f);
  if (n < 4) return s;
  const double tick_ms = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  for (int i = 0; i < 8; ++i) {
    const double ms = static_cast<double>(t[i]) * tick_ms;
    s.all_ms += ms;
    if (i != 3 && i != 4) s.taken_ms += ms;  // not idle, not iowait
  }
  return s;
}

double host_contention(const HostSample& a, const HostSample& b) {
  const double all = b.all_ms - a.all_ms;
  if (all <= 0.0) return 0.0;
  const double others = (b.taken_ms - a.taken_ms) - (b.own_ms - a.own_ms);
  return std::max(0.0, others / all);
}

std::vector<qnn::IntTensor> make_images(const qnn::Pipeline& pipeline, int n,
                                        std::uint64_t seed) {
  qnn::Rng rng(seed);
  std::vector<qnn::IntTensor> images;
  for (int i = 0; i < n; ++i) {
    images.push_back(qnn::synthetic_image(pipeline.input.h, pipeline.input.w,
                                          pipeline.input.c, rng));
  }
  return images;
}

std::vector<qnn::IntTensor> make_batch(std::span<const qnn::IntTensor> pool,
                                       int size, std::vector<int>& index) {
  std::vector<qnn::IntTensor> batch;
  for (int i = 0; i < size; ++i) {
    const int img = i % static_cast<int>(pool.size());
    index.push_back(img);
    batch.push_back(pool[static_cast<std::size_t>(img)]);
  }
  return batch;
}

void OutputLog::add(int image, qnn::IntTensor out) {
  if (corrupt_ && size_ == 0 && out.size() > 0) out[0] ^= 1;
  ++size_;
  const auto slot = static_cast<std::size_t>(image);
  if (images_.size() <= slot) images_.resize(slot + 1);
  for (Variant& v : images_[slot]) {
    if (v.output == out) {
      ++v.count;
      return;
    }
  }
  images_[slot].push_back({std::move(out), 1});
}

std::uint64_t check_outputs(const qnn::Pipeline& pipeline,
                            const qnn::NetworkParams& params,
                            std::span<const qnn::IntTensor> pool,
                            const OutputLog& log) {
  const qnn::ReferenceExecutor reference(pipeline, params);
  return log.mismatches(
      [&](std::size_t image) { return reference.run(pool[image]); });
}

}  // namespace perfbench
