// Copyright 2026 The rvar Authors.
//
// Benchmark-side span recorder, exact quantiles and the per-run report.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "bench.h"

namespace rvar {
namespace perfbench {

namespace {

thread_local std::vector<uint64_t> t_span_stack;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // round-trips every double
  return buf;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

uint64_t Fnv1a(const std::vector<int>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (int v : values) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    h *= 1099511628211ULL;
  }
  // 52 bits, so the value survives a round trip through a JSON double.
  return h & ((uint64_t{1} << 52) - 1);
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  const std::vector<SpanRecord> spans = Spans();
  // Children of one span run on its thread, one after another, so the part
  // of the parent they cover is the sum of their durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    const auto it = child_ns.find(s.id);
    const int64_t covered = it == child_ns.end() ? 0 : it->second;
    self[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  const std::vector<SpanRecord> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                 "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 s.name, s.layer, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

Span::Span(const char* name, const char* layer)
    : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  static std::atomic<uint64_t> next_id{1};
  record_.name = name;
  record_.layer = layer;
  record_.id = next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  t_span_stack.push_back(record_.id);
  record_.start_ns = Tracer::Get().NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = Tracer::Get().NowNs();
  t_span_stack.pop_back();
  Tracer::Get().Record(record_);
}

// --- Report -----------------------------------------------------------------

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Metric& m = metrics_[name];
  m.unit = unit;
  m.samples.push_back(value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  checks_.push_back({name, ok, detail});
  std::fprintf(stderr, "[check] %-34s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

void Report::Info(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[name] = value;
}

void Report::Account(int64_t attempted, int64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"unit\":"
        << JsonString(m.unit) << ",\"samples\":[";
    for (size_t i = 0; i < m.samples.size(); ++i) {
      out << (i ? "," : "") << JsonNumber(m.samples[i]);
    }
    out << "]}";
    first = false;
  }
  out << "},\"checks\":[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":" << JsonString(checks_[i].name)
        << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
        << ",\"detail\":" << JsonString(checks_[i].detail) << "}";
  }
  out << "],\"info\":{";
  first = true;
  for (const auto& [name, v] : info_) {
    out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(v);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
}  // namespace rvar
