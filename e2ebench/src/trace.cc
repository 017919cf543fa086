#include "trace.h"

#include <algorithm>

namespace e2ebench {

namespace {

/// Spans open on the calling thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {
  groups_.push_back("init");
  counters_.emplace_back();
}

void Tracer::BeginGroup(const std::string& label) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  groups_.push_back(label);
  counters_.emplace_back();
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  if (parent < 0 && !open_spans.empty()) parent = open_spans.back();
  double now = Now();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, now, now, parent,
                      static_cast<int>(groups_.size()) - 1});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  double now = Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.back()[name] += value;
}

void Tracer::Max(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.back().emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

double Tracer::SpanSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, double> per_group;
  for (const Span& s : spans_) {
    if (s.name == name) per_group[s.group] += s.end - s.start;
  }
  std::vector<double> totals;
  for (const auto& [group, total] : per_group) totals.push_back(total);
  return Median(totals);
}

double Tracer::SpanPercentile(const std::string& name, double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> durations;
  for (const Span& s : spans_) {
    if (s.name == name) durations.push_back(s.end - s.start);
  }
  return Percentile(durations, p);
}

double Tracer::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> values;
  for (const auto& counters : counters_) {
    auto it = counters.find(name);
    if (it != counters.end()) values.push_back(it->second);
  }
  return Median(values);
}

double Tracer::Rate(const std::string& counter,
                    const std::string& span) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, double> per_group;
  for (const Span& s : spans_) {
    if (s.name == span) per_group[s.group] += s.end - s.start;
  }
  std::vector<double> rates;
  for (const auto& [group, seconds] : per_group) {
    auto it = counters_[static_cast<size_t>(group)].find(counter);
    if (it != counters_[static_cast<size_t>(group)].end() && seconds > 0) {
      rates.push_back(it->second / seconds);
    }
  }
  return Median(rates);
}

std::string Tracer::CheckNesting() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) return "span " + s.name + " ends before it starts";
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (s.start < p.start || s.end > p.end) {
      return "span " + s.name + " (#" + std::to_string(i) +
             ") is not contained in its parent " + p.name;
    }
  }
  return "";
}

std::string Tracer::SpansJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"groups\": [";
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (g > 0) out += ", ";
    out += "{\"label\": \"" + groups_[g] + "\", \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters_[g]) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": " + Num(value);
    }
    out += "}}";
  }
  out += "],\n\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "\n{\"id\": " + std::to_string(i) + ", \"name\": \"" + s.name +
           "\", \"start_ms\": " + Num(s.start * 1e3) +
           ", \"end_ms\": " + Num(s.end * 1e3) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"group\": " + std::to_string(s.group) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace e2ebench
