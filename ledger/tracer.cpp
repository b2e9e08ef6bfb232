#include <algorithm>
#include <cmath>
#include <fstream>

#include "ledger.h"
#include "util/random.h"

namespace ledger {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  psph::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int item)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.item = item;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
    out[spans_[i].name] += self / 1e6;
  }
  return out;
}

double Tracer::self_ms(const std::string& name) const {
  const std::map<std::string, double> all = self_ms();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second;
}

double Tracer::root_seconds() const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_us\":"
        << (span.start_ns - origin) / 1000.0
        << ",\"end_us\":" << (span.end_ns - origin) / 1000.0
        << ",\"parent\":" << span.parent << ",\"item\":" << span.item
        << "}\n";
  }
  return static_cast<bool>(out);
}

bool Expected::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    answers_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

bool Expected::matches(const std::string& id,
                       const std::string& answer) const {
  const auto it = answers_.find(id);
  return it != answers_.end() && it->second == answer;
}

}  // namespace ledger
