#include "core/view.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace psph::core {

StateId ViewRegistry::intern(const View& v) {
  const std::size_t next = records_.size();
  const std::size_t id = index_.find_or_insert(
      ViewHash{}(v), next, [&](std::size_t i) {
        const Record& r = records_[i];
        return r.pid == v.pid && r.round == v.round && r.input == v.input &&
               std::equal(v.heard.begin(), v.heard.end(),
                          heard_.begin() +
                              static_cast<std::ptrdiff_t>(r.heard_begin),
                          heard_.begin() + static_cast<std::ptrdiff_t>(
                                               r.heard_begin + r.heard_size));
      });
  if (id == next) {
    records_.push_back(
        {v.pid, v.round, v.input, heard_.size(), v.heard.size()});
    heard_.insert(heard_.end(), v.heard.begin(), v.heard.end());
  }
  return id;
}

StateId ViewRegistry::intern_input(ProcessId pid, std::int64_t input) {
  return intern(View{pid, 0, input, {}});
}

StateId ViewRegistry::intern_round(ProcessId pid, int round,
                                   std::span<const HeardEntry> heard) {
  if (round < 1) throw std::invalid_argument("intern_round: round < 1");
  // Copied before anything can grow, so `heard` may point into heard_.
  scratch_.assign(heard.begin(), heard.end());
  std::sort(scratch_.begin(), scratch_.end());
  for (std::size_t i = 1; i < scratch_.size(); ++i) {
    if (scratch_[i].from == scratch_[i - 1].from) {
      throw std::invalid_argument("intern_round: duplicate sender");
    }
  }
  return intern(View{pid, round, 0, scratch_});
}

const ViewRegistry::Record& ViewRegistry::record(StateId id) const {
  if (id >= records_.size()) throw std::out_of_range("ViewRegistry::view");
  return records_[static_cast<std::size_t>(id)];
}

View ViewRegistry::view(StateId id) const {
  const Record& r = record(id);
  return View{r.pid, r.round, r.input,
              std::span<const HeardEntry>(heard_.data() + r.heard_begin,
                                          r.heard_size)};
}

std::span<const std::int64_t> ViewRegistry::inputs_seen(StateId id) const {
  const Record& r = record(id);
  if (seen_rows_.size() < records_.size()) seen_rows_.resize(records_.size());
  const std::size_t slot = static_cast<std::size_t>(id);
  if (seen_rows_[slot].size == kUnset) {
    if (r.round > 0) {
      // Fill every sub-view's row first: the recursion (strictly down in
      // round, so it ends) appends to seen_values_, so rows are read by id.
      for (std::size_t i = 0; i < r.heard_size; ++i) {
        inputs_seen(heard_[r.heard_begin + i].state);
      }
    }
    const std::size_t begin = seen_values_.size();
    if (r.round == 0) {
      seen_values_.push_back(r.input);
    } else {
      for (std::size_t i = 0; i < r.heard_size; ++i) {
        const SeenRow sub = seen_rows_[heard_[r.heard_begin + i].state];
        for (std::size_t k = 0; k < sub.size; ++k) {
          const std::int64_t value = seen_values_[sub.begin + k];
          seen_values_.push_back(value);
        }
      }
      const auto first =
          seen_values_.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, seen_values_.end());
      seen_values_.erase(std::unique(first, seen_values_.end()),
                         seen_values_.end());
    }
    seen_rows_[slot] = {begin, seen_values_.size() - begin};
  }
  const SeenRow row = seen_rows_[slot];
  return {seen_values_.data() + row.begin, row.size};
}

std::int64_t ViewRegistry::min_input_seen(StateId id) const {
  const std::span<const std::int64_t> seen = inputs_seen(id);
  if (seen.empty()) {
    throw std::logic_error("min_input_seen: view has no visible inputs");
  }
  return seen.front();
}

std::set<ProcessId> ViewRegistry::direct_senders(StateId id) const {
  const View v = view(id);
  std::set<ProcessId> result;
  if (v.round == 0) {
    result.insert(v.pid);
  } else {
    for (const HeardEntry& e : v.heard) result.insert(e.from);
  }
  return result;
}

const std::string& ViewRegistry::to_string(StateId id) const {
  const auto cached = string_cache_.find(id);
  if (cached != string_cache_.end()) return cached->second;
  const View v = view(id);
  std::ostringstream out;
  out << "P" << v.pid << "@r" << v.round;
  if (v.round == 0) {
    out << "=" << v.input;
    return string_cache_.emplace(id, out.str()).first->second;
  }
  out << "<";
  for (std::size_t i = 0; i < v.heard.size(); ++i) {
    if (i > 0) out << ",";
    out << "P" << v.heard[i].from;
    if (v.heard[i].last_micro != kNoMicro) {
      out << "u" << v.heard[i].last_micro;
    }
    // Sub-views are strictly earlier rounds, so the recursion terminates;
    // each renders once and is thereafter a cache hit.
    out << ":" << to_string(v.heard[i].state);
  }
  out << ">";
  return string_cache_.emplace(id, out.str()).first->second;
}

}  // namespace psph::core
