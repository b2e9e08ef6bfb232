#include "core/view.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace psph::core {

StateId ViewRegistry::intern(View v) {
  const std::size_t next = views_.size();
  const std::size_t id = index_.find_or_insert(
      ViewHash{}(v), next, [&](std::size_t i) { return views_[i] == v; });
  if (id == next) views_.push_back(std::move(v));
  return id;
}

StateId ViewRegistry::intern_input(ProcessId pid, std::int64_t input) {
  View v;
  v.pid = pid;
  v.round = 0;
  v.input = input;
  return intern(std::move(v));
}

StateId ViewRegistry::intern_round(ProcessId pid, int round,
                                   std::vector<HeardEntry> heard) {
  if (round < 1) throw std::invalid_argument("intern_round: round < 1");
  std::sort(heard.begin(), heard.end());
  for (std::size_t i = 1; i < heard.size(); ++i) {
    if (heard[i].from == heard[i - 1].from) {
      throw std::invalid_argument("intern_round: duplicate sender");
    }
  }
  View v;
  v.pid = pid;
  v.round = round;
  v.input = 0;
  v.heard = std::move(heard);
  return intern(std::move(v));
}

const View& ViewRegistry::view(StateId id) const {
  if (id >= views_.size()) throw std::out_of_range("ViewRegistry::view");
  return views_[static_cast<std::size_t>(id)];
}

const std::set<std::int64_t>& ViewRegistry::inputs_seen(StateId id) const {
  const auto cached = inputs_cache_.find(id);
  if (cached != inputs_cache_.end()) return cached->second;
  const View& v = view(id);
  std::set<std::int64_t> result;
  if (v.round == 0) {
    result.insert(v.input);
  } else {
    for (const HeardEntry& e : v.heard) {
      const std::set<std::int64_t>& sub = inputs_seen(e.state);
      result.insert(sub.begin(), sub.end());
    }
  }
  return inputs_cache_.emplace(id, std::move(result)).first->second;
}

std::int64_t ViewRegistry::min_input_seen(StateId id) const {
  const std::set<std::int64_t>& seen = inputs_seen(id);
  if (seen.empty()) {
    throw std::logic_error("min_input_seen: view has no visible inputs");
  }
  return *seen.begin();
}

std::set<ProcessId> ViewRegistry::direct_senders(StateId id) const {
  const View& v = view(id);
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
  const View& v = view(id);
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
