#include "solve/engine.h"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "obs/obs.h"
#include "util/cancel.h"

namespace psph::solve {

namespace {

obs::Counter g_nodes("solve.nodes");
obs::Counter g_propagations("solve.propagations");
obs::Counter g_probes("solve.probes");

/// One (vertex, value) assignment literal in dense indices.
struct Lit {
  int vertex = 0;
  int value = 0;
};

enum Verdict { kAborted = -1, kUnsat = 0, kSat = 1 };

/// One complete propagating search over a compiled problem. Holds all
/// mutable search state; run() may be called repeatedly (the lex-min
/// witness completion does), each call starting from the pristine problem.
class Searcher {
 public:
  Searcher(const CspProblem& p, std::uint64_t node_limit)
      : p_(p),
        node_limit_(node_limit),
        vertex_count_(static_cast<int>(p.vertex_ids.size())),
        values_(static_cast<std::size_t>(p.num_values)),
        domain_(p.domains),
        value_(p.vertex_ids.size(), -1),
        assigned_(p.vertex_ids.size(), 0),
        processed_(p.vertex_ids.size(), 0),
        implied_(p.vertex_ids.size(), 0),
        facet_count_(p.facets.size() * values_, 0),
        facet_distinct_(p.facets.size(), 0),
        facet_present_(p.facets.size(), 0) {
    build_branch_sets();
  }

  EngineStats stats;

  /// Runs the search under forced assumptions (applied as decisions before
  /// branching; a conflicting or out-of-domain assumption yields kUnsat).
  /// `probe` enables root failed-literal probing (the primary call only;
  /// the completion oracle skips it). On kSat, `witness` holds a dense
  /// value per vertex.
  Verdict run(const std::vector<Lit>& assumptions, bool probe,
              std::vector<int>& witness) {
    reset();
    // Root singletons/wipeouts (a vertex whose validity domain is already
    // one value — or none, which refutes the instance outright).
    for (int v = 0; v < vertex_count_; ++v) {
      const std::uint64_t mask = domain_[static_cast<std::size_t>(v)];
      if (mask == 0) return kUnsat;
      if (std::popcount(mask) == 1 && !assigned_[static_cast<std::size_t>(v)]) {
        assign(v, std::countr_zero(mask));
      }
    }
    if (!flush_propagation()) return unwind_unsat();
    for (const Lit& a : assumptions) {
      if (assigned_[static_cast<std::size_t>(a.vertex)]) {
        if (value_[static_cast<std::size_t>(a.vertex)] != a.value) {
          return unwind_unsat();
        }
        continue;
      }
      if ((domain_[static_cast<std::size_t>(a.vertex)] &
           (std::uint64_t{1} << a.value)) == 0) {
        return unwind_unsat();
      }
      push_level();
      assign(a.vertex, a.value);
      if (!flush_propagation()) return unwind_unsat();
    }
    if (probe && !probe_root()) return unwind_unsat();
    return search(witness);
  }

 private:
  // ---- state ----

  struct TrailEvent {
    int vertex = 0;
    bool is_assign = false;
    std::uint64_t old_domain = 0;  // removal events only
  };

  const CspProblem& p_;
  std::uint64_t node_limit_;
  int vertex_count_;
  std::size_t values_;

  std::vector<std::uint64_t> domain_;
  std::vector<int> value_;
  std::vector<signed char> assigned_;
  std::vector<signed char> processed_;  // facet counters applied for vertex

  /// Literals a successful root probe assigned since the last clear (bit a
  /// of vertex v's mask = (v, a)); implied_touched_ lists the vertices with
  /// a nonzero mask, so a clear costs what the marking did.
  std::vector<std::uint64_t> implied_;
  std::vector<int> implied_touched_;

  /// Facet f's count of assigned members holding value a, at
  /// f * values_ + a.
  std::vector<std::uint16_t> facet_count_;
  std::vector<int> facet_distinct_;
  std::vector<std::uint64_t> facet_present_;
  std::vector<int> saturated_;  // apply_facets scratch

  /// Branching sets. order_ ranks the vertices by (facet count descending,
  /// index ascending); branch_bits_ holds one bitset over that order per
  /// domain size 0..values_ (words_ words each) of the unassigned vertices
  /// with that size, and branch_count_ the bits set in each.
  std::vector<int> order_;
  std::vector<int> rank_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> branch_bits_;
  std::vector<int> branch_count_;

  std::vector<TrailEvent> trail_;
  std::vector<std::size_t> level_marks_;
  std::vector<int> queue_;  // assigned vertices pending facet updates
  std::size_t queue_head_ = 0;

  // ---- branching sets ----

  void build_branch_sets() {
    const auto n = static_cast<std::size_t>(vertex_count_);
    order_.resize(n);
    for (std::size_t v = 0; v < n; ++v) order_[v] = static_cast<int>(v);
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      return p_.facets_of[static_cast<std::size_t>(a)].size() >
             p_.facets_of[static_cast<std::size_t>(b)].size();
    });
    rank_.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      rank_[static_cast<std::size_t>(order_[r])] = static_cast<int>(r);
    }
    words_ = (n + 63) / 64;
    branch_bits_.assign((values_ + 1) * words_, 0);
    branch_count_.assign(values_ + 1, 0);
    for (int v = 0; v < vertex_count_; ++v) {
      branch_insert(v, domain_[static_cast<std::size_t>(v)]);
    }
  }

  /// Adds unassigned vertex `v`, whose domain is `domain`, to its size's
  /// set; branch_erase takes it out.
  void branch_insert(int v, std::uint64_t domain) {
    const auto size = static_cast<std::size_t>(std::popcount(domain));
    const auto r =
        static_cast<std::size_t>(rank_[static_cast<std::size_t>(v)]);
    branch_bits_[size * words_ + r / 64] |= std::uint64_t{1} << (r % 64);
    ++branch_count_[size];
  }

  void branch_erase(int v, std::uint64_t domain) {
    const auto size = static_cast<std::size_t>(std::popcount(domain));
    const auto r =
        static_cast<std::size_t>(rank_[static_cast<std::size_t>(v)]);
    branch_bits_[size * words_ + r / 64] &= ~(std::uint64_t{1} << (r % 64));
    --branch_count_[size];
  }

  // ---- trail ----

  void push_level() { level_marks_.push_back(trail_.size()); }

  void assign(int vertex, int value) {
    const auto vs = static_cast<std::size_t>(vertex);
    branch_erase(vertex, domain_[vs]);
    value_[vs] = value;
    assigned_[vs] = 1;
    trail_.push_back({vertex, /*is_assign=*/true, 0});
    queue_.push_back(vertex);
  }

  void undo_level() {
    const std::size_t mark = level_marks_.back();
    level_marks_.pop_back();
    while (trail_.size() > mark) {
      const TrailEvent event = trail_.back();
      trail_.pop_back();
      const auto v = static_cast<std::size_t>(event.vertex);
      if (event.is_assign) {
        if (processed_[v]) {
          retract_facets(event.vertex, value_[v]);
          processed_[v] = 0;
        }
        assigned_[v] = 0;
        value_[v] = -1;
        branch_insert(event.vertex, domain_[v]);
      } else {
        if (!assigned_[v]) {
          branch_erase(event.vertex, domain_[v]);
          branch_insert(event.vertex, event.old_domain);
        }
        domain_[v] = event.old_domain;
      }
    }
    queue_.clear();
    queue_head_ = 0;
  }

  Verdict unwind_unsat() {
    while (!level_marks_.empty()) undo_level();
    return kUnsat;
  }

  void reset() {
    while (!level_marks_.empty()) undo_level();
    // Undo any level-0 events (root singletons, probe prunes) so repeated
    // run() calls start from the pristine problem.
    level_marks_.push_back(0);
    undo_level();
  }

  // ---- propagation ----

  /// Applies `vertex = value` to every incident facet's counters. All
  /// counter increments complete even on overflow so retract_facets stays
  /// exactly symmetric; saturation shrinks run afterwards (each shrink is
  /// individually trail-recorded, so a mid-loop wipeout undoes cleanly).
  /// Returns false on a dead end.
  bool apply_facets(int vertex, int value) {
    saturated_.clear();
    bool overflow = false;
    for (int f : p_.facets_of[static_cast<std::size_t>(vertex)]) {
      const auto fs = static_cast<std::size_t>(f);
      const std::uint16_t count =
          ++facet_count_[fs * values_ + static_cast<std::size_t>(value)];
      if (count != 1) continue;
      facet_present_[fs] |= std::uint64_t{1} << value;
      const int distinct = ++facet_distinct_[fs];
      if (distinct > p_.k) {
        overflow = true;
      } else if (distinct == p_.k) {
        saturated_.push_back(f);
      }
    }
    if (overflow) return false;
    for (int f : saturated_) {
      if (!saturate(f)) return false;
    }
    return true;
  }

  void retract_facets(int vertex, int value) {
    for (int f : p_.facets_of[static_cast<std::size_t>(vertex)]) {
      const auto fs = static_cast<std::size_t>(f);
      const std::uint16_t count =
          --facet_count_[fs * values_ + static_cast<std::size_t>(value)];
      if (count == 0) {
        facet_present_[fs] &= ~(std::uint64_t{1} << value);
        --facet_distinct_[fs];
      }
    }
  }

  /// Facet `f` carries k distinct values: every unassigned member must
  /// reuse one.
  bool saturate(int f) {
    const auto fs = static_cast<std::size_t>(f);
    const std::uint64_t present = facet_present_[fs];
    for (int u : p_.facets[fs]) {
      if (assigned_[static_cast<std::size_t>(u)]) continue;
      if (!shrink(u, present)) return false;
    }
    return true;
  }

  /// Intersects vertex `u`'s domain with `allowed`; records the removal,
  /// cascades unit assignment, and returns false on wipeout.
  bool shrink(int u, std::uint64_t allowed) {
    const auto us = static_cast<std::size_t>(u);
    const std::uint64_t old = domain_[us];
    const std::uint64_t next = old & allowed;
    if (next == old) return true;
    trail_.push_back({u, /*is_assign=*/false, old});
    domain_[us] = next;
    if (!assigned_[us]) {
      branch_erase(u, old);
      branch_insert(u, next);
    }
    if (next == 0) return false;
    if (std::popcount(next) == 1 && !assigned_[us]) {
      assign(u, std::countr_zero(next));
    }
    return true;
  }

  /// Drains the propagation queue (facet counters and saturation). Returns
  /// false on a dead end. Polls the cooperative deadline so a psph_serve
  /// budget fires mid-propagation.
  bool flush_propagation() {
    while (queue_head_ < queue_.size()) {
      const int vertex = queue_[queue_head_++];
      const auto vs = static_cast<std::size_t>(vertex);
      ++stats.propagations;
      if ((stats.propagations & 0x3F) == 0) util::poll_deadline();
      const bool consistent = apply_facets(vertex, value_[vs]);
      processed_[vs] = 1;
      if (!consistent) return false;
    }
    return true;
  }

  // ---- probing ----

  /// Marks every literal assigned on the trail since `mark` as implied.
  void mark_implied(std::size_t mark) {
    for (std::size_t i = mark; i < trail_.size(); ++i) {
      if (!trail_[i].is_assign) continue;
      const auto u = static_cast<std::size_t>(trail_[i].vertex);
      if (implied_[u] == 0) implied_touched_.push_back(trail_[i].vertex);
      implied_[u] |= std::uint64_t{1} << value_[u];
    }
  }

  void clear_implied() {
    for (int u : implied_touched_) {
      implied_[static_cast<std::size_t>(u)] = 0;
    }
    implied_touched_.clear();
  }

  /// Failed-literal probing at the root: tentatively assign each (vertex,
  /// value), propagate, and prune the value when propagation dies. Runs to
  /// fixpoint. A literal a successful probe of this sweep assigned, with no
  /// prune since, is not probed: it would succeed and prune nothing
  /// (engine.h). Returns false if the root dies.
  bool probe_root() {
    bool changed = true;
    while (changed) {
      changed = false;
      clear_implied();
      for (int v = 0; v < vertex_count_; ++v) {
        const auto vs = static_cast<std::size_t>(v);
        if (assigned_[vs]) continue;
        std::uint64_t mask = domain_[vs];
        while (mask != 0) {
          const int value = std::countr_zero(mask);
          mask &= mask - 1;
          if ((implied_[vs] >> value) & 1) continue;
          util::poll_deadline();
          ++stats.probes;
          g_probes.add();
          push_level();
          assign(v, value);
          const bool consistent = flush_propagation();
          if (consistent) mark_implied(level_marks_.back());
          undo_level();
          if (consistent) continue;
          ++stats.probe_failures;
          clear_implied();
          if (!shrink(v, ~(std::uint64_t{1} << value))) return false;
          if (!flush_propagation()) return false;
          changed = true;
          if (assigned_[vs]) break;
          mask &= domain_[vs];
        }
      }
    }
    return true;
  }

  // ---- search ----

  /// Smallest domain first; ties go to the vertex in the most facets, then
  /// to the lowest index: the first set bit of the smallest nonempty size's
  /// bitset.
  int pick_vertex() const {
    for (std::size_t size = 0; size <= values_; ++size) {
      if (branch_count_[size] == 0) continue;
      const std::uint64_t* bits = branch_bits_.data() + size * words_;
      std::size_t w = 0;
      while (bits[w] == 0) ++w;
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits[w]));
      return order_[w * 64 + bit];
    }
    return -1;
  }

  Verdict search(std::vector<int>& witness) {
    if (node_limit_ != 0 && stats.nodes >= node_limit_) return kAborted;
    ++stats.nodes;
    g_nodes.add();
    util::poll_deadline();

    const int v = pick_vertex();
    if (v < 0) {
      witness = value_;
      return kSat;
    }
    const auto vs = static_cast<std::size_t>(v);
    for (int value = 0; value < p_.num_values; ++value) {
      if ((domain_[vs] & (std::uint64_t{1} << value)) == 0) continue;
      push_level();
      assign(v, value);
      const Verdict verdict = flush_propagation() ? search(witness) : kUnsat;
      undo_level();
      if (verdict != kUnsat) return verdict;
    }
    return kUnsat;
  }
};

/// Lexicographically least decision map: fix vertices in index order, each
/// to the smallest value whose prefix still completes. The completion
/// oracle is one deterministic searcher without a node limit (completeness
/// is required). `start` must be a valid witness (the completion anchor).
std::vector<int> lex_min_witness(const CspProblem& p,
                                 const std::vector<int>& start) {
  obs::SpanTimer span("solve.canonical_witness");
  Searcher oracle(p, /*node_limit=*/0);
  std::vector<int> current = start;
  std::vector<Lit> prefix;
  prefix.reserve(p.vertex_ids.size());
  const int vertex_count = static_cast<int>(p.vertex_ids.size());
  for (int v = 0; v < vertex_count; ++v) {
    const auto vs = static_cast<std::size_t>(v);
    std::uint64_t mask = p.domains[vs];
    while (mask != 0) {
      const int value = std::countr_zero(mask);
      mask &= mask - 1;
      prefix.push_back({v, value});
      if (value == current[vs]) break;
      std::vector<int> completion;
      if (oracle.run(prefix, /*probe=*/false, completion) == kSat) {
        current = std::move(completion);
        break;
      }
      prefix.pop_back();
    }
  }
  return current;
}

}  // namespace

SolveOutcome solve(const CspProblem& problem, const EngineOptions& options) {
  obs::SpanTimer span("solve.search");
  Searcher searcher(problem, options.node_limit);
  std::vector<int> witness;
  const Verdict verdict = searcher.run({}, /*probe=*/true, witness);
  SolveOutcome out;
  out.stats = searcher.stats;
  out.exhausted = verdict != kAborted;
  out.solvable = verdict == kSat;
  g_propagations.add(out.stats.propagations);
  if (out.solvable) out.witness = lex_min_witness(problem, witness);
  return out;
}

}  // namespace psph::solve
