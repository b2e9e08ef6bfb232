#include "solve/engine.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <unordered_set>

#include "obs/obs.h"
#include "util/cancel.h"

namespace psph::solve {

namespace {

obs::Counter g_nodes("solve.nodes");
obs::Counter g_propagations("solve.propagations");
obs::Counter g_learned("solve.learned_nogoods");
obs::Counter g_nogood_hits("solve.nogood_hits");
obs::Counter g_probes("solve.probes");

std::uint64_t hash_lits(const std::vector<Lit>& lits) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const Lit& lit : lits) {
    h = (h ^ static_cast<std::uint64_t>(lit.vertex)) * 1099511628211ULL;
    h = (h ^ static_cast<std::uint64_t>(lit.value)) * 1099511628211ULL;
  }
  return h;
}

enum Verdict { kAborted = -1, kUnsat = 0, kSat = 1 };

/// One complete propagate/learn search over a compiled problem. Holds all
/// mutable search state; solve_under() may be called repeatedly (the
/// lex-min witness extraction does), with only the learned-nogood database
/// persisting between calls.
class Searcher {
 public:
  Searcher(const CspProblem& p, bool learning, const EngineOptions& opt)
      : p_(p),
        learning_(learning),
        opt_(opt),
        vertex_count_(static_cast<int>(p.vertex_ids.size())),
        domain_(p.domains),
        value_(p.vertex_ids.size(), -1),
        assigned_(p.vertex_ids.size(), 0),
        is_decision_(p.vertex_ids.size(), 0),
        removal_reasons_(p.vertex_ids.size()),
        facet_distinct_(p.facets.size(), 0),
        facet_present_(p.facets.size(), 0),
        watchers_(p.vertex_ids.size() *
                  static_cast<std::size_t>(p.num_values)),
        processed_(p.vertex_ids.size(), 0) {
    facet_count_.reserve(p.facets.size());
    for (std::size_t f = 0; f < p.facets.size(); ++f) {
      facet_count_.emplace_back(static_cast<std::size_t>(p.num_values), 0);
    }
  }

  EngineStats stats;
  std::vector<std::vector<Lit>> learned_originals;

  /// Runs the search under forced assumptions. `probe` enables root
  /// failed-literal probing (primary calls only; the completion oracle
  /// skips it). On kSat, *witness holds a dense value per vertex.
  Verdict solve_under(const std::vector<Lit>& assumptions, bool probe,
                      std::vector<int>* witness) {
    reset();
    aborted_ = false;
    // Root singletons/wipeouts (a vertex whose validity domain is already
    // one value — or none, which refutes the instance outright).
    for (int v = 0; v < vertex_count_; ++v) {
      const std::uint64_t mask = domain_[static_cast<std::size_t>(v)];
      if (mask == 0) return kUnsat;
      if (std::popcount(mask) == 1 && !assigned_[static_cast<std::size_t>(v)]) {
        assign(v, std::countr_zero(mask), /*decision=*/false);
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
      assign(a.vertex, a.value, /*decision=*/true);
      if (!flush_propagation()) return unwind_unsat();
    }
    if (probe && opt_.root_probing && !probe_root()) return unwind_unsat();
    const Verdict verdict = search(witness);
    if (verdict == kAborted) aborted_ = true;
    return verdict;
  }

  bool aborted() const { return aborted_; }

 private:
  // ---- state ----

  struct TrailEvent {
    int vertex = 0;
    bool is_assign = false;
    std::uint64_t old_domain = 0;  // removal events only
  };

  struct Nogood {
    std::vector<Lit> lits;  // sorted
    int w0 = 0, w1 = 0;     // watched positions
  };

  struct Conflict {
    enum class Kind { kNone, kWipeout, kOverflow, kNogood } kind = Kind::kNone;
    int vertex = -1;  // kWipeout
    int facet = -1;   // kOverflow
    int nogood = -1;  // kNogood
  };

  const CspProblem& p_;
  bool learning_;
  const EngineOptions& opt_;
  int vertex_count_;

  std::vector<std::uint64_t> domain_;
  std::vector<int> value_;
  std::vector<signed char> assigned_;
  std::vector<signed char> is_decision_;
  /// Active domain-removal antecedent sets per vertex, pushed on shrink,
  /// popped by undo (global trail order preserves per-vertex order).
  std::vector<std::vector<std::vector<Lit>>> removal_reasons_;

  std::vector<std::vector<std::uint16_t>> facet_count_;
  std::vector<int> facet_distinct_;
  std::vector<std::uint64_t> facet_present_;

  std::vector<TrailEvent> trail_;
  std::vector<std::size_t> level_marks_;
  std::vector<int> queue_;  // assigned vertices pending facet/nogood updates
  std::size_t queue_head_ = 0;

  std::vector<Nogood> db_;
  std::vector<std::vector<int>> watchers_;  // literal id -> nogood indices
  std::unordered_set<std::uint64_t> installed_;
  std::unordered_set<std::uint64_t> canonical_seen_;

  Conflict conflict_;
  bool aborted_ = false;

  // ---- small helpers ----

  std::size_t lit_id(int vertex, int value) const {
    return static_cast<std::size_t>(vertex) *
               static_cast<std::size_t>(p_.num_values) +
           static_cast<std::size_t>(value);
  }
  bool lit_true(const Lit& l) const {
    return assigned_[static_cast<std::size_t>(l.vertex)] != 0 &&
           value_[static_cast<std::size_t>(l.vertex)] == l.value;
  }
  bool lit_false(const Lit& l) const {
    return assigned_[static_cast<std::size_t>(l.vertex)] != 0 &&
           value_[static_cast<std::size_t>(l.vertex)] != l.value;
  }

  void push_level() { level_marks_.push_back(trail_.size()); }

  void assign(int vertex, int value, bool decision) {
    value_[static_cast<std::size_t>(vertex)] = value;
    assigned_[static_cast<std::size_t>(vertex)] = 1;
    is_decision_[static_cast<std::size_t>(vertex)] =
        decision ? 1 : 0;
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
        is_decision_[v] = 0;
        value_[v] = -1;
      } else {
        domain_[v] = event.old_domain;
        removal_reasons_[v].pop_back();
      }
    }
    queue_.clear();
    queue_head_ = 0;
    conflict_ = Conflict{};
  }

  Verdict unwind_unsat() {
    while (!level_marks_.empty()) undo_level();
    return kUnsat;
  }

  void reset() {
    while (!level_marks_.empty()) undo_level();
    // Undo any level-0 events (root singletons, probe prunes) so repeated
    // solve_under calls start from the pristine problem; the nogood
    // database carries the learning across calls instead.
    level_marks_.push_back(0);
    undo_level();
  }

  std::vector<signed char> processed_;  // facet counters applied for vertex

  /// Applies `vertex = value` to every incident facet's counters. All
  /// counter increments complete even on conflict so retract_facets stays
  /// exactly symmetric; saturation shrinks run afterwards (each shrink is
  /// individually trail-recorded, so a mid-loop wipeout undoes cleanly).
  void apply_facets(int vertex, int value, Conflict* out) {
    std::vector<int> newly_saturated;
    for (int f : p_.facets_of[static_cast<std::size_t>(vertex)]) {
      const auto fs = static_cast<std::size_t>(f);
      const std::uint16_t count =
          ++facet_count_[fs][static_cast<std::size_t>(value)];
      if (count != 1) continue;
      facet_present_[fs] |= std::uint64_t{1} << value;
      const int distinct = ++facet_distinct_[fs];
      if (distinct > p_.k && out->kind == Conflict::Kind::kNone) {
        out->kind = Conflict::Kind::kOverflow;
        out->facet = f;
      } else if (distinct == p_.k) {
        newly_saturated.push_back(f);
      }
    }
    if (out->kind != Conflict::Kind::kNone) return;
    for (int f : newly_saturated) {
      if (!saturate(f, out)) return;
    }
  }

  void retract_facets(int vertex, int value) {
    for (int f : p_.facets_of[static_cast<std::size_t>(vertex)]) {
      const auto fs = static_cast<std::size_t>(f);
      const std::uint16_t count =
          --facet_count_[fs][static_cast<std::size_t>(value)];
      if (count == 0) {
        facet_present_[fs] &= ~(std::uint64_t{1} << value);
        --facet_distinct_[fs];
      }
    }
  }

  /// Facet `f` carries k distinct values: every unassigned member must
  /// reuse one. Antecedents: one assigned (vertex, value) per present
  /// value — the minimal saturated-facet support.
  bool saturate(int f, Conflict* out) {
    const auto fs = static_cast<std::size_t>(f);
    std::vector<Lit> support;
    support.reserve(static_cast<std::size_t>(p_.k));
    std::uint64_t covered = 0;
    for (int u : p_.facets[fs]) {
      const auto us = static_cast<std::size_t>(u);
      if (!assigned_[us]) continue;
      const std::uint64_t bit = std::uint64_t{1} << value_[us];
      if ((covered & bit) != 0) continue;
      covered |= bit;
      support.push_back({u, value_[us]});
    }
    const std::uint64_t present = facet_present_[fs];
    for (int u : p_.facets[fs]) {
      const auto us = static_cast<std::size_t>(u);
      if (assigned_[us]) continue;
      if (!shrink(u, present, support, out)) return false;
    }
    return true;
  }

  /// Intersects vertex `u`'s domain with `allowed`; records the removal
  /// with its antecedents, cascades unit assignment, flags wipeout.
  bool shrink(int u, std::uint64_t allowed, const std::vector<Lit>& reason,
              Conflict* out) {
    const auto us = static_cast<std::size_t>(u);
    const std::uint64_t old = domain_[us];
    const std::uint64_t next = old & allowed;
    if (next == old) return true;
    trail_.push_back({u, /*is_assign=*/false, old});
    removal_reasons_[us].push_back(reason);
    domain_[us] = next;
    if (next == 0) {
      out->kind = Conflict::Kind::kWipeout;
      out->vertex = u;
      return false;
    }
    if (std::popcount(next) == 1 && !assigned_[us]) {
      assign(u, std::countr_zero(next), /*decision=*/false);
    }
    return true;
  }

  /// Drains the propagation queue (facet counters, saturation, nogood
  /// watches). Returns false and sets conflict_ on a dead end. Polls the
  /// cooperative deadline so a psph_serve budget fires mid-propagation.
  bool flush_propagation() {
    Conflict conflict;
    while (queue_head_ < queue_.size()) {
      const int vertex = queue_[queue_head_++];
      const auto vs = static_cast<std::size_t>(vertex);
      const int value = value_[vs];
      ++stats.propagations;
      if ((stats.propagations & 0x3F) == 0) util::poll_deadline();
      apply_facets(vertex, value, &conflict);
      processed_[vs] = 1;
      if (conflict.kind != Conflict::Kind::kNone) break;
      if (!db_.empty() && !propagate_nogoods(vertex, value, &conflict)) break;
    }
    if (conflict.kind == Conflict::Kind::kNone) return true;
    conflict_ = conflict;
    return false;
  }

  bool propagate_nogoods(int vertex, int value, Conflict* out) {
    std::vector<int>& list = watchers_[lit_id(vertex, value)];
    for (std::size_t i = 0; i < list.size();) {
      const int ni = list[i];
      Nogood& ng = db_[static_cast<std::size_t>(ni)];
      const Lit self{vertex, value};
      int self_watch;
      if (ng.lits[static_cast<std::size_t>(ng.w0)] == self) {
        self_watch = 0;
      } else if (ng.lits[static_cast<std::size_t>(ng.w1)] == self) {
        self_watch = 1;
      } else {
        // Stale entry from a moved watch; drop it.
        list[i] = list.back();
        list.pop_back();
        continue;
      }
      const int other_pos = self_watch == 0 ? ng.w1 : ng.w0;
      const Lit other = ng.lits[static_cast<std::size_t>(other_pos)];
      if (ng.w0 != ng.w1 && lit_false(other)) {
        // Nogood cannot complete while the other watch is false.
        ++i;
        continue;
      }
      // Try to move this watch to a not-true literal elsewhere.
      bool moved = false;
      for (std::size_t pos = 0; pos < ng.lits.size(); ++pos) {
        if (static_cast<int>(pos) == ng.w0 ||
            static_cast<int>(pos) == ng.w1) {
          continue;
        }
        if (!lit_true(ng.lits[pos])) {
          (self_watch == 0 ? ng.w0 : ng.w1) = static_cast<int>(pos);
          watchers_[lit_id(ng.lits[pos].vertex, ng.lits[pos].value)]
              .push_back(ni);
          list[i] = list.back();
          list.pop_back();
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Every non-watch literal is true, and so is this watch.
      if (ng.w0 == ng.w1 || lit_true(other)) {
        ++stats.nogood_hits;
        out->kind = Conflict::Kind::kNogood;
        out->nogood = ni;
        return false;
      }
      if (lit_false(other)) {
        ++i;
        continue;
      }
      // Force the last literal false: remove its value from its domain.
      ++stats.nogood_hits;
      std::vector<Lit> reason;
      reason.reserve(ng.lits.size() - 1);
      for (const Lit& l : ng.lits) {
        if (!(l == other)) reason.push_back(l);
      }
      if (!shrink(other.vertex, ~(std::uint64_t{1} << other.value), reason,
                  out)) {
        return false;
      }
      ++i;
    }
    return true;
  }

  // ---- conflict analysis ----

  /// Resolves the current conflict back through propagation reasons to the
  /// set of implicated *decisions* (assumptions count as decisions). An
  /// empty result means the conflict holds unconditionally: unsolvable.
  std::vector<Lit> analyze() {
    std::vector<Lit> frontier;
    switch (conflict_.kind) {
      case Conflict::Kind::kWipeout: {
        const auto vs = static_cast<std::size_t>(conflict_.vertex);
        for (const std::vector<Lit>& reason : removal_reasons_[vs]) {
          frontier.insert(frontier.end(), reason.begin(), reason.end());
        }
        break;
      }
      case Conflict::Kind::kOverflow: {
        const auto fs = static_cast<std::size_t>(conflict_.facet);
        std::uint64_t covered = 0;
        for (int u : p_.facets[fs]) {
          const auto us = static_cast<std::size_t>(u);
          if (!assigned_[us]) continue;
          const std::uint64_t bit = std::uint64_t{1} << value_[us];
          if ((covered & bit) != 0) continue;
          covered |= bit;
          frontier.push_back({u, value_[us]});
          if (std::popcount(covered) > p_.k) break;
        }
        break;
      }
      case Conflict::Kind::kNogood: {
        const Nogood& ng = db_[static_cast<std::size_t>(conflict_.nogood)];
        frontier = ng.lits;
        break;
      }
      case Conflict::Kind::kNone:
        break;
    }

    std::vector<signed char> visited(p_.vertex_ids.size(), 0);
    std::vector<Lit> decisions;
    while (!frontier.empty()) {
      const Lit lit = frontier.back();
      frontier.pop_back();
      const auto vs = static_cast<std::size_t>(lit.vertex);
      if (visited[vs]) continue;
      visited[vs] = 1;
      if (is_decision_[vs]) {
        decisions.push_back({lit.vertex, value_[vs]});
        continue;
      }
      // Propagated unit: implied by every removal that shaped its domain
      // down to a singleton.
      for (const std::vector<Lit>& reason : removal_reasons_[vs]) {
        frontier.insert(frontier.end(), reason.begin(), reason.end());
      }
    }
    std::sort(decisions.begin(), decisions.end());
    return decisions;
  }

  // ---- learning ----

  /// Installs `lits` (sorted) as a watched nogood, deduplicated.
  void install(std::vector<Lit> lits) {
    if (lits.empty() || db_.size() >= opt_.max_nogoods) return;
    const std::uint64_t h = hash_lits(lits);
    if (!installed_.insert(h).second) return;
    Nogood ng;
    ng.lits = std::move(lits);
    // Prefer not-true literals as watches so the nogood re-arms as the
    // search backtracks past its conflict level.
    int first = -1, second = -1;
    for (std::size_t pos = 0; pos < ng.lits.size(); ++pos) {
      if (!lit_true(ng.lits[pos])) {
        if (first < 0) {
          first = static_cast<int>(pos);
        } else if (second < 0) {
          second = static_cast<int>(pos);
          break;
        }
      }
    }
    if (first < 0) first = 0;
    if (second < 0) {
      second = ng.lits.size() > 1 ? (first == 0 ? 1 : 0) : first;
    }
    ng.w0 = first;
    ng.w1 = second;
    const int id = static_cast<int>(db_.size());
    watchers_[lit_id(ng.lits[static_cast<std::size_t>(ng.w0)].vertex,
                     ng.lits[static_cast<std::size_t>(ng.w0)].value)]
        .push_back(id);
    if (ng.w1 != ng.w0) {
      watchers_[lit_id(ng.lits[static_cast<std::size_t>(ng.w1)].vertex,
                       ng.lits[static_cast<std::size_t>(ng.w1)].value)]
          .push_back(id);
    }
    db_.push_back(std::move(ng));
  }

  /// Learns the conflict set: canonicalizes it under the symmetry group,
  /// counts one learned nogood per new canonical class, and instantiates
  /// the class's images so symmetric re-entries prune too.
  void learn(const std::vector<Lit>& decisions) {
    if (!learning_ || decisions.empty()) return;
    // Canonical form: lex-min sorted image over the usable group elements.
    std::vector<Lit> canonical = decisions;
    std::vector<Lit> image(decisions.size());
    for (std::size_t g = 1; g < p_.group_order(); ++g) {
      relabel(decisions, g, &image);
      if (image < canonical) canonical = image;
    }
    if (!canonical_seen_.insert(hash_lits(canonical)).second) {
      // Class already learned; the triggering instance may still be new.
      install(decisions);
      return;
    }
    ++stats.learned_nogoods;
    g_learned.add();
    if (opt_.collect_nogoods) learned_originals.push_back(decisions);
    install(decisions);
    if (!opt_.symmetric_nogoods) return;
    const std::size_t cap =
        std::min(p_.group_order(), opt_.max_symmetric_images);
    for (std::size_t g = 1; g < cap; ++g) {
      relabel(decisions, g, &image);
      install(image);
    }
  }

  void relabel(const std::vector<Lit>& lits, std::size_t g,
               std::vector<Lit>* out) const {
    const std::vector<int>& vperm = p_.sym_vertex[g];
    const std::vector<int>& valperm = p_.sym_value[g];
    out->resize(lits.size());
    for (std::size_t i = 0; i < lits.size(); ++i) {
      (*out)[i] = {vperm[static_cast<std::size_t>(lits[i].vertex)],
                   valperm[static_cast<std::size_t>(lits[i].value)]};
    }
    std::sort(out->begin(), out->end());
  }

  // ---- probing ----

  /// Failed-literal probing at the root: tentatively assign each (vertex,
  /// value), propagate, and on conflict prune the value with the learned
  /// antecedents. Runs to fixpoint. Returns false if the root dies.
  bool probe_root() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int v = 0; v < vertex_count_; ++v) {
        const auto vs = static_cast<std::size_t>(v);
        if (assigned_[vs]) continue;
        std::uint64_t mask = domain_[vs];
        while (mask != 0) {
          const int value = std::countr_zero(mask);
          mask &= mask - 1;
          util::poll_deadline();
          ++stats.probes;
          g_probes.add();
          push_level();
          assign(v, value, /*decision=*/true);
          if (flush_propagation()) {
            undo_level();
            continue;
          }
          ++stats.probe_failures;
          std::vector<Lit> decisions = analyze();
          undo_level();
          learn(decisions);
          // Antecedents of the pruning: the conflict set minus the probe.
          std::vector<Lit> reason;
          for (const Lit& lit : decisions) {
            if (!(lit == Lit{v, value})) reason.push_back(lit);
          }
          Conflict conflict;
          if (!shrink(v, ~(std::uint64_t{1} << value), reason, &conflict)) {
            conflict_ = conflict;
            return false;
          }
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
  /// to the lowest index.
  int pick_vertex() const {
    int best = -1;
    int best_size = 0;
    for (int v = 0; v < vertex_count_; ++v) {
      const auto vs = static_cast<std::size_t>(v);
      if (assigned_[vs]) continue;
      const int size = std::popcount(domain_[vs]);
      const bool better =
          best < 0 || size < best_size ||
          (size == best_size &&
           p_.facets_of[vs].size() >
               p_.facets_of[static_cast<std::size_t>(best)].size());
      if (better) {
        best = v;
        best_size = size;
      }
    }
    return best;
  }

  Verdict search(std::vector<int>* witness) {
    if (opt_.node_limit != 0 && stats.nodes >= opt_.node_limit) {
      return kAborted;
    }
    ++stats.nodes;
    g_nodes.add();
    util::poll_deadline();

    const int v = pick_vertex();
    if (v < 0) {
      if (witness != nullptr) *witness = value_;
      return kSat;
    }
    const auto vs = static_cast<std::size_t>(v);
    for (int value = 0; value < p_.num_values; ++value) {
      if ((domain_[vs] & (std::uint64_t{1} << value)) == 0) continue;
      push_level();
      assign(v, value, /*decision=*/true);
      if (flush_propagation()) {
        const Verdict verdict = search(witness);
        undo_level();
        if (verdict != kUnsat) return verdict;
      } else {
        learn(analyze());
        undo_level();
      }
    }
    return kUnsat;
  }
};

/// Lexicographically least decision map: fix vertices in index order, each
/// to the smallest value whose prefix still completes. The completion
/// oracle is a deterministic learning searcher whose nogood database
/// persists across calls, so refuted candidates stay refuted cheaply.
/// `start` must be a valid witness (the completion anchor).
std::vector<int> lex_min_witness(const CspProblem& p,
                                 const std::vector<int>& start,
                                 const EngineOptions& opt) {
  obs::SpanTimer span("solve.canonical_witness");
  EngineOptions oracle_opt = opt;
  oracle_opt.node_limit = 0;  // completeness required
  Searcher oracle(p, /*learning=*/true, oracle_opt);
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
      if (value == current[vs]) {
        prefix.push_back({v, value});
        break;
      }
      prefix.push_back({v, value});
      std::vector<int> completion;
      const Verdict verdict =
          oracle.solve_under(prefix, /*probe=*/false, &completion);
      prefix.pop_back();
      if (verdict == kSat) {
        current = completion;
        prefix.push_back({v, value});
        break;
      }
    }
  }
  return current;
}

SolveOutcome run(const CspProblem& p, const std::vector<Lit>& assumptions,
                 bool probe, const EngineOptions& opt) {
  SolveOutcome out;
  Searcher searcher(p, opt.stage == EngineStage::kLearn, opt);
  std::vector<int> witness;
  const Verdict verdict = searcher.solve_under(assumptions, probe, &witness);
  out.stats = searcher.stats;
  out.learned = std::move(searcher.learned_originals);
  out.exhausted = verdict != kAborted;
  out.solvable = verdict == kSat;
  if (out.solvable) out.witness = std::move(witness);
  return out;
}

}  // namespace

const char* stage_name(EngineStage stage) {
  switch (stage) {
    case EngineStage::kPropagate: return "propagate";
    case EngineStage::kLearn: return "learn";
  }
  return "?";
}

SolveOutcome solve(const CspProblem& problem, const EngineOptions& options) {
  obs::SpanTimer span("solve.search");
  SolveOutcome out = run(problem, {}, /*probe=*/true, options);
  g_propagations.add(out.stats.propagations);
  g_nogood_hits.add(out.stats.nogood_hits);
  if (out.solvable && options.canonical_witness) {
    out.witness = lex_min_witness(problem, out.witness, options);
  }
  return out;
}

SolveOutcome solve_under(const CspProblem& problem,
                         const std::vector<Lit>& assumptions,
                         const EngineOptions& options) {
  return run(problem, assumptions, /*probe=*/false, options);
}

}  // namespace psph::solve
