#include "sparql/plangen.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>

namespace alex::sparql {
namespace {

using rdf::IndexOrder;
using rdf::TermId;
using rdf::TermPattern;

// Arena safety valve: candidate operators created during enumeration
// (including discarded ones) before the generator gives up.
constexpr size_t kMaxArenaOps = 200000;
// Fallback distinct-count guess when no statistics apply (mirrors the
// greedy orderer's default shrink factor).
constexpr double kDefaultDistinct = 50.0;
// Cost units: scanning/emitting one row costs 1. Hashing a build row costs
// kHashBuildFactor; opening one index probe costs kProbeCost (two binary
// searches).
constexpr double kHashBuildFactor = 2.0;
constexpr double kProbeCost = 4.0;

// One candidate plan for a pattern subset: a root in the shared arena plus
// the estimates and the slot -> register map of its output.
struct SubPlan {
  int op = -1;
  double rows = 0.0;
  double cost = 0.0;
  VarSlot order_slot = kNoSlot;
  std::vector<PlanReg> slot_reg;
};

class PlanBuilder {
 public:
  PlanBuilder(const CompiledQuery& compiled, size_t alternative,
              const rdf::DatasetStats* stats)
      : compiled_(compiled),
        group_(compiled.alternatives[alternative]),
        store_(*compiled.store),
        stats_(stats),
        n_(compiled.alternatives[alternative].patterns.size()) {}

  PhysicalPlan Build() {
    PhysicalPlan plan;
    if (n_ == 0 || n_ > kMaxDpPatterns || group_.unmatchable) return plan;
    const Query& query = *compiled_.query;
    dedup_ok_ = (query.distinct && query.aggregates.empty()) || query.is_ask;
    AssignRegisters();
    ComputeDistinctEstimates();

    std::vector<std::vector<SubPlan>> best(1u << n_);
    for (size_t i = 0; i < n_; ++i) {
      LeafPlans(i, &best[1u << i]);
    }
    for (uint32_t set = 1; set < (1u << n_); ++set) {
      if (std::popcount(set) < 2) continue;
      for (uint32_t left = (set - 1) & set; left != 0;
           left = (left - 1) & set) {
        uint32_t right = set ^ left;
        if (right == 0) continue;
        for (const SubPlan& pl : best[left]) {
          if (std::popcount(right) == 1) {
            ConsiderLookupJoin(&best[set], pl,
                               static_cast<size_t>(std::countr_zero(right)));
          }
          for (const SubPlan& pr : best[right]) {
            ConsiderHashJoin(&best[set], pl, pr);
            ConsiderMergeJoin(&best[set], pl, pr);
          }
        }
        if (overflow_) return plan;  // root stays -1: greedy fallback
      }
    }

    const std::vector<SubPlan>& pool = best[(1u << n_) - 1];
    if (pool.empty()) return plan;
    size_t chosen = 0;
    for (size_t i = 1; i < pool.size(); ++i) {
      if (pool[i].cost < pool[chosen].cost) chosen = i;
    }
    SubPlan final = pool[chosen];

    // Place every fully-covered FILTER at the lowest operator whose output
    // binds all its variables; the executor's filters-passed mask starts
    // from `applied_filters` so they are not re-evaluated at emission.
    uint64_t applied = 0;
    for (size_t fi = 0; fi < compiled_.filters.size() && fi < 64; ++fi) {
      const CompiledFilter& filter = compiled_.filters[fi];
      if (filter.slots.empty()) continue;
      bool covered = true;
      for (VarSlot slot : filter.slots) {
        if (final.slot_reg[slot] == kNoReg) covered = false;
      }
      if (!covered) continue;
      final.op = PlaceFilter(final.op, static_cast<int>(fi), filter);
      applied |= 1ull << fi;
    }

    Compact(final.op, &plan);
    plan.num_regs = num_regs_;
    plan.slot_reg = std::move(final.slot_reg);
    plan.applied_filters = applied;
    return plan;
  }

 private:
  const CompiledNode* Node(size_t pattern, int k) const {
    const CompiledPattern& p = group_.patterns[pattern];
    const CompiledNode* nodes[3] = {&p.subject, &p.predicate, &p.object};
    return nodes[k];
  }

  // One register per (pattern, position) variable; a variable repeated
  // inside one pattern reuses the first occurrence's register and becomes a
  // residual equality check (kCheck).
  void AssignRegisters() {
    base_pos_.assign(n_, {ScanPos::kConst, ScanPos::kConst, ScanPos::kConst});
    base_reg_.assign(n_, {kNoReg, kNoReg, kNoReg});
    slot_count_.assign(compiled_.num_slots, 0);
    for (size_t i = 0; i < n_; ++i) {
      for (int k = 0; k < 3; ++k) {
        const CompiledNode* node = Node(i, k);
        if (!node->is_variable) continue;
        ++slot_count_[node->slot];
        int first = -1;
        for (int j = 0; j < k; ++j) {
          const CompiledNode* prev = Node(i, j);
          if (prev->is_variable && prev->slot == node->slot) {
            first = j;
            break;
          }
        }
        if (first >= 0) {
          base_pos_[i][k] = ScanPos::kCheck;
          base_reg_[i][k] = base_reg_[i][first];
        } else {
          base_pos_[i][k] = ScanPos::kBind;
          base_reg_[i][k] = num_regs_;
          reg_slot_.push_back(node->slot);
          ++num_regs_;
        }
      }
    }
  }

  // Distinct-count estimate per slot: the most selective estimate over the
  // positions the slot occurs in, using per-predicate statistics when the
  // predicate is constant. Divides join-output estimates.
  void ComputeDistinctEstimates() {
    distinct_est_.assign(compiled_.num_slots, kDefaultDistinct);
    std::vector<bool> seen(compiled_.num_slots, false);
    for (size_t i = 0; i < n_; ++i) {
      const CompiledPattern& pattern = group_.patterns[i];
      const rdf::PredicateStats* pred_stats = nullptr;
      if (!pattern.predicate.is_variable && stats_ != nullptr) {
        pred_stats = stats_->Find(pattern.predicate.id);
      }
      for (int k = 0; k < 3; ++k) {
        const CompiledNode* node = Node(i, k);
        if (!node->is_variable) continue;
        double d = kDefaultDistinct;
        if (k == 1) {
          if (stats_ != nullptr) {
            d = std::max<double>(1.0, static_cast<double>(stats_->predicates));
          }
        } else if (pred_stats != nullptr) {
          d = std::max<double>(
              1.0, static_cast<double>(k == 0 ? pred_stats->distinct_subjects
                                              : pred_stats->distinct_objects));
        } else if (stats_ != nullptr) {
          d = std::max<double>(
              1.0, static_cast<double>(k == 0 ? stats_->subjects
                                              : stats_->distinct_objects));
        }
        if (!seen[node->slot] || d < distinct_est_[node->slot]) {
          distinct_est_[node->slot] = d;
          seen[node->slot] = true;
        }
      }
    }
  }

  // A slot may be run-skipped away when nothing outside this single
  // occurrence observes it.
  bool Eliminable(VarSlot slot) const {
    return slot_count_[slot] == 1 && !compiled_.needed_slots[slot];
  }

  // Keep `cand` unless an existing plan is at least as cheap AND at least
  // as small with an order that substitutes for cand's; evict plans cand
  // dominates the same way. Cardinality is part of the domination test
  // because two equal-cost subplans can feed very different row counts
  // into the joins above (an aggregated scan walks the same range as the
  // plain scan but emits only the distinct prefix runs).
  void Consider(std::vector<SubPlan>* pool, SubPlan cand) {
    if (ops_.size() > kMaxArenaOps) {
      overflow_ = true;
      return;
    }
    for (const SubPlan& p : *pool) {
      if (p.cost <= cand.cost && p.rows <= cand.rows &&
          (p.order_slot == cand.order_slot || cand.order_slot == kNoSlot)) {
        return;
      }
    }
    pool->erase(std::remove_if(pool->begin(), pool->end(),
                               [&](const SubPlan& p) {
                                 return cand.cost <= p.cost &&
                                        cand.rows <= p.rows &&
                                        (cand.order_slot == p.order_slot ||
                                         p.order_slot == kNoSlot);
                               }),
                pool->end());
    pool->push_back(std::move(cand));
  }

  void LeafPlans(size_t i, std::vector<SubPlan>* pool) {
    const CompiledPattern& pattern = group_.patterns[i];
    auto constant = [](const CompiledNode& node) -> TermPattern {
      if (node.is_variable) return std::nullopt;
      return node.id;
    };
    double rows = static_cast<double>(
        store_.CountMatches(constant(pattern.subject),
                            constant(pattern.predicate),
                            constant(pattern.object)));
    for (IndexOrder order :
         {IndexOrder::kSpo, IndexOrder::kPos, IndexOrder::kOsp}) {
      const int* positions = rdf::IndexPositions(order);
      // Constants must form a prefix of the index's position sequence.
      bool in_prefix = true;
      bool valid = true;
      std::vector<int> free_positions;  // in index sequence
      for (int k = 0; k < 3; ++k) {
        int pos = positions[k];
        if (base_pos_[i][pos] == ScanPos::kConst) {
          if (!in_prefix) valid = false;
        } else {
          in_prefix = false;
          free_positions.push_back(pos);
        }
      }
      if (!valid) continue;
      EmitScan(i, order, rows, free_positions, /*elim_count=*/0, pool);
      if (!dedup_ok_) continue;
      for (size_t elim = 1; elim <= free_positions.size(); ++elim) {
        int pos = free_positions[free_positions.size() - elim];
        const CompiledNode* node = Node(i, pos);
        if (base_pos_[i][pos] != ScanPos::kBind || !Eliminable(node->slot)) {
          break;  // suffix requirement: stop at the first non-eliminable
        }
        EmitScan(i, order, rows, free_positions, elim, pool);
      }
    }
  }

  void EmitScan(size_t i, IndexOrder order, double rows,
                const std::vector<int>& free_positions, size_t elim_count,
                std::vector<SubPlan>* pool) {
    PlanOp op;
    op.kind = elim_count == 0 ? PlanOpKind::kIndexScan
                              : PlanOpKind::kAggregatedIndexScan;
    op.pattern_index = static_cast<int>(i);
    op.index_order = order;
    for (int k = 0; k < 3; ++k) {
      op.pos[k] = base_pos_[i][k];
      op.pos_reg[k] = base_reg_[i][k];
    }
    for (size_t e = 0; e < elim_count; ++e) {
      op.pos[free_positions[free_positions.size() - 1 - e]] = ScanPos::kElim;
    }
    size_t emitted = free_positions.size() - elim_count;
    op.order_slot = emitted > 0
                        ? Node(i, free_positions[0])->slot
                        : kNoSlot;
    double est = rows;
    if (elim_count > 0) {
      if (emitted == 0) {
        est = std::min(rows, 1.0);
      } else {
        double distinct = 1.0;
        for (size_t e = 0; e < emitted; ++e) {
          distinct *= distinct_est_[Node(i, free_positions[e])->slot];
        }
        est = std::min(rows, distinct);
      }
    }
    op.est_rows = est;
    op.est_cost = rows + 1.0;

    SubPlan sub;
    sub.rows = est;
    sub.cost = op.est_cost;
    sub.order_slot = op.order_slot;
    sub.slot_reg.assign(compiled_.num_slots, kNoReg);
    for (int k = 0; k < 3; ++k) {
      if (op.pos[k] == ScanPos::kBind || op.pos[k] == ScanPos::kCheck) {
        VarSlot slot = Node(i, k)->slot;
        if (sub.slot_reg[slot] == kNoReg) sub.slot_reg[slot] = op.pos_reg[k];
        op.out_regs.push_back(op.pos_reg[k]);
      }
    }
    std::sort(op.out_regs.begin(), op.out_regs.end());
    op.out_regs.erase(std::unique(op.out_regs.begin(), op.out_regs.end()),
                      op.out_regs.end());
    ops_.push_back(std::move(op));
    sub.op = static_cast<int>(ops_.size() - 1);
    Consider(pool, std::move(sub));
  }

  // Output-cardinality estimate for a join over the given shared slots.
  double JoinRows(double left_rows, double right_rows,
                  const std::vector<VarSlot>& shared) const {
    double rows = left_rows * right_rows;
    for (VarSlot slot : shared) rows /= distinct_est_[slot];
    return std::max(rows, 0.001);
  }

  std::vector<VarSlot> SharedSlots(const SubPlan& left,
                                   const SubPlan& right) const {
    std::vector<VarSlot> shared;
    for (VarSlot s = 0; s < compiled_.num_slots; ++s) {
      if (left.slot_reg[s] != kNoReg && right.slot_reg[s] != kNoReg) {
        shared.push_back(s);
      }
    }
    return shared;
  }

  SubPlan JoinSubPlan(const SubPlan& left, const SubPlan& right,
                      PlanOp op, double rows, double cost) {
    op.est_rows = rows;
    op.est_cost = cost;
    op.out_regs = ops_[op.left].out_regs;
    if (op.right >= 0) {
      const std::vector<PlanReg>& r = ops_[op.right].out_regs;
      op.out_regs.insert(op.out_regs.end(), r.begin(), r.end());
      std::sort(op.out_regs.begin(), op.out_regs.end());
    }
    SubPlan sub;
    sub.rows = rows;
    sub.cost = cost;
    sub.order_slot = op.order_slot;
    sub.slot_reg = left.slot_reg;
    for (VarSlot s = 0; s < compiled_.num_slots; ++s) {
      if (sub.slot_reg[s] == kNoReg) sub.slot_reg[s] = right.slot_reg[s];
    }
    ops_.push_back(std::move(op));
    sub.op = static_cast<int>(ops_.size() - 1);
    return sub;
  }

  void ConsiderHashJoin(std::vector<SubPlan>* pool, const SubPlan& left,
                        const SubPlan& right) {
    std::vector<VarSlot> shared = SharedSlots(left, right);
    double rows = JoinRows(left.rows, right.rows, shared);
    double cost = left.cost + right.cost + kHashBuildFactor * right.rows +
                  left.rows + rows;
    PlanOp op;
    op.kind = PlanOpKind::kHashJoin;
    op.left = left.op;
    op.right = right.op;
    for (VarSlot s : shared) op.eq.push_back({left.slot_reg[s],
                                              right.slot_reg[s]});
    op.order_slot = left.order_slot;  // probe order is preserved
    Consider(pool, JoinSubPlan(left, right, std::move(op), rows, cost));
  }

  void ConsiderMergeJoin(std::vector<SubPlan>* pool, const SubPlan& left,
                         const SubPlan& right) {
    if (left.order_slot == kNoSlot || left.order_slot != right.order_slot) {
      return;
    }
    std::vector<VarSlot> shared = SharedSlots(left, right);
    double rows = JoinRows(left.rows, right.rows, shared);
    double cost = left.cost + right.cost + left.rows + right.rows + rows;
    PlanOp op;
    op.kind = PlanOpKind::kMergeJoin;
    op.left = left.op;
    op.right = right.op;
    VarSlot key = left.order_slot;
    op.eq.push_back({left.slot_reg[key], right.slot_reg[key]});
    for (VarSlot s : shared) {
      if (s != key) op.eq.push_back({left.slot_reg[s], right.slot_reg[s]});
    }
    op.order_slot = key;
    Consider(pool, JoinSubPlan(left, right, std::move(op), rows, cost));
  }

  // EstimatePatternRows probes the store, and the DP inner loop asks about
  // the same pattern under the same set of bound positions many times (once
  // per left sub-plan) — the estimate only depends on WHICH of the
  // pattern's three positions carry an already-bound variable, so memoize
  // on that 3-bit mask.
  double LookupPatternRows(size_t j, const SubPlan& left) {
    int mask = 0;
    for (int k = 0; k < 3; ++k) {
      const CompiledNode* node = Node(j, k);
      if (node->is_variable && left.slot_reg[node->slot] != kNoReg) {
        mask |= 1 << k;
      }
    }
    if (pattern_rows_cache_.empty()) {
      pattern_rows_cache_.assign(n_, {-1.0, -1.0, -1.0, -1.0,
                                      -1.0, -1.0, -1.0, -1.0});
    }
    double& cached = pattern_rows_cache_[j][mask];
    if (cached < 0.0) {
      std::vector<bool> bound(compiled_.num_slots, false);
      for (int k = 0; k < 3; ++k) {
        const CompiledNode* node = Node(j, k);
        if (node->is_variable && (mask & (1 << k))) bound[node->slot] = true;
      }
      cached = EstimatePatternRows(group_.patterns[j], bound, store_, stats_);
    }
    return cached;
  }

  void ConsiderLookupJoin(std::vector<SubPlan>* pool, const SubPlan& left,
                          size_t j) {
    double match = LookupPatternRows(j, left);

    PlanOp op;
    op.kind = PlanOpKind::kIndexLookupJoin;
    op.left = left.op;
    op.pattern_index = static_cast<int>(j);
    bool semi_ok = dedup_ok_;
    std::vector<PlanReg> bind_regs;
    for (int k = 0; k < 3; ++k) {
      const CompiledNode* node = Node(j, k);
      if (!node->is_variable) {
        op.pos[k] = ScanPos::kConst;
        continue;
      }
      if (left.slot_reg[node->slot] != kNoReg) {
        op.pos[k] = ScanPos::kProbe;
        op.pos_reg[k] = left.slot_reg[node->slot];
        continue;
      }
      op.pos[k] = base_pos_[j][k];
      op.pos_reg[k] = base_reg_[j][k];
      if (op.pos[k] == ScanPos::kBind) {
        bind_regs.push_back(op.pos_reg[k]);
        if (!Eliminable(node->slot)) semi_ok = false;
      }
    }
    op.semi = semi_ok;
    double rows = left.rows * match;
    if (op.semi) rows = left.rows * std::min(1.0, match);
    double cost = left.cost + left.rows * kProbeCost + rows;
    op.order_slot = left.order_slot;

    op.est_rows = rows;
    op.est_cost = cost;
    op.out_regs = ops_[op.left].out_regs;
    SubPlan sub;
    sub.rows = rows;
    sub.cost = cost;
    sub.order_slot = op.order_slot;
    sub.slot_reg = left.slot_reg;
    if (!op.semi) {
      for (int k = 0; k < 3; ++k) {
        if (op.pos[k] == ScanPos::kBind || op.pos[k] == ScanPos::kCheck) {
          VarSlot slot = Node(j, k)->slot;
          if (sub.slot_reg[slot] == kNoReg) {
            sub.slot_reg[slot] = op.pos_reg[k];
          }
          op.out_regs.push_back(op.pos_reg[k]);
        }
      }
      std::sort(op.out_regs.begin(), op.out_regs.end());
      op.out_regs.erase(std::unique(op.out_regs.begin(), op.out_regs.end()),
                        op.out_regs.end());
    }
    ops_.push_back(std::move(op));
    sub.op = static_cast<int>(ops_.size() - 1);
    Consider(pool, std::move(sub));
  }

  bool Covers(int op, const std::vector<VarSlot>& slots) const {
    for (VarSlot slot : slots) {
      bool found = false;
      for (PlanReg reg : ops_[op].out_regs) {
        if (reg_slot_[reg] == slot) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  PlanReg RegForSlot(int op, VarSlot slot) const {
    for (PlanReg reg : ops_[op].out_regs) {  // ascending: first = smallest
      if (reg_slot_[reg] == slot) return reg;
    }
    return kNoReg;
  }

  int PlaceFilter(int op, int filter_index, const CompiledFilter& filter) {
    for (int PlanOp::*child : {&PlanOp::left, &PlanOp::right}) {
      int c = ops_[op].*child;
      if (c >= 0 && Covers(c, filter.slots)) {
        int replaced = PlaceFilter(c, filter_index, filter);
        ops_[op].*child = replaced;
        return op;
      }
    }
    PlanOp fop;
    fop.kind = PlanOpKind::kFilter;
    fop.left = op;
    fop.filter_index = filter_index;
    for (VarSlot slot : filter.slots) {
      fop.filter_regs.push_back(RegForSlot(op, slot));
    }
    fop.order_slot = ops_[op].order_slot;
    fop.out_regs = ops_[op].out_regs;
    fop.est_rows = ops_[op].est_rows * 0.5;
    fop.est_cost = ops_[op].est_cost + ops_[op].est_rows;
    ops_.push_back(std::move(fop));
    return static_cast<int>(ops_.size() - 1);
  }

  // Copies the operators reachable from `root` into the plan, post-order
  // (children before parents), dropping the DP's discarded candidates.
  void Compact(int root, PhysicalPlan* plan) {
    std::vector<int> remap(ops_.size(), -1);
    std::vector<int> order;
    std::vector<int> visit{root};
    while (!visit.empty()) {
      int op = visit.back();
      visit.pop_back();
      order.push_back(op);
      if (ops_[op].left >= 0) visit.push_back(ops_[op].left);
      if (ops_[op].right >= 0) visit.push_back(ops_[op].right);
    }
    std::reverse(order.begin(), order.end());
    for (int op : order) {
      remap[op] = static_cast<int>(plan->ops.size());
      PlanOp copy = ops_[op];
      if (copy.left >= 0) copy.left = remap[copy.left];
      if (copy.right >= 0) copy.right = remap[copy.right];
      plan->ops.push_back(std::move(copy));
    }
    plan->root = remap[root];
  }

  const CompiledQuery& compiled_;
  const CompiledGroup& group_;
  const rdf::TripleStore& store_;
  const rdf::DatasetStats* stats_;
  size_t n_;
  bool dedup_ok_ = false;
  bool overflow_ = false;

  std::vector<PlanOp> ops_;  // DP arena (includes discarded candidates)
  std::vector<std::array<ScanPos, 3>> base_pos_;
  std::vector<std::array<PlanReg, 3>> base_reg_;
  std::vector<VarSlot> reg_slot_;
  std::vector<int> slot_count_;
  std::vector<double> distinct_est_;
  std::vector<std::array<double, 8>> pattern_rows_cache_;
  PlanReg num_regs_ = 0;
};

std::string NodeText(const CompiledQuery& compiled, const CompiledNode& node,
                     ScanPos pos) {
  if (node.is_variable) {
    std::string text = "?" + compiled.slot_names[node.slot];
    if (pos == ScanPos::kElim) text = "~" + text;
    if (pos == ScanPos::kProbe) text = "=" + text;
    return text;
  }
  return compiled.store->dictionary().term(node.id).ToString();
}

void RenderOp(const PhysicalPlan& plan, const CompiledQuery& compiled,
              const CompiledGroup& group, int op_index, int depth,
              const std::vector<size_t>* actual_rows, std::string* out) {
  const PlanOp& op = plan.ops[op_index];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  char buf[64];
  switch (op.kind) {
    case PlanOpKind::kIndexScan:
    case PlanOpKind::kAggregatedIndexScan:
    case PlanOpKind::kIndexLookupJoin: {
      if (op.kind == PlanOpKind::kIndexScan) {
        out->append("IndexScan(");
        out->append(rdf::IndexOrderName(op.index_order));
        out->append(")");
      } else if (op.kind == PlanOpKind::kAggregatedIndexScan) {
        out->append("AggregatedIndexScan(");
        out->append(rdf::IndexOrderName(op.index_order));
        out->append(")");
      } else {
        out->append(op.semi ? "IndexLookupJoin[semi]" : "IndexLookupJoin");
      }
      const CompiledPattern& pattern = group.patterns[op.pattern_index];
      const CompiledNode* nodes[3] = {&pattern.subject, &pattern.predicate,
                                      &pattern.object};
      out->append(" {");
      for (int k = 0; k < 3; ++k) {
        if (k > 0) out->append(" ");
        out->append(NodeText(compiled, *nodes[k], op.pos[k]));
      }
      out->append("}");
      break;
    }
    case PlanOpKind::kMergeJoin:
    case PlanOpKind::kHashJoin: {
      out->append(op.kind == PlanOpKind::kMergeJoin ? "MergeJoin"
                                                    : "HashJoin");
      if (op.order_slot != kNoSlot && op.kind == PlanOpKind::kMergeJoin) {
        out->append("(?" + compiled.slot_names[op.order_slot] + ")");
      } else if (op.eq.empty()) {
        out->append("(cross)");
      } else {
        std::snprintf(buf, sizeof(buf), "(%zu keys)", op.eq.size());
        out->append(buf);
      }
      break;
    }
    case PlanOpKind::kFilter: {
      std::snprintf(buf, sizeof(buf), "Filter(#%d)", op.filter_index);
      out->append(buf);
      break;
    }
  }
  std::snprintf(buf, sizeof(buf), "  est_rows=%.1f cost=%.1f", op.est_rows,
                op.est_cost);
  out->append(buf);
  if (actual_rows != nullptr) {
    std::snprintf(buf, sizeof(buf), " actual_rows=%zu",
                  (*actual_rows)[op_index]);
    out->append(buf);
  }
  out->append("\n");
  if (op.left >= 0) {
    RenderOp(plan, compiled, group, op.left, depth + 1, actual_rows, out);
  }
  if (op.right >= 0) {
    RenderOp(plan, compiled, group, op.right, depth + 1, actual_rows, out);
  }
}

}  // namespace

PhysicalPlan BuildPhysicalPlan(const CompiledQuery& compiled,
                               size_t alternative,
                               const rdf::DatasetStats* stats) {
  return PlanBuilder(compiled, alternative, stats).Build();
}

std::string RenderPlan(const PhysicalPlan& plan, const CompiledQuery& compiled,
                       size_t alternative,
                       const std::vector<size_t>* actual_rows) {
  if (plan.root < 0) {
    return "(greedy fallback: no physical plan)\n";
  }
  std::string out;
  RenderOp(plan, compiled, compiled.alternatives[alternative], plan.root, 0,
           actual_rows, &out);
  return out;
}

}  // namespace alex::sparql
