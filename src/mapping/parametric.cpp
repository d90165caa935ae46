#include "mapping/parametric.hpp"

#include "common/bounded_cache.hpp"

namespace qucp {

TranspileTemplate TranspileTemplate::build(const Circuit& logical,
                                           const Device& device,
                                           std::span<const int> partition,
                                           const TranspileOptions& options) {
  TranspileTemplate tmpl;
  tmpl.binding0 = ParamBinding(logical).values;

  OptimizeTrace trace;
  // Input ops read binding slots directly, in circuit order.
  std::vector<ParamExprIds> logical_exprs;
  logical_exprs.reserve(logical.size());
  std::int32_t slot = 0;
  for (const Gate& g : logical.ops()) {
    ParamExprIds& ids = logical_exprs.emplace_back();
    for (std::size_t j = 0; j < g.params.size(); ++j) {
      ids.push_back(trace.leaf(slot++));
    }
  }

  // Stage A: input peephole (traced).
  Circuit prepared;
  std::vector<ParamExprIds> prepared_exprs;
  if (options.optimize_input) {
    prepared = optimize_traced(logical, logical_exprs, trace);
    prepared_exprs = std::move(trace.out_exprs);
    trace.out_exprs.clear();
  } else {
    prepared = logical;
    prepared_exprs = std::move(logical_exprs);
  }

  // Stage B: placement + routing, both parameter-blind. The router copies
  // each prepared op verbatim and names its source, so every routed
  // parameter inherits its prepared op's expression (inserted SWAPs have
  // none).
  const std::vector<int> layout =
      initial_layout(prepared, device, partition, options.placement);
  RoutingResult routed = route_on_partition(prepared, device, partition,
                                            layout, options.router);
  std::vector<ParamExprIds> routed_exprs(routed.source.size());
  for (std::size_t i = 0; i < routed.source.size(); ++i) {
    if (routed.source[i] >= 0) {
      routed_exprs[i] =
          prepared_exprs[static_cast<std::size_t>(routed.source[i])];
    }
  }

  // Stage C: output peephole (traced, same DAG — merges compose). It stays
  // although it rarely fires on traffic the input pass already cleaned (it
  // changed none of 9,216 routed e2ebench unique_burst circuits, seed 1,
  // 3 s): the router drops barriers, which joins gates the input pass saw
  // fenced apart, and it can emit two identical SWAPs in a row, so either
  // gives this pass work.
  tmpl.result.initial_layout = layout;
  tmpl.result.final_layout = std::move(routed.final_layout);
  tmpl.result.swaps_added = routed.swaps_added;
  std::vector<ParamExprIds> phys_exprs;
  if (options.optimize_output) {
    tmpl.result.physical =
        optimize_traced(routed.physical, routed_exprs, trace);
    phys_exprs = std::move(trace.out_exprs);
  } else {
    tmpl.result.physical = std::move(routed.physical);
    phys_exprs = std::move(routed_exprs);
  }
  tmpl.nodes = std::move(trace.nodes);

  // Flatten the ragged per-op expression lists into one patch list, and
  // keep one verdict per checked node. Every recorded decision on a node
  // was taken on that node's binding0 value, so repeats agree.
  for (std::size_t i = 0; i < phys_exprs.size(); ++i) {
    for (std::size_t j = 0; j < phys_exprs[i].size(); ++j) {
      tmpl.patches.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j), phys_exprs[i][j]});
    }
  }
  std::vector<char> checked(tmpl.nodes.size(), 0);
  for (const ParamCheck& c : trace.checks) {
    if (checked[c.node]) continue;
    checked[c.node] = 1;
    tmpl.verdicts.push_back({c.node, c.identity});
  }
  return tmpl;
}

std::optional<TranspiledProgram> TranspileTemplate::bind(
    std::span<const double> binding) const {
  if (binding.size() != binding0.size()) return std::nullopt;

  // Evaluate the DAG in creation order — the same additions, in the same
  // order, the traced optimize performed, so values are bit-identical to a
  // from-scratch transpile of the bound circuit. Typical ansatz DAGs are
  // small; keep the evaluation buffer on the stack for them.
  constexpr std::size_t kStackNodes = 256;
  double stack_vals[kStackNodes];
  std::vector<double> heap_vals;
  double* vals = stack_vals;
  if (nodes.size() > kStackNodes) {
    heap_vals.resize(nodes.size());
    vals = heap_vals.data();
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ParamExpr& e = nodes[i];
    switch (e.kind) {
      case ParamExpr::Kind::Slot:
        vals[i] = binding[static_cast<std::size_t>(e.slot)];
        break;
      case ParamExpr::Kind::Add:
        vals[i] = vals[e.a] + vals[e.b];
        break;
      case ParamExpr::Kind::Const:
        vals[i] = e.value;
        break;
    }
  }

  // The optimizer's control flow is structure plus these decisions; a new
  // binding must take every recorded branch the same way to reuse the
  // template's structure.
  for (const Verdict& v : verdicts) {
    if (angle_is_identity(vals[v.node]) != v.identity) return std::nullopt;
  }

  std::optional<TranspiledProgram> out(result);
  for (const Patch& p : patches) {
    out->physical.patch_param(p.op, p.param, vals[p.node]);
  }
  out->physical.invalidate_fingerprints();
  return out;
}

std::size_t TranspileTemplate::bytes() const noexcept {
  return sizeof(TranspileTemplate) + result.physical.bytes() +
         heap_bytes(result.initial_layout) + heap_bytes(result.final_layout) +
         heap_bytes(binding0) + heap_bytes(nodes) + heap_bytes(patches) +
         heap_bytes(verdicts);
}

}  // namespace qucp
