#include "sim/fusion.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "circuit/decompose.hpp"
#include "sim/statevector.hpp"

namespace qucp {

namespace {

/// Row-major unitary of a gate without heap traffic: parameterless kinds
/// resolve to the immutable fixed_gate_matrix table, parameterized kinds
/// are evaluated into `buf`. Values match gate_matrix bit for bit.
const cx* step_matrix(const Gate& g, cx buf[16]) {
  if (const Matrix* fixed = fixed_gate_matrix(g.kind)) {
    return fixed->data().data();
  }
  gate_matrix_into(g.kind, g.params, buf);
  return buf;
}

/// out = a * b for row-major 2x2 (aliasing-safe).
void mul2(cx out[4], const cx a[4], const cx b[4]) {
  cx tmp[4];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      tmp[2 * r + c] = a[2 * r] * b[c] + a[2 * r + 1] * b[2 + c];
    }
  }
  std::memcpy(out, tmp, sizeof(tmp));
}

/// out = a * b for row-major 4x4 (aliasing-safe).
void mul4(cx out[16], const cx a[16], const cx b[16]) {
  cx tmp[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      cx acc{0.0, 0.0};
      for (int k = 0; k < 4; ++k) acc += a[4 * r + k] * b[4 * k + c];
      tmp[4 * r + c] = acc;
    }
  }
  std::memcpy(out, tmp, sizeof(tmp));
}

/// Lift a 2x2 onto one operand of a 4x4 block whose local basis index is
/// (bit_hi << 1) | bit_lo: high -> u (x) I, low -> I (x) u.
void lift1(cx out[16], const cx u[4], bool high) {
  for (int i = 0; i < 16; ++i) out[i] = cx{0.0, 0.0};
  if (high) {
    for (int ur = 0; ur < 2; ++ur) {
      for (int uc = 0; uc < 2; ++uc) {
        for (int l = 0; l < 2; ++l) {
          out[(2 * ur + l) * 4 + (2 * uc + l)] = u[2 * ur + uc];
        }
      }
    }
  } else {
    for (int h = 0; h < 2; ++h) {
      for (int ur = 0; ur < 2; ++ur) {
        for (int uc = 0; uc < 2; ++uc) {
          out[(2 * h + ur) * 4 + (2 * h + uc)] = u[2 * ur + uc];
        }
      }
    }
  }
}

/// Re-express a 4x4 given in operand order (b, a) in operand order (a, b):
/// conjugate by the bit-swap permutation 0<->0, 1<->2, 3<->3.
void swap_operands(cx out[16], const cx u[16]) {
  static constexpr int s[4] = {0, 2, 1, 3};
  cx tmp[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) tmp[4 * r + c] = u[4 * s[r] + s[c]];
  }
  std::memcpy(out, tmp, sizeof(tmp));
}

/// Build the compiled superket form of a 1q matrix: U (x) conj(U) as a 4x4
/// on superket bits (q + n, q). The element expression is the one
/// tests/reference_density.hpp's Matrix transform uses, so compiled replay
/// is pinned bit for bit against it (tests/test_fusion.cpp).
kern::CompiledUnitary compile_superket1(const cx d[4]) {
  cx ku[16];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      const cx scale = d[2 * r + c];
      for (int rr = 0; rr < 2; ++rr) {
        for (int cc = 0; cc < 2; ++cc) {
          ku[(2 * r + rr) * 4 + (2 * c + cc)] =
              scale * std::conj(d[2 * rr + cc]);
        }
      }
    }
  }
  return kern::compile_unitary(std::span<const cx>(ku, 16));
}

/// Compiled conj(U) for the density column pass of a 2q gate: the
/// elementwise conjugate, compiled like any other 4x4.
kern::CompiledUnitary compile_conj4(const cx u[16]) {
  cx uc[16];
  for (int i = 0; i < 16; ++i) uc[i] = std::conj(u[i]);
  return kern::compile_unitary(std::span<const cx>(uc, 16));
}

FusedOp make_fused_op(const cx* u, int k, int q0, int q1) {
  FusedOp op;
  op.q[0] = q0;
  op.q[1] = q1;
  if (k == 1) {
    op.sv = kern::compile_unitary(std::span<const cx>(u, 4));
    op.dm = compile_superket1(u);
  } else {
    op.sv = kern::compile_unitary(std::span<const cx>(u, 16));
    op.dm = compile_conj4(u);
  }
  return op;
}

/// The fusion state machine, structure only: open blocks accumulate gate
/// *references* per qubit (1q) or qubit pair (2q); every decision —
/// merge, absorb, close — is recorded as a FusionPlan::Step in the exact
/// order the matrix arithmetic must replay. Each qubit is owned by at
/// most one open block, and any gate, barrier or measurement on a block's
/// qubits either merges into the block or closes it first, so emitted
/// order only ever interchanges ops with disjoint supports (which commute
/// exactly). No parameter value is read anywhere: the step stream is a
/// pure function of gate kinds and operands.
class PlanFuser {
 public:
  using Op = FusionPlan::Op;
  using Step = FusionPlan::Step;

  PlanFuser(int num_qubits, std::vector<Step>& steps,
            std::vector<FusionPlan::BlockInfo>& blocks, std::size_t& emitted)
      : owner_(static_cast<std::size_t>(num_qubits), -1),
        steps_(steps),
        blocks_(blocks),
        emitted_(emitted) {}

  void add_1q(int q, std::uint32_t gate) {
    const int bi = owner_[static_cast<std::size_t>(q)];
    if (bi < 0) {
      const std::uint32_t nb = alloc_block(1, q, -1);
      owner_[static_cast<std::size_t>(q)] = static_cast<int>(nb);
      steps_.push_back({Op::kNew1, nb, gate, 0, false});
      return;
    }
    const auto ubi = static_cast<std::uint32_t>(bi);
    if (blocks_[static_cast<std::size_t>(bi)].k == 1) {
      steps_.push_back({Op::kMul1, ubi, gate, 0, false});
      return;
    }
    steps_.push_back({Op::kLift1Mul, ubi, gate, 0,
                      /*high=*/blocks_[static_cast<std::size_t>(bi)].q0 == q});
  }

  void add_2q(int a, int b, std::uint32_t gate) {
    int ba = owner_[static_cast<std::size_t>(a)];
    int bb = owner_[static_cast<std::size_t>(b)];
    if (ba >= 0 && ba == bb) {
      // Same open 2q block — merge, permuting when the operand order of
      // this gate is the reverse of the block's.
      assert(blocks_[static_cast<std::size_t>(ba)].k == 2);
      steps_.push_back({Op::kMul2, static_cast<std::uint32_t>(ba), gate, 0,
                        /*swapped=*/blocks_[static_cast<std::size_t>(ba)].q0 !=
                            a});
      return;
    }
    // A 2q block sharing only one qubit cannot absorb this gate (that
    // would grow past the 4x4 the kernels handle); close it.
    if (ba >= 0 && blocks_[static_cast<std::size_t>(ba)].k == 2) {
      close(ba);
      ba = -1;
    }
    if (bb >= 0 && blocks_[static_cast<std::size_t>(bb)].k == 2) {
      close(bb);
      bb = -1;
    }
    const std::uint32_t nb = alloc_block(2, a, b);
    steps_.push_back({Op::kNew2, nb, gate, 0, false});
    // Pending 1q gates on the operands were applied before this gate:
    // right-multiply their lifted forms, consuming the 1q blocks unemitted.
    if (ba >= 0) {
      steps_.push_back(
          {Op::kAbsorb, nb, 0, static_cast<std::uint32_t>(ba), /*high=*/true});
      discard(ba);
    }
    if (bb >= 0) {
      steps_.push_back(
          {Op::kAbsorb, nb, 0, static_cast<std::uint32_t>(bb), /*high=*/false});
      discard(bb);
    }
    owner_[static_cast<std::size_t>(a)] = static_cast<int>(nb);
    owner_[static_cast<std::size_t>(b)] = static_cast<int>(nb);
  }

  /// Barrier/measurement boundary: close whatever these qubits touch.
  void fence(std::span<const int> qubits) {
    for (int q : qubits) {
      const int bi = owner_[static_cast<std::size_t>(q)];
      if (bi >= 0) close(bi);
    }
  }

  /// Flush every remaining open block, oldest first.
  void finish() {
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      if (open_[i]) close(static_cast<int>(i));
    }
  }

 private:
  std::uint32_t alloc_block(std::uint8_t k, int q0, int q1) {
    blocks_.push_back({k, q0, q1});
    open_.push_back(true);
    return static_cast<std::uint32_t>(blocks_.size() - 1);
  }

  void close(int bi) {
    assert(open_[static_cast<std::size_t>(bi)]);
    steps_.push_back(
        {Op::kEmit, static_cast<std::uint32_t>(bi), 0, 0, false});
    ++emitted_;
    discard(bi);
  }

  void discard(int bi) {
    const FusionPlan::BlockInfo& blk = blocks_[static_cast<std::size_t>(bi)];
    open_[static_cast<std::size_t>(bi)] = false;
    owner_[static_cast<std::size_t>(blk.q0)] = -1;
    if (blk.k == 2) owner_[static_cast<std::size_t>(blk.q1)] = -1;
  }

  std::vector<int> owner_;
  std::vector<bool> open_;
  std::vector<Step>& steps_;
  std::vector<FusionPlan::BlockInfo>& blocks_;
  std::size_t& emitted_;
};

}  // namespace

const FusedOp& fixed_kernel(GateKind kind) {
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(GateKind::Measure) + 1;
  // Immutable after the (thread-safe) first-use initialization.
  static const std::array<FusedOp, kKinds> table = [] {
    std::array<FusedOp, kKinds> t{};
    for (std::size_t i = 0; i < kKinds; ++i) {
      const auto g = static_cast<GateKind>(i);
      if (const Matrix* m = fixed_gate_matrix(g)) {
        const int k = gate_arity(g);
        t[i] = make_fused_op(m->data().data(), k, 0, k == 2 ? 1 : -1);
      }
    }
    return t;
  }();
  return table[static_cast<std::size_t>(kind)];
}

FusionPlan FusionPlan::build(const Circuit& circuit) {
  FusionPlan plan;
  plan.num_qubits_ = circuit.num_qubits();
  plan.num_clbits_ = circuit.num_clbits();
  plan.source_size_ = circuit.size();
  PlanFuser fuser(circuit.num_qubits(), plan.steps_, plan.blocks_,
                  plan.emitted_);
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.ops()[i];
    if (g.kind == GateKind::Barrier) {
      fuser.fence(g.qubits);
      continue;
    }
    if (g.kind == GateKind::Measure) {
      fuser.fence(std::span<const int>(g.qubits.data(), 1));
      plan.measurements_.emplace_back(g.qubits[0], g.clbit);
      continue;
    }
    ++plan.source_gates_;
    if (g.qubits.size() == 1) {
      fuser.add_1q(g.qubits[0], static_cast<std::uint32_t>(i));
    } else {
      assert(g.qubits.size() == 2);
      fuser.add_2q(g.qubits[0], g.qubits[1], static_cast<std::uint32_t>(i));
    }
  }
  fuser.finish();
  return plan;
}

CompiledProgram CompiledProgram::compile(const Circuit& circuit) {
  return materialize(FusionPlan::build(circuit), circuit);
}

CompiledProgram CompiledProgram::materialize(const FusionPlan& plan,
                                             const Circuit& circuit) {
  if (circuit.size() != plan.source_size() ||
      circuit.num_qubits() != plan.num_qubits()) {
    throw std::invalid_argument(
        "CompiledProgram::materialize: circuit does not match plan structure");
  }
  CompiledProgram out;
  out.num_qubits_ = plan.num_qubits();
  out.num_clbits_ = plan.num_clbits();
  out.measurements_ = plan.measurements();
  out.source_gates_ = plan.source_gate_count();
  out.ops_.reserve(plan.emitted());
  // One 4x4 scratch per block; 1q blocks use the first 4 entries, exactly
  // like the old in-Fuser Block::m. Replaying the step stream performs
  // the same products, with the same operands, in the same order the
  // from-scratch fusion did — bit-identical results.
  // Every block's first step (kNew1/kNew2) writes its scratch before any
  // read, so the buffers need no initialization; small plans stay entirely
  // on the stack.
  constexpr std::size_t kStackBlocks = 32;
  std::array<cx, 16> stack_scratch[kStackBlocks];
  std::vector<std::array<cx, 16>> heap_scratch;
  std::array<cx, 16>* scratch = stack_scratch;
  if (plan.blocks().size() > kStackBlocks) {
    heap_scratch.resize(plan.blocks().size());
    scratch = heap_scratch.data();
  }
  // Per-angle sweeps replay this product chain once per binding, so the
  // 4x4 products dispatch to the AVX2/FMA kernels when compiled in and the
  // cpuid check passes (hoisted out of the step loop — dispatch reads an
  // atomic). The AVX2 products are ~1 ulp from the scalar chain (FMA
  // contraction), matching the dense-kernel dispatch contract; callers
  // that need the exact scalar stream use set_native_kernels(false).
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  const bool native = kern::native_kernels_active();
#else
  constexpr bool native = false;
#endif
  (void)native;
  cx ubuf[16];
  for (const FusionPlan::Step& s : plan.steps()) {
    cx* m = scratch[s.block].data();
    switch (s.op) {
      case FusionPlan::Op::kNew1: {
        const cx* u = step_matrix(circuit.ops()[s.gate], ubuf);
        std::memcpy(m, u, 4 * sizeof(cx));
        break;
      }
      case FusionPlan::Op::kMul1: {
        const cx* u = step_matrix(circuit.ops()[s.gate], ubuf);
        mul2(m, u, m);
        break;
      }
      case FusionPlan::Op::kLift1Mul: {
        const cx* u = step_matrix(circuit.ops()[s.gate], ubuf);
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
        if (native) {
          kern::detail::lift_mul4_avx2(m, u, s.flag);
          break;
        }
#endif
        cx lifted[16];
        lift1(lifted, u, s.flag);
        mul4(m, lifted, m);
        break;
      }
      case FusionPlan::Op::kNew2: {
        const cx* u = step_matrix(circuit.ops()[s.gate], ubuf);
        std::memcpy(m, u, 16 * sizeof(cx));
        break;
      }
      case FusionPlan::Op::kMul2: {
        const cx* u = step_matrix(circuit.ops()[s.gate], ubuf);
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
        if (native) {
          if (s.flag) {
            kern::detail::swap_mul4_avx2(m, u);
          } else {
            kern::detail::mul4_avx2(m, u, m);
          }
          break;
        }
#endif
        if (s.flag) {
          cx swapped[16];
          swap_operands(swapped, u);
          mul4(m, swapped, m);
        } else {
          mul4(m, u, m);
        }
        break;
      }
      case FusionPlan::Op::kAbsorb: {
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
        if (native) {
          kern::detail::mul4_lift_avx2(m, scratch[s.src].data(), s.flag);
          break;
        }
#endif
        cx lifted[16];
        lift1(lifted, scratch[s.src].data(), s.flag);
        mul4(m, m, lifted);
        break;
      }
      case FusionPlan::Op::kEmit: {
        const FusionPlan::BlockInfo& blk = plan.blocks()[s.block];
        out.ops_.push_back(make_fused_op(m, blk.k, blk.q0, blk.q1));
        break;
      }
    }
  }
  return out;
}

ExecutableStructure ExecutableStructure::build(const Circuit& physical,
                                               const Device& device,
                                               const SchedulePolicy policy) {
  ExecutableStructure s;
  s.source_size_ = physical.size();
  // Copied rather than moved: lowering grows its op vector by appends, and
  // a copy's capacity is exact — the structure stays cached.
  const Circuit lowered = lower_to_cx_basis(physical);
  s.lowered_ = lowered;
  // Lowering expands SWAP and CZ into three angle-free ops each and passes
  // every other op through unchanged, so walking the source alongside
  // recovers the lowered -> source index of each parametric op.
  std::size_t li = 0;
  for (std::size_t si = 0; si < physical.size(); ++si) {
    const Gate& g = physical.ops()[si];
    if (g.kind == GateKind::SWAP || g.kind == GateKind::CZ) {
      li += 3;
      continue;
    }
    if (!g.params.empty()) {
      s.parametric_.push_back(
          {static_cast<std::uint32_t>(li), static_cast<std::uint32_t>(si)});
    }
    ++li;
  }
  assert(li == s.lowered_.size());
  const std::size_t n = s.lowered_.size();
  s.slot_.resize(n);
  std::int32_t parametric = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = s.lowered_.ops()[i];
    // parametric_ is in lowered order too.
    s.slot_[i] = g.params.empty() ? static_cast<std::int32_t>(g.kind)
                                  : ~parametric++;
  }
  s.active_ = s.lowered_.active_qubits();

  const Topology& topo = device.topology();
  s.cx_edges_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = s.lowered_.ops()[i];
    if (!is_two_qubit_gate(g.kind)) continue;
    const std::optional<int> edge = topo.edge_index(g.qubits[0], g.qubits[1]);
    if (!edge) {
      s.coupled_ = false;
      s.cx_edges_.clear();
      return s;
    }
    s.cx_edges_[i] = *edge;
  }
  s.schedule_ = schedule_circuit(s.lowered_, device, policy);
  s.time_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.time_order_[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(s.time_order_.begin(), s.time_order_.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return s.schedule_.ops[x].start_ns <
                            s.schedule_.ops[y].start_ns;
                   });
  return s;
}

CompiledExecutable CompiledExecutable::materialize(
    std::shared_ptr<const ExecutableStructure> structure,
    const Circuit& physical) {
  if (physical.size() != structure->source_size() ||
      physical.num_qubits() != structure->lowered().num_qubits()) {
    throw std::invalid_argument(
        "CompiledExecutable::materialize: circuit does not match structure");
  }
  CompiledExecutable exe;
  exe.bound_.reserve(structure->parametric().size());
  cx u[16];
  for (const ExecutableStructure::ParamOp& p : structure->parametric()) {
    const Gate& g = physical.ops()[p.source];
    const int dim = gate_matrix_into(g.kind, g.params, u);
    const Gate& low = structure->lowered().ops()[p.lowered];
    exe.bound_.push_back(make_fused_op(u, dim == 2 ? 1 : 2, low.qubits[0],
                                       dim == 2 ? -1 : low.qubits[1]));
  }
  exe.structure_ = std::move(structure);
  return exe;
}

Distribution ideal_distribution(const CompiledProgram& program) {
  if (program.measurements().empty()) {
    throw std::logic_error("ideal_distribution: circuit has no measurements");
  }
  Statevector sv(program.num_qubits());
  sv.run(program);
  return detail::distribution_from_amplitudes(
      sv.amplitudes(), program.num_clbits(), program.measurements());
}

bool OutcomeKey::operator==(const OutcomeKey& other) const noexcept {
  auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return native == other.native &&
         std::equal(shifts.begin(), shifts.end(), other.shifts.begin(),
                    other.shifts.end(), same) &&
         std::equal(gammas.begin(), gammas.end(), other.gammas.begin(),
                    other.gammas.end(), [&](const auto& a, const auto& b) {
                      return a.first == b.first && same(a.second, b.second);
                    });
}

std::size_t FusionPlan::bytes() const noexcept {
  return sizeof(FusionPlan) + heap_bytes(steps_) + heap_bytes(blocks_) +
         heap_bytes(measurements_);
}

std::size_t CompiledProgram::bytes() const noexcept {
  return sizeof(CompiledProgram) + heap_bytes(ops_) +
         heap_bytes(measurements_);
}

std::size_t ExecutableStructure::bytes() const noexcept {
  return sizeof(ExecutableStructure) + lowered_.bytes() +
         heap_bytes(parametric_) + heap_bytes(slot_) +
         heap_bytes(schedule_.ops) + heap_bytes(time_order_) +
         heap_bytes(active_) + heap_bytes(cx_edges_);
}

std::size_t CompiledExecutable::bytes() const noexcept {
  return sizeof(CompiledExecutable) + heap_bytes(bound_);
}

std::size_t CompiledProgramCache::FusedEntry::bytes() const noexcept {
  return sizeof(FusedEntry) + plan->bytes() + last->bytes();
}

std::size_t CompiledProgramCache::ExecutableEntry::bytes() const noexcept {
  std::size_t total = sizeof(ExecutableEntry) + structure->bytes() +
                      last->bytes() + heap_bytes(outcomes);
  for (const OutcomeVariant& v : outcomes) {
    total += heap_bytes(v.key.shifts) + heap_bytes(v.key.gammas) +
             sizeof(Distribution) + heap_bytes(v.distribution->probs());
  }
  return total;
}

std::shared_ptr<const FusionPlan> CompiledProgramCache::plan(
    const Circuit& circuit) const {
  const CircuitFingerprints fp = circuit_fingerprints(circuit);
  std::shared_ptr<const FusedEntry> entry = fused_.find(fp.structural);
  if (entry == nullptr) entry = bind(nullptr, fp, circuit);
  return entry->plan;
}

std::shared_ptr<const CompiledProgram> CompiledProgramCache::fused(
    const Circuit& circuit) const {
  const CircuitFingerprints fp = circuit_fingerprints(circuit);
  const std::shared_ptr<const FusedEntry> entry = fused_.find(fp.structural);
  if (entry != nullptr && entry->last_exact == fp.exact &&
      entry->native == kern::native_kernels_active()) {
    return entry->last;
  }
  return bind(entry, fp, circuit)->last;
}

std::shared_ptr<const CompiledProgramCache::FusedEntry>
CompiledProgramCache::bind(const std::shared_ptr<const FusedEntry>& entry,
                           const CircuitFingerprints& fp,
                           const Circuit& circuit) const {
  // Both steps are deterministic and run outside any lock, so a racing
  // duplicate build is identical anyway; materialize() is bit-identical to
  // CompiledProgram::compile() in the same kernel mode (pinned by
  // tests/test_parametric.cpp). The plan does not depend on the mode.
  const bool native = kern::native_kernels_active();
  std::shared_ptr<const FusionPlan> plan =
      entry != nullptr
          ? entry->plan
          : std::make_shared<const FusionPlan>(FusionPlan::build(circuit));
  auto program = std::make_shared<const CompiledProgram>(
      CompiledProgram::materialize(*plan, circuit));
  // Copy on write: readers holding the old entry keep a consistent view.
  auto next = std::make_shared<const FusedEntry>(
      FusedEntry{std::move(plan), std::move(program), fp.exact, native});
  fused_.assign(fp.structural, next, next->bytes());
  return next;
}

std::shared_ptr<const CompiledExecutable> CompiledProgramCache::executable(
    const Circuit& physical, const CircuitFingerprints& fp,
    const SchedulePolicy policy) const {
  const ExecutableKey key{fp.structural, policy};
  const std::shared_ptr<const ExecutableEntry> entry = executables_.find(key);
  if (entry != nullptr && entry->last_exact == fp.exact) return entry->last;
  // Structure miss: lower and schedule once. Either way only the
  // parametric kernels are materialized for this binding. Both are
  // deterministic, so a racing duplicate build is identical anyway.
  std::shared_ptr<const ExecutableStructure> structure =
      entry != nullptr
          ? entry->structure
          : std::make_shared<const ExecutableStructure>(
                ExecutableStructure::build(physical, *device_, policy));
  auto exe = std::make_shared<const CompiledExecutable>(
      CompiledExecutable::materialize(structure, physical));
  // The new binding replaces the entry, dropping the old one's outcomes.
  auto next = std::make_shared<const ExecutableEntry>(
      ExecutableEntry{std::move(structure), exe, fp.exact, {}});
  const std::size_t bytes = next->bytes();
  executables_.assign(key, std::move(next), bytes);
  return exe;
}

std::shared_ptr<const Distribution> CompiledProgramCache::outcome(
    const CircuitFingerprints& fp, const SchedulePolicy policy,
    const OutcomeKey& key) const {
  if (const auto entry = executables_.peek({fp.structural, policy});
      entry != nullptr && entry->last_exact == fp.exact) {
    for (const OutcomeVariant& v : entry->outcomes) {
      if (v.key == key) {
        outcome_hits_.fetch_add(1, std::memory_order_relaxed);
        return v.distribution;
      }
    }
  }
  outcome_builds_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void CompiledProgramCache::store_outcome(
    const CircuitFingerprints& fp, const SchedulePolicy policy,
    OutcomeKey key, const Distribution& distribution) const {
  const ExecutableKey ekey{fp.structural, policy};
  const auto entry = executables_.peek(ekey);
  if (entry == nullptr || entry->last_exact != fp.exact) return;
  // A racing simulation of the same key may have stored it already.
  for (const OutcomeVariant& v : entry->outcomes) {
    if (v.key == key) return;
  }
  // Copy on write: readers holding the old entry keep a consistent view.
  // A racing replacement of the entry may be overwritten here; the memo
  // then just misses once more, since every outcome is exact.
  auto next = std::make_shared<ExecutableEntry>(*entry);
  std::vector<OutcomeVariant>& outcomes = next->outcomes;
  if (outcomes.size() == kMaxOutcomeVariants) outcomes.erase(outcomes.begin());
  outcomes.push_back(
      {std::move(key), std::make_shared<const Distribution>(distribution)});
  const std::size_t bytes = next->bytes();
  executables_.assign(ekey, std::move(next), bytes);
}

CompiledProgramCache::Stats CompiledProgramCache::stats() const {
  return {fused_.stats(), executables_.stats()};
}

std::uint64_t CompiledProgramCache::plan_builds() const {
  return fused_.stats().misses;
}

std::uint64_t CompiledProgramCache::plan_hits() const {
  return fused_.stats().hits;
}

std::uint64_t CompiledProgramCache::outcome_hits() const {
  return outcome_hits_.load(std::memory_order_relaxed);
}

std::uint64_t CompiledProgramCache::outcome_builds() const {
  return outcome_builds_.load(std::memory_order_relaxed);
}

}  // namespace qucp
