#include "sim/fusion.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "circuit/decompose.hpp"
#include "circuit/gate_cache.hpp"
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
/// on superket bits (q + n, q). The element expression mirrors
/// DensityMatrix::transform_two_sided exactly so the compiled coefficients
/// are bit-identical to what the uncompiled path computes per call.
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

/// Compiled conj(U) for the density column pass of a 2q gate, built the
/// same way kern::apply_unitary's conjugate branch builds it.
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

std::vector<FusedOp> compile_ops(const Circuit& circuit,
                                 GateMatrixCache* matrices) {
  std::vector<FusedOp> out(circuit.size());
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.ops()[i];
    if (!is_unitary_gate(g.kind)) continue;
    const int k = static_cast<int>(g.qubits.size());
    assert(k == 1 || k == 2);
    if (matrices != nullptr) {
      out[i] = make_fused_op(matrices->get(g).data().data(), k, g.qubits[0],
                             k == 2 ? g.qubits[1] : -1);
    } else {
      const Matrix u = gate_matrix(g);
      out[i] = make_fused_op(u.data().data(), k, g.qubits[0],
                             k == 2 ? g.qubits[1] : -1);
    }
  }
  return out;
}

CompiledExecutable CompiledExecutable::compile(const Circuit& physical,
                                               GateMatrixCache* matrices) {
  CompiledExecutable exe;
  exe.lowered_ = lower_to_cx_basis(physical);
  exe.channels_ = compile_ops(exe.lowered_, matrices);
  exe.fused_compacted_ = std::make_shared<const CompiledProgram>(
      CompiledProgram::compile(exe.lowered_.compacted()));
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

std::shared_ptr<const FusionPlan> CompiledProgramCache::plan(
    const Circuit& circuit) const {
  return plan_for(structural_fingerprint(circuit), circuit);
}

std::shared_ptr<const FusionPlan> CompiledProgramCache::plan_for(
    const std::uint64_t key, const Circuit& circuit) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = plans_.find(key); it != plans_.end()) {
      ++plan_hits_;
      return it->second;
    }
  }
  // Build outside the lock: deterministic, so a racing duplicate insert
  // just loses and its result is identical anyway.
  auto built = std::make_shared<const FusionPlan>(FusionPlan::build(circuit));
  std::lock_guard<std::mutex> lock(mutex_);
  ++plan_builds_;
  auto [it, inserted] = plans_.emplace(key, std::move(built));
  if (inserted) {
    plans_order_.push_back(key);
    if (plans_.size() > kMaxEntries) {
      plans_.erase(plans_order_.front());
      plans_order_.pop_front();
    }
  }
  return it->second;
}

std::shared_ptr<const CompiledProgram> CompiledProgramCache::fused(
    const Circuit& circuit) const {
  const CircuitFingerprints fp = circuit_fingerprints(circuit);
  const std::uint64_t key = fp.exact;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = fused_.find(key); it != fused_.end()) return it->second;
  }
  // Exact-fingerprint miss: fetch (or build) the structural plan, then
  // materialize this circuit's matrices against it. A parameter sweep
  // over one ansatz pays the fusion walk once — every later binding is a
  // plan hit plus the cheap matrix products. Both halves run outside the
  // lock; materialize() is bit-identical to CompiledProgram::compile()
  // (pinned by tests/test_parametric.cpp).
  const std::shared_ptr<const FusionPlan> p = plan_for(fp.structural, circuit);
  auto program = std::make_shared<const CompiledProgram>(
      CompiledProgram::materialize(*p, circuit));
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = fused_.emplace(key, std::move(program));
  if (inserted) {
    fused_order_.push_back(key);
    if (fused_.size() > kMaxEntries) {
      fused_.erase(fused_order_.front());
      fused_order_.pop_front();
    }
  }
  return it->second;
}

std::shared_ptr<const CompiledExecutable> CompiledProgramCache::executable(
    const Circuit& physical, GateMatrixCache* matrices) const {
  const std::uint64_t key = circuit_fingerprint(physical);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = executables_.find(key); it != executables_.end()) {
      return it->second;
    }
  }
  // Assemble piecewise (friend access) instead of via
  // CompiledExecutable::compile so the fused half of the executable also
  // flows through the plan cache.
  auto exe_ptr = std::make_shared<CompiledExecutable>();
  exe_ptr->lowered_ = lower_to_cx_basis(physical);
  exe_ptr->channels_ = compile_ops(exe_ptr->lowered_, matrices);
  exe_ptr->fused_compacted_ = fused(exe_ptr->lowered_.compacted());
  std::shared_ptr<const CompiledExecutable> exe = std::move(exe_ptr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = executables_.emplace(key, std::move(exe));
  if (inserted) {
    executables_order_.push_back(key);
    if (executables_.size() > kMaxEntries) {
      executables_.erase(executables_order_.front());
      executables_order_.pop_front();
    }
  }
  return it->second;
}

std::size_t CompiledProgramCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fused_.size() + executables_.size();
}

std::uint64_t CompiledProgramCache::plan_builds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_builds_;
}

std::uint64_t CompiledProgramCache::plan_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_hits_;
}

}  // namespace qucp
