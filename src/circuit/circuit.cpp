#include "circuit/circuit.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "common/rng.hpp"

namespace qucp {

namespace {

/// Embed a k-qubit gate matrix into the full 2^n space (little-endian basis;
/// the first operand in `qs` is the HIGH bit of the gate's local index,
/// matching gate_matrix's convention).
Matrix embed(const Matrix& m, std::span<const int> qs, int n) {
  const std::size_t dim = std::size_t{1} << n;
  const int k = static_cast<int>(qs.size());
  const std::size_t ldim = std::size_t{1} << k;
  if (m.rows() != ldim || m.cols() != ldim) {
    throw std::invalid_argument("embed: matrix/operand mismatch");
  }
  Matrix out(dim, dim);
  for (std::size_t c = 0; c < dim; ++c) {
    std::size_t lc = 0;
    for (int j = 0; j < k; ++j) {
      lc = (lc << 1) | ((c >> qs[j]) & 1U);
    }
    for (std::size_t lr = 0; lr < ldim; ++lr) {
      const cx v = m(lr, lc);
      if (v == cx{0.0, 0.0}) continue;
      std::size_t r = c;
      for (int j = 0; j < k; ++j) {
        const std::size_t bit = (lr >> (k - 1 - j)) & 1U;
        r = (r & ~(std::size_t{1} << qs[j])) | (bit << qs[j]);
      }
      out(r, c) += v;
    }
  }
  return out;
}

}  // namespace

Circuit::Circuit(int num_qubits, std::optional<int> num_clbits,
                 std::string name)
    : num_qubits_(num_qubits),
      num_clbits_(num_clbits.value_or(num_qubits)),
      name_(std::move(name)) {
  if (num_qubits < 0 || num_clbits_ < 0) {
    throw std::invalid_argument("Circuit: negative register size");
  }
}

void Circuit::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("Circuit: qubit index out of range");
  }
}

void Circuit::append(Gate g) {
  if (g.kind == GateKind::Barrier) {
    if (g.qubits.empty()) {
      for (int q = 0; q < num_qubits_; ++q) g.qubits.push_back(q);
    }
    for (int q : g.qubits) check_qubit(q);
  } else if (g.kind == GateKind::Measure) {
    if (g.qubits.size() != 1) {
      throw std::invalid_argument("Circuit: measure takes one qubit");
    }
    check_qubit(g.qubits[0]);
    if (g.clbit < 0 || g.clbit >= num_clbits_) {
      throw std::out_of_range("Circuit: clbit index out of range");
    }
  } else {
    const int arity = gate_arity(g.kind);
    if (static_cast<int>(g.qubits.size()) != arity) {
      throw std::invalid_argument("Circuit: wrong operand count for " +
                                  std::string(gate_name(g.kind)));
    }
    for (int q : g.qubits) check_qubit(q);
    if (arity == 2 && g.qubits[0] == g.qubits[1]) {
      throw std::invalid_argument("Circuit: duplicate qubit operand");
    }
    if (static_cast<int>(g.params.size()) != gate_param_count(g.kind)) {
      throw std::invalid_argument("Circuit: wrong parameter count for " +
                                  std::string(gate_name(g.kind)));
    }
  }
  ops_.push_back(std::move(g));
  fp_memo_.invalidate();
}

void Circuit::barrier() { append({GateKind::Barrier, {}, {}}); }

void Circuit::barrier(std::vector<int> qubits) {
  append({GateKind::Barrier, std::move(qubits), {}});
}

void Circuit::measure(int qubit, int clbit) {
  Gate g{GateKind::Measure, {qubit}, {}};
  g.clbit = clbit;
  append(std::move(g));
}

void Circuit::measure_all() {
  if (num_clbits_ < num_qubits_) {
    throw std::logic_error("Circuit::measure_all: too few clbits");
  }
  for (int q = 0; q < num_qubits_; ++q) measure(q, q);
}

void Circuit::ccx(int c0, int c1, int target) {
  h(target);
  cx(c1, target);
  tdg(target);
  cx(c0, target);
  t(target);
  cx(c1, target);
  tdg(target);
  cx(c0, target);
  t(c1);
  t(target);
  cx(c0, c1);
  h(target);
  t(c0);
  tdg(c1);
  cx(c0, c1);
}

int Circuit::gate_count() const {
  int n = 0;
  for (const Gate& g : ops_) {
    if (is_unitary_gate(g.kind)) ++n;
  }
  return n;
}

int Circuit::two_qubit_count() const {
  int n = 0;
  for (const Gate& g : ops_) {
    if (is_two_qubit_gate(g.kind)) ++n;
  }
  return n;
}

std::map<std::string, int> Circuit::count_ops() const {
  std::map<std::string, int> counts;
  for (const Gate& g : ops_) {
    ++counts[std::string(gate_name(g.kind))];
  }
  return counts;
}

bool Circuit::has_measurements() const {
  return std::any_of(ops_.begin(), ops_.end(), [](const Gate& g) {
    return g.kind == GateKind::Measure;
  });
}

std::vector<int> Circuit::active_qubits() const {
  std::vector<char> used(static_cast<std::size_t>(num_qubits_), 0);
  for (const Gate& g : ops_) {
    if (g.kind == GateKind::Barrier) continue;
    for (int q : g.qubits) used[static_cast<std::size_t>(q)] = 1;
  }
  std::vector<int> active;
  for (int q = 0; q < num_qubits_; ++q) {
    if (used[static_cast<std::size_t>(q)]) active.push_back(q);
  }
  return active;
}

Circuit Circuit::compacted() const {
  const std::vector<int> active = active_qubits();
  std::vector<int> local(num_qubits_, -1);
  for (std::size_t i = 0; i < active.size(); ++i) {
    local[active[i]] = static_cast<int>(i);
  }
  Circuit out(static_cast<int>(active.size()), num_clbits_, name_);
  for (const Gate& g : ops_) {
    Gate mapped = g;
    for (int& q : mapped.qubits) q = local[q];
    out.append(std::move(mapped));
  }
  return out;
}

Circuit Circuit::inverse() const {
  if (has_measurements()) {
    throw std::logic_error("Circuit::inverse: circuit has measurements");
  }
  Circuit out(num_qubits_, num_clbits_, name_.empty() ? "" : name_ + "_dg");
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->kind == GateKind::Barrier) {
      out.append(*it);
      continue;
    }
    out.append(inverse_gate(*it));
  }
  return out;
}

void Circuit::compose(const Circuit& other, std::span<const int> qubit_map,
                      int clbit_offset) {
  std::vector<int> map;
  if (qubit_map.empty()) {
    if (other.num_qubits_ > num_qubits_) {
      throw std::invalid_argument("Circuit::compose: other too wide");
    }
    map.resize(other.num_qubits_);
    for (int i = 0; i < other.num_qubits_; ++i) map[i] = i;
  } else {
    if (static_cast<int>(qubit_map.size()) != other.num_qubits_) {
      throw std::invalid_argument("Circuit::compose: qubit_map size");
    }
    map.assign(qubit_map.begin(), qubit_map.end());
  }
  for (const Gate& g : other.ops_) {
    Gate mapped = g;
    for (int& q : mapped.qubits) q = map.at(q);
    if (mapped.kind == GateKind::Measure) mapped.clbit += clbit_offset;
    append(std::move(mapped));
  }
}

Matrix Circuit::to_unitary() const {
  if (has_measurements()) {
    throw std::logic_error("Circuit::to_unitary: circuit has measurements");
  }
  const std::size_t dim = std::size_t{1} << num_qubits_;
  Matrix u = Matrix::identity(dim);
  for (const Gate& g : ops_) {
    if (g.kind == GateKind::Barrier) continue;
    u = embed(gate_matrix(g), g.qubits, num_qubits_) * u;
  }
  return u;
}

CircuitFingerprints Circuit::fingerprints() const {
  CircuitFingerprints fp;
  if (fp_memo_.load(fp)) return fp;
  // One walk, two FNV-1a streams over the structural content. The exact
  // stream hashes parameter bit patterns (no epsilon aliasing,
  // platform-stable); the structural stream substitutes a fixed slot
  // marker per parameter value (the parameter *count* still mixes, so RZ
  // vs U3 never alias), which is why circuits differing only in rotation
  // angles share a structural fingerprint. The name is deliberately
  // excluded from both.
  constexpr std::uint64_t kSlotMarker = 0x9E3779B97F4A7C15ull;
  std::uint64_t he = kFnv1aBasis;
  std::uint64_t hs = kFnv1aBasis;
  const auto mix_both = [&](std::uint64_t v) {
    he = fnv1a_mix(he, v);
    hs = fnv1a_mix(hs, v);
  };
  mix_both(static_cast<std::uint64_t>(num_qubits_));
  mix_both(static_cast<std::uint64_t>(num_clbits_));
  for (const Gate& g : ops_) {
    mix_both(static_cast<std::uint64_t>(g.kind));
    mix_both(static_cast<std::uint64_t>(g.qubits.size()));
    for (int q : g.qubits) mix_both(static_cast<std::uint64_t>(q));
    mix_both(static_cast<std::uint64_t>(g.params.size()));
    for (double p : g.params) {
      he = fnv1a_mix(he, std::bit_cast<std::uint64_t>(p));
      hs = fnv1a_mix(hs, kSlotMarker);
    }
    mix_both(static_cast<std::uint64_t>(static_cast<std::int64_t>(g.clbit)));
  }
  fp = {he, hs};
  fp_memo_.store(fp);
  return fp;
}

std::uint64_t circuit_fingerprint(const Circuit& circuit) {
  return circuit.fingerprints().exact;
}

std::uint64_t structural_fingerprint(const Circuit& circuit) {
  return circuit.fingerprints().structural;
}

CircuitFingerprints circuit_fingerprints(const Circuit& circuit) {
  return circuit.fingerprints();
}

ParamBinding::ParamBinding(const Circuit& circuit) {
  std::size_t n = 0;
  for (const Gate& g : circuit.ops()) n += g.params.size();
  values.reserve(n);
  for (const Gate& g : circuit.ops()) {
    values.insert(values.end(), g.params.begin(), g.params.end());
  }
}

}  // namespace qucp
