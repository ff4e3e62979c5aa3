#include "fuzz/reference.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace matopt::fuzz {

namespace {

// Textbook kernels. Loops accumulate in ascending index order, which is
// the same mathematical order as the production kernels' chunked loops, so
// the engine's purely local plans agree bit-for-bit and distributed plans
// agree to rounding.

DenseMatrix NaiveMatMul(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t k = 0; k < a.cols(); ++k) {
      const double av = a(i, k);
      for (int64_t j = 0; j < b.cols(); ++j) c(i, j) += av * b(k, j);
    }
  }
  return c;
}

template <typename F>
DenseMatrix NaiveZip(const DenseMatrix& a, const DenseMatrix& b, F f) {
  DenseMatrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(i, j) = f(a(i, j), b(i, j));
  }
  return c;
}

template <typename F>
DenseMatrix NaiveMap(const DenseMatrix& a, F f) {
  DenseMatrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(i, j) = f(a(i, j));
  }
  return c;
}

DenseMatrix NaiveTranspose(const DenseMatrix& a) {
  DenseMatrix c(a.cols(), a.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(j, i) = a(i, j);
  }
  return c;
}

DenseMatrix NaiveSoftmax(const DenseMatrix& a) {
  DenseMatrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    double mx = a(i, 0);
    for (int64_t j = 1; j < a.cols(); ++j) mx = std::max(mx, a(i, j));
    double sum = 0.0;
    for (int64_t j = 0; j < a.cols(); ++j) {
      c(i, j) = std::exp(a(i, j) - mx);
      sum += c(i, j);
    }
    for (int64_t j = 0; j < a.cols(); ++j) c(i, j) /= sum;
  }
  return c;
}

DenseMatrix NaiveRowSum(const DenseMatrix& a) {
  DenseMatrix c(a.rows(), 1);
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(i, 0) += a(i, j);
  }
  return c;
}

DenseMatrix NaiveColSum(const DenseMatrix& a) {
  DenseMatrix c(1, a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(0, j) += a(i, j);
  }
  return c;
}

DenseMatrix NaiveBroadcastRowAdd(const DenseMatrix& a, const DenseMatrix& v) {
  DenseMatrix c(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) c(i, j) = a(i, j) + v(0, j);
  }
  return c;
}

}  // namespace

Result<DenseMatrix> ReferenceInverse(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse requires a square matrix");
  }
  const int64_t n = a.rows();
  DenseMatrix lu = a;
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[i] = i;

  // Unblocked right-looking LU with partial pivoting, in place.
  for (int64_t k = 0; k < n; ++k) {
    int64_t pivot = k;
    double best = std::abs(lu(k, k));
    for (int64_t r = k + 1; r < n; ++r) {
      if (std::abs(lu(r, k)) > best) {
        best = std::abs(lu(r, k));
        pivot = r;
      }
    }
    if (best == 0.0) {
      return Status::InvalidArgument("Inverse of a singular matrix");
    }
    if (pivot != k) {
      for (int64_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(pivot, c));
      std::swap(perm[k], perm[pivot]);
    }
    for (int64_t r = k + 1; r < n; ++r) {
      lu(r, k) /= lu(k, k);
      const double f = lu(r, k);
      if (f == 0.0) continue;
      for (int64_t c = k + 1; c < n; ++c) lu(r, c) -= f * lu(k, c);
    }
  }

  // Solve LU x = P e_j one column at a time.
  DenseMatrix out(n, n);
  std::vector<double> y(n);
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t i = 0; i < n; ++i) y[i] = (perm[i] == j) ? 1.0 : 0.0;
    for (int64_t i = 0; i < n; ++i) {       // forward substitution (L)
      for (int64_t c = 0; c < i; ++c) y[i] -= lu(i, c) * y[c];
    }
    for (int64_t i = n - 1; i >= 0; --i) {  // back substitution (U)
      for (int64_t c = i + 1; c < n; ++c) y[i] -= lu(i, c) * y[c];
      y[i] /= lu(i, i);
    }
    for (int64_t i = 0; i < n; ++i) out(i, j) = y[i];
  }
  return out;
}

namespace {

Result<std::vector<DenseMatrix>> EvaluateVertices(
    const ComputeGraph& graph, const std::map<int, DenseMatrix>& inputs,
    int last) {
  std::vector<DenseMatrix> values(graph.num_vertices());
  for (int v = 0; v <= last; ++v) {
    const Vertex& vx = graph.vertex(v);
    if (vx.op == OpKind::kInput) {
      auto it = inputs.find(v);
      if (it == inputs.end()) {
        return Status::InvalidArgument("reference: missing data for input v" +
                                       std::to_string(v));
      }
      values[v] = it->second;
      continue;
    }
    auto arg = [&](int j) -> const DenseMatrix& {
      return values[vx.inputs[j]];
    };
    switch (vx.op) {
      case OpKind::kMatMul:
        values[v] = NaiveMatMul(arg(0), arg(1));
        break;
      case OpKind::kAdd:
        values[v] = NaiveZip(arg(0), arg(1), [](double x, double y) {
          return x + y;
        });
        break;
      case OpKind::kSub:
        values[v] = NaiveZip(arg(0), arg(1), [](double x, double y) {
          return x - y;
        });
        break;
      case OpKind::kHadamard:
        values[v] = NaiveZip(arg(0), arg(1), [](double x, double y) {
          return x * y;
        });
        break;
      case OpKind::kElemDiv:
        values[v] = NaiveZip(arg(0), arg(1), [](double x, double y) {
          return x / y;
        });
        break;
      case OpKind::kScalarMul: {
        const double s = vx.scalar;
        values[v] = NaiveMap(arg(0), [s](double x) { return s * x; });
        break;
      }
      case OpKind::kTranspose:
        values[v] = NaiveTranspose(arg(0));
        break;
      case OpKind::kRelu:
        values[v] = NaiveMap(arg(0), [](double x) { return x > 0.0 ? x : 0.0; });
        break;
      case OpKind::kReluGrad:
        values[v] = NaiveZip(arg(0), arg(1), [](double z, double up) {
          return z > 0.0 ? up : 0.0;
        });
        break;
      case OpKind::kSoftmax:
        values[v] = NaiveSoftmax(arg(0));
        break;
      case OpKind::kSigmoid:
        values[v] = NaiveMap(arg(0), [](double x) {
          return 1.0 / (1.0 + std::exp(-x));
        });
        break;
      case OpKind::kExp:
        values[v] = NaiveMap(arg(0), [](double x) { return std::exp(x); });
        break;
      case OpKind::kRowSum:
        values[v] = NaiveRowSum(arg(0));
        break;
      case OpKind::kColSum:
        values[v] = NaiveColSum(arg(0));
        break;
      case OpKind::kBroadcastRowAdd:
        values[v] = NaiveBroadcastRowAdd(arg(0), arg(1));
        break;
      case OpKind::kInverse: {
        MATOPT_ASSIGN_OR_RETURN(values[v], ReferenceInverse(arg(0)));
        break;
      }
      case OpKind::kInput:
        break;
    }
  }
  return values;
}

}  // namespace

Result<std::map<int, DenseMatrix>> EvaluateReference(
    const ComputeGraph& graph, const std::map<int, DenseMatrix>& inputs,
    int target) {
  const int last = target < 0 ? graph.num_vertices() - 1 : target;
  MATOPT_ASSIGN_OR_RETURN(std::vector<DenseMatrix> values,
                          EvaluateVertices(graph, inputs, last));
  std::map<int, DenseMatrix> sinks;
  for (int sink : graph.Sinks()) {
    if (sink <= last) sinks.emplace(sink, std::move(values[sink]));
  }
  if (target >= 0) sinks.emplace(target, std::move(values[target]));
  return sinks;
}

Result<std::vector<DenseMatrix>> EvaluateReferenceAllVertices(
    const ComputeGraph& graph, const std::map<int, DenseMatrix>& inputs) {
  return EvaluateVertices(graph, inputs, graph.num_vertices() - 1);
}

}  // namespace matopt::fuzz
