#include "frontend/sql_gen.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace matopt {

namespace {

const Format& FormatOf(FormatId id) { return BuiltinFormats()[id]; }

/// SQL-safe relation name for a vertex.
std::string RelName(const ComputeGraph& graph, int v) {
  std::string name = graph.vertex(v).name;
  if (name.empty()) name = "v" + std::to_string(v);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

/// Key attributes of a layout, e.g. "tileRow, tileCol" for tiles.
std::string KeyAttrs(const Format& f) {
  switch (f.layout) {
    case Layout::kSingleTuple:
    case Layout::kSpSingleCsr:
      return "";
    case Layout::kRowStrips:
    case Layout::kSpRowStripsCsr:
      return "tileRow";
    case Layout::kColStrips:
    case Layout::kSpColStripsCsc:
      return "tileCol";
    case Layout::kTiles:
    case Layout::kSpTilesCsr:
      return "tileRow, tileCol";
    case Layout::kSpCoo:
      return "rowIndex, colIndex";
  }
  return "";
}

std::string Schema(const ComputeGraph& graph, int v, FormatId fmt) {
  const Format& f = FormatOf(fmt);
  const MatrixType& t = graph.vertex(v).type;
  std::ostringstream out;
  out << RelName(graph, v) << " (";
  std::string keys = KeyAttrs(f);
  if (!keys.empty()) out << keys << " INTEGER, ";
  if (f.layout == Layout::kSpCoo) {
    out << "value DOUBLE)";
    return out.str();
  }
  int64_t rows = t.rows();
  int64_t cols = t.cols();
  switch (f.layout) {
    case Layout::kRowStrips:
    case Layout::kSpRowStripsCsr:
      rows = std::min(f.p1, rows);
      break;
    case Layout::kColStrips:
    case Layout::kSpColStripsCsc:
      cols = std::min(f.p1, cols);
      break;
    case Layout::kTiles:
      rows = std::min(f.p1, rows);
      cols = std::min(f.p2, cols);
      break;
    default:
      break;
  }
  out << "mat MATRIX[" << rows << "][" << cols << "])";
  return out.str();
}

/// Emits the SQL for one transformation application.
void EmitTransform(std::ostringstream& out, const ComputeGraph& graph,
                   int producer, TransformKind kind, FormatId from,
                   FormatId to, const std::string& view_name) {
  std::string src = RelName(graph, producer);
  const Format& target = FormatOf(to);
  out << "-- transformation: " << TransformKindName(kind) << " ("
      << FormatOf(from).ToString() << " -> " << target.ToString() << ")\n";
  out << "CREATE VIEW " << view_name << " AS\n";
  if (target.layout == Layout::kSingleTuple) {
    out << "  SELECT COLMATRIX(label_matrix(s.mat, s.tileRow)) AS mat\n"
        << "  FROM (SELECT x.tileRow AS tileRow,\n"
        << "               ROWMATRIX(label_matrix(x.mat, x.tileCol)) AS mat\n"
        << "        FROM " << src << " AS x GROUP BY x.tileRow) AS s;\n";
  } else if (!FormatOf(from).sparse() && target.sparse()) {
    out << "  SELECT " << KeyAttrs(target)
        << (KeyAttrs(target).empty() ? "" : ", ")
        << "to_sparse(x.mat) AS mat FROM " << src << " AS x;\n";
  } else if (FormatOf(from).sparse() && !target.sparse()) {
    out << "  SELECT " << KeyAttrs(target)
        << (KeyAttrs(target).empty() ? "" : ", ")
        << "to_dense(x.mat) AS mat FROM " << src << " AS x;\n";
  } else {
    out << "  SELECT bi.rowID AS tileRow, bi.colID AS tileCol,\n"
        << "         get_tile(x.mat, bi.rowID, bi.colID, " << target.p1
        << ", " << (target.p2 > 0 ? target.p2 : target.p1) << ") AS mat\n"
        << "  FROM " << src << " AS x, tileIndex AS bi\n"
        << "  WHERE covers(x, bi);\n";
  }
}

std::string PrefixKeys(const VertexAnnotation& va);

/// Emits the SQL for one atomic computation implementation.
void EmitImpl(std::ostringstream& out, const ComputeGraph& graph, int v,
              const VertexAnnotation& va,
              const std::vector<std::string>& arg_names) {
  std::string name = RelName(graph, v);
  out << "-- " << OpKindName(graph.vertex(v).op) << " via "
      << ImplKindName(va.impl) << "\n";
  if (ImplClassOf(va.impl) == ImplClass::kGpu) {
    out << "-- GPU: the CPU plan's view, arithmetic on the worker's GPU\n";
  }
  out << "CREATE VIEW " << name << " AS\n";
  auto a0 = [&] { return arg_names[0]; };
  auto a1 = [&] { return arg_names.size() > 1 ? arg_names[1] : ""; };
  switch (va.impl) {
    case ImplKind::kMmSingleSingle:
    case ImplKind::kMmSpSingleXSingle:
    case ImplKind::kGpuMmSingleSingle:
      out << "  SELECT matrix_multiply(x.mat, m.mat) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1() << " AS m;\n";
      break;
    case ImplKind::kMmRowStripsXBcastSingle:
    case ImplKind::kMmSpRowStripsXBcastSingle:
    case ImplKind::kGpuMmRowStripsXBcastSingle:
      out << "  SELECT x.tileRow, matrix_multiply(x.mat, m.mat) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1()
          << " AS m;  -- broadcast join (rhs replicated)\n";
      break;
    case ImplKind::kMmBcastSingleXColStrips:
    case ImplKind::kMmSpSingleXColStrips:
    case ImplKind::kGpuMmBcastSingleXColStrips:
      out << "  SELECT m.tileCol, matrix_multiply(x.mat, m.mat) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1()
          << " AS m;  -- broadcast join (lhs replicated)\n";
      break;
    case ImplKind::kMmCrossStrips:
      out << "  SELECT x.tileRow, m.tileCol,\n"
          << "         matrix_multiply(x.mat, m.mat) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1()
          << " AS m;  -- cross join, no aggregation\n";
      break;
    case ImplKind::kMmTilesShuffle:
    case ImplKind::kMmBcastTilesXTiles:
    case ImplKind::kMmTilesXBcastTiles:
    case ImplKind::kMmSpRowStripsXTiles:
      out << "  SELECT x.tileRow, m.tileCol,\n"
          << "         SUM(matrix_multiply(x.mat, m.mat)) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1() << " AS m\n"
          << "  WHERE x.tileCol = m.tileRow\n"
          << "  GROUP BY x.tileRow, m.tileCol;\n";
      break;
    case ImplKind::kMmColStripsXRowStripsOuterSum:
      out << "  SELECT SUM(matrix_multiply(x.mat, m.mat)) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1() << " AS m\n"
          << "  WHERE x.tileCol = m.tileRow;\n";
      break;
    case ImplKind::kMmRowStripsXBcastColStrips:
      out << "  SELECT x.tileRow,\n"
          << "         COLMATRIX(label_matrix(matrix_multiply(x.mat, m.mat),"
             " m.tileCol)) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1() << " AS m\n"
          << "  GROUP BY x.tileRow;  -- broadcast join\n";
      break;
    case ImplKind::kAddZip:
    case ImplKind::kAddSparseZip:
    case ImplKind::kSubZip:
    case ImplKind::kHadamardZip:
    case ImplKind::kElemDivZip:
    case ImplKind::kReluGradZip: {
      const char* fn = va.impl == ImplKind::kSubZip ? "matrix_subtract"
                       : va.impl == ImplKind::kHadamardZip ? "matrix_hadamard"
                       : va.impl == ImplKind::kElemDivZip ? "matrix_divide"
                       : va.impl == ImplKind::kReluGradZip ? "relu_backward"
                                                           : "matrix_add";
      std::string keys = KeyAttrs(FormatOf(va.output_format));
      out << "  SELECT " << (keys.empty() ? "" : ("x." + keys + ", "))
          << fn << "(x.mat, m.mat) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1() << " AS m";
      if (!keys.empty()) {
        out << "\n  WHERE x.tileRow = m.tileRow";  // simplified key equality
      }
      out << ";\n";
      break;
    }
    case ImplKind::kScalarMulMap:
      out << "  SELECT " << PrefixKeys(va) << "matrix_scale(x.mat, "
          << graph.vertex(v).scalar << ") AS mat FROM " << a0() << " AS x;\n";
      break;
    case ImplKind::kReluMap:
    case ImplKind::kSigmoidMap:
    case ImplKind::kExpMap:
    case ImplKind::kSoftmaxRowStrips:
    case ImplKind::kSoftmaxSingle: {
      const char* fn = va.impl == ImplKind::kReluMap ? "relu"
                       : va.impl == ImplKind::kSigmoidMap ? "sigmoid"
                       : va.impl == ImplKind::kExpMap ? "matrix_exp"
                                                      : "softmax";
      out << "  SELECT " << PrefixKeys(va) << fn << "(x.mat) AS mat FROM "
          << a0() << " AS x;\n";
      break;
    }
    case ImplKind::kTransposeSingle:
    case ImplKind::kTransposeRowToCol:
    case ImplKind::kTransposeColToRow:
    case ImplKind::kTransposeTiles:
      out << "  SELECT " << PrefixKeys(va)
          << "matrix_transpose(x.mat) AS mat FROM " << a0() << " AS x;\n";
      break;
    case ImplKind::kRowSumRowStrips:
    case ImplKind::kRowSumSingle:
    case ImplKind::kColSumColStrips:
    case ImplKind::kColSumSingle:
      out << "  SELECT " << PrefixKeys(va) << "sum_vector(x.mat) AS mat FROM "
          << a0() << " AS x;\n";
      break;
    case ImplKind::kRowSumTilesAgg:
      out << "  SELECT x.tileRow, SUM(row_sum(x.mat)) AS mat\n"
          << "  FROM " << a0() << " AS x GROUP BY x.tileRow;\n";
      break;
    case ImplKind::kColSumTilesAgg:
      out << "  SELECT x.tileCol, SUM(col_sum(x.mat)) AS mat\n"
          << "  FROM " << a0() << " AS x GROUP BY x.tileCol;\n";
      break;
    case ImplKind::kBroadcastRowAddBcastVec:
      out << "  SELECT " << PrefixKeys(va)
          << "row_add(x.mat, slice(v.mat, x.tileCol)) AS mat\n"
          << "  FROM " << a0() << " AS x, " << a1()
          << " AS v;  -- broadcast join\n";
      break;
    case ImplKind::kInverseSingleLu:
    case ImplKind::kGpuInverseSingleLu:
      out << "  SELECT matrix_inverse(x.mat) AS mat FROM " << a0()
          << " AS x;\n";
      break;
    case ImplKind::kInverseGatherLu:
      out << "  SELECT matrix_inverse(COLMATRIX(label_matrix(\n"
          << "           ROWMATRIX(label_matrix(x.mat, x.tileCol)),"
             " x.tileRow))) AS mat\n"
          << "  FROM " << a0() << " AS x;\n";
      break;
  }
}

std::string PrefixKeys(const VertexAnnotation& va) {
  std::string keys = KeyAttrs(FormatOf(va.output_format));
  if (keys.empty()) return "";
  std::string out;
  size_t start = 0;
  while (start < keys.size()) {
    size_t comma = keys.find(',', start);
    std::string key = keys.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    while (!key.empty() && key.front() == ' ') key.erase(key.begin());
    out += "x." + key + ", ";
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::string GenerateSql(const ComputeGraph& graph,
                        const Annotation& annotation, const Catalog& catalog) {
  (void)catalog;
  std::ostringstream out;
  int view_counter = 0;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const Vertex& vx = graph.vertex(v);
    const VertexAnnotation& va = annotation.at(v);
    if (vx.op == OpKind::kInput) {
      out << "-- input relation, stored as "
          << FormatOf(va.output_format).ToString() << "\n"
          << "CREATE TABLE " << Schema(graph, v, va.output_format) << ";\n\n";
      continue;
    }
    std::vector<std::string> arg_names;
    for (size_t j = 0; j < vx.inputs.size(); ++j) {
      const EdgeAnnotation& e = va.input_edges[j];
      if (e.transform.has_value()) {
        std::string view =
            RelName(graph, vx.inputs[j]) + "_t" + std::to_string(view_counter++);
        EmitTransform(out, graph, vx.inputs[j], *e.transform, e.pin, e.pout,
                      view);
        out << "\n";
        arg_names.push_back(view);
      } else {
        arg_names.push_back(RelName(graph, vx.inputs[j]));
      }
    }
    EmitImpl(out, graph, v, va, arg_names);
    out << "\n";
  }
  return out.str();
}

}  // namespace matopt
