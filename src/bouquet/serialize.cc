#include "bouquet/serialize.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/str_util.h"
#include "optimizer/plan_signature.h"

namespace bouquet {

namespace {

constexpr const char* kMagic = "bouquet-file";
constexpr int kVersion = 1;

// Hex-float encoding round-trips doubles exactly.
std::string Hex(double v) { return StrPrintf("%a", v); }

void WriteNode(const PlanNode& node, std::ostream& out) {
  out << "node " << static_cast<int>(node.op) << ' ' << node.table_idx << ' '
      << node.index_filter << ' ' << node.index_join << ' '
      << (node.left_presorted ? 1 : 0) << ' '
      << (node.right_presorted ? 1 : 0) << ' ' << Hex(node.est_rows) << ' '
      << Hex(node.est_cost) << ' ' << Hex(node.width) << ' '
      << node.filter_idxs.size();
  for (int f : node.filter_idxs) out << ' ' << f;
  out << ' ' << node.join_idxs.size();
  for (int j : node.join_idxs) out << ' ' << j;
  const int children = (node.left ? 1 : 0) + (node.right ? 1 : 0);
  assert(!(node.right && !node.left) && "right-only children unsupported");
  out << ' ' << children << '\n';
  if (node.left) WriteNode(*node.left, out);
  if (node.right) WriteNode(*node.right, out);
}

// Reads one token line already split into a stream.
PlanNodeRef ReadNode(std::istream& in, Status* status) {
  std::string tag;
  if (!(in >> tag) || tag != "node") {
    *status = Status::Internal("expected node record");
    return nullptr;
  }
  auto node = std::make_shared<PlanNode>();
  int op, lp, rp;
  long long nf, nj;
  std::string rows_hex, cost_hex, width_hex;
  if (!(in >> op >> node->table_idx >> node->index_filter >>
        node->index_join >> lp >> rp >> rows_hex >> cost_hex >> width_hex >>
        nf)) {
    *status = Status::Internal("truncated node record");
    return nullptr;
  }
  if (op < 0 || op > static_cast<int>(OpType::kHashAggregate) || nf < 0 ||
      nf > 4096) {
    *status = Status::Internal("node record out of range");
    return nullptr;
  }
  node->op = static_cast<OpType>(op);
  node->left_presorted = lp != 0;
  node->right_presorted = rp != 0;
  node->est_rows = std::strtod(rows_hex.c_str(), nullptr);
  node->est_cost = std::strtod(cost_hex.c_str(), nullptr);
  node->width = std::strtod(width_hex.c_str(), nullptr);
  node->filter_idxs.resize(nf);
  for (int& f : node->filter_idxs) {
    if (!(in >> f)) {
      *status = Status::Internal("truncated filter list");
      return nullptr;
    }
  }
  if (!(in >> nj) || nj < 0 || nj > 4096) {
    *status = Status::Internal("truncated join-count");
    return nullptr;
  }
  node->join_idxs.resize(nj);
  for (int& j : node->join_idxs) {
    if (!(in >> j)) {
      *status = Status::Internal("truncated join list");
      return nullptr;
    }
  }
  int children;
  if (!(in >> children)) {
    *status = Status::Internal("truncated children count");
    return nullptr;
  }
  if (children < 0 || children > 2) {
    *status = Status::Internal("invalid children count");
    return nullptr;
  }
  if (children >= 1) {
    node->left = ReadNode(in, status);
    if (!status->ok()) return nullptr;
  }
  if (children == 2) {
    node->right = ReadNode(in, status);
    if (!status->ok()) return nullptr;
  }
  return node;
}

// A loaded plan must reference only predicates/tables the query actually
// has — otherwise the executor builder indexes out of bounds.
Status ValidateLoadedPlan(const PlanNode& node, const QuerySpec& query) {
  // Structural arity: scans are leaves, joins binary, aggregates unary.
  if (node.is_scan() && (node.left || node.right)) {
    return Status::FailedPrecondition("scan node with children");
  }
  if (node.is_join() && (!node.left || !node.right || node.join_idxs.empty())) {
    return Status::FailedPrecondition("malformed join node");
  }
  if (node.is_aggregate() && (!node.left || node.right)) {
    return Status::FailedPrecondition("malformed aggregate node");
  }
  if (node.is_scan()) {
    if (node.table_idx < 0 ||
        node.table_idx >= static_cast<int>(query.tables.size())) {
      return Status::FailedPrecondition("plan references unknown table");
    }
  }
  for (int f : node.filter_idxs) {
    if (f < 0 || f >= static_cast<int>(query.filters.size())) {
      return Status::FailedPrecondition("plan references unknown filter");
    }
  }
  for (int j : node.join_idxs) {
    if (j < 0 || j >= static_cast<int>(query.joins.size())) {
      return Status::FailedPrecondition("plan references unknown join");
    }
  }
  if (node.index_filter >= static_cast<int>(query.filters.size()) ||
      node.index_join >= static_cast<int>(query.joins.size())) {
    return Status::FailedPrecondition("plan index qual out of range");
  }
  if (node.left) {
    Status s = ValidateLoadedPlan(*node.left, query);
    if (!s.ok()) return s;
  }
  if (node.right) {
    Status s = ValidateLoadedPlan(*node.right, query);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

Status SaveBouquet(const PlanDiagram& diagram, const PlanBouquet& bouquet,
                   std::ostream& out) {
  const EssGrid& grid = diagram.grid();
  out << kMagic << " v" << kVersion << '\n';
  out << "grid " << grid.dims();
  for (int d = 0; d < grid.dims(); ++d) out << ' ' << grid.resolution(d);
  out << '\n';

  out << "plans " << diagram.num_plans() << '\n';
  for (int p = 0; p < diagram.num_plans(); ++p) {
    const Plan& plan = diagram.plan(p);
    out << "plan " << p << ' ' << Hex(plan.cost) << ' ' << Hex(plan.rows)
        << '\n';
    WriteNode(*plan.root, out);
  }

  out << "assignments " << grid.num_points() << '\n';
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    out << diagram.plan_at(i) << ' ' << Hex(diagram.cost_at(i)) << '\n';
  }

  out << "bouquet " << Hex(bouquet.params.ratio) << ' '
      << Hex(bouquet.params.lambda) << ' '
      << (bouquet.params.anorexic ? 1 : 0) << ' ' << Hex(bouquet.cmin) << ' '
      << Hex(bouquet.cmax) << ' ' << bouquet.contours.size() << '\n';
  for (const auto& c : bouquet.contours) {
    out << "contour " << Hex(c.step_cost) << ' ' << Hex(c.budget) << ' '
        << c.points.size() << '\n';
    for (size_t i = 0; i < c.points.size(); ++i) {
      out << c.points[i] << ' ' << c.plan_at[i] << '\n';
    }
  }
  if (!out.good()) return Status::Internal("stream write failure");
  return Status::Ok();
}

Status SaveBouquetToFile(const PlanDiagram& diagram,
                         const PlanBouquet& bouquet,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open for writing: " + path);
  }
  return SaveBouquet(diagram, bouquet, out);
}

Result<LoadedBouquet> LoadBouquet(const QuerySpec& query, std::istream& in) {
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic || version != "v1") {
    return Status::InvalidArgument("not a bouquet-file v1 stream");
  }
  std::string tag;
  int dims;
  if (!(in >> tag >> dims) || tag != "grid") {
    return Status::Internal("missing grid record");
  }
  if (dims != query.NumDims()) {
    return Status::FailedPrecondition(
        StrPrintf("bundle has %d dims, query has %d", dims,
                  query.NumDims()));
  }
  std::vector<int> resolutions(dims);
  for (int d = 0; d < dims; ++d) {
    if (!(in >> resolutions[d]) || resolutions[d] <= 0) {
      return Status::Internal("bad grid resolutions");
    }
  }

  LoadedBouquet bundle;
  bundle.grid = std::make_unique<EssGrid>(query, resolutions);
  bundle.diagram = std::make_unique<PlanDiagram>(bundle.grid.get());

  int num_plans;
  if (!(in >> tag >> num_plans) || tag != "plans" || num_plans < 0) {
    return Status::Internal("missing plans record");
  }
  for (int p = 0; p < num_plans; ++p) {
    int id;
    std::string cost_hex, rows_hex;
    if (!(in >> tag >> id >> cost_hex >> rows_hex) || tag != "plan" ||
        id != p) {
      return Status::Internal("bad plan header");
    }
    Status st;
    Plan plan;
    plan.root = ReadNode(in, &st);
    if (!st.ok()) return st;
    st = ValidateLoadedPlan(*plan.root, query);
    if (!st.ok()) return st;
    plan.cost = std::strtod(cost_hex.c_str(), nullptr);
    plan.rows = std::strtod(rows_hex.c_str(), nullptr);
    plan.signature = PlanSignature(*plan.root);
    const int interned = bundle.diagram->InternPlan(plan);
    if (interned != p) {
      return Status::Internal("duplicate plan signature in bundle");
    }
  }

  uint64_t num_points;
  if (!(in >> tag >> num_points) || tag != "assignments" ||
      num_points != bundle.grid->num_points()) {
    return Status::Internal("assignment count mismatch");
  }
  for (uint64_t i = 0; i < num_points; ++i) {
    int plan;
    std::string cost_hex;
    if (!(in >> plan >> cost_hex) || plan < 0 || plan >= num_plans) {
      return Status::Internal("bad assignment record");
    }
    bundle.diagram->Set(i, plan, std::strtod(cost_hex.c_str(), nullptr));
  }

  bundle.bouquet = std::make_unique<PlanBouquet>();
  std::string ratio_hex, lambda_hex, cmin_hex, cmax_hex;
  int anorexic;
  size_t num_contours;
  if (!(in >> tag >> ratio_hex >> lambda_hex >> anorexic >> cmin_hex >>
        cmax_hex >> num_contours) ||
      tag != "bouquet") {
    return Status::Internal("missing bouquet record");
  }
  bundle.bouquet->params.ratio = std::strtod(ratio_hex.c_str(), nullptr);
  bundle.bouquet->params.lambda = std::strtod(lambda_hex.c_str(), nullptr);
  bundle.bouquet->params.anorexic = anorexic != 0;
  bundle.bouquet->cmin = std::strtod(cmin_hex.c_str(), nullptr);
  bundle.bouquet->cmax = std::strtod(cmax_hex.c_str(), nullptr);
  std::set<int> union_plans;
  for (size_t k = 0; k < num_contours; ++k) {
    std::string step_hex, budget_hex;
    size_t npoints;
    if (!(in >> tag >> step_hex >> budget_hex >> npoints) ||
        tag != "contour") {
      return Status::Internal("bad contour header");
    }
    BouquetContour c;
    c.step_cost = std::strtod(step_hex.c_str(), nullptr);
    c.budget = std::strtod(budget_hex.c_str(), nullptr);
    std::set<int> distinct;
    for (size_t i = 0; i < npoints; ++i) {
      uint64_t point;
      int plan;
      if (!(in >> point >> plan) || point >= num_points || plan < 0 ||
          plan >= num_plans) {
        return Status::Internal("bad contour point record");
      }
      c.points.push_back(point);
      c.plan_at.push_back(plan);
      distinct.insert(plan);
      union_plans.insert(plan);
    }
    c.plan_ids.assign(distinct.begin(), distinct.end());
    bundle.bouquet->contours.push_back(std::move(c));
  }
  bundle.bouquet->plan_ids.assign(union_plans.begin(), union_plans.end());
  return bundle;
}

Result<LoadedBouquet> LoadBouquetFromFile(const QuerySpec& query,
                                          const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open bouquet file: " + path);
  }
  return LoadBouquet(query, in);
}

}  // namespace bouquet
