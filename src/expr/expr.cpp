#include "src/expr/expr.h"

#include <charconv>
#include <sstream>

namespace proteus {

ExprPtr Expr::Lit(Value v) {
  auto e = ExprPtr(new Expr(ExprKind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Var(std::string name) {
  auto e = ExprPtr(new Expr(ExprKind::kVarRef));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Proj(ExprPtr input, std::string field) {
  auto e = ExprPtr(new Expr(ExprKind::kProj));
  e->children_ = {std::move(input)};
  e->name_ = std::move(field);
  return e;
}

ExprPtr Expr::Path(const std::vector<std::string>& path) {
  ExprPtr e = Var(path.front());
  for (size_t i = 1; i < path.size(); ++i) e = Proj(e, path[i]);
  return e;
}

ExprPtr Expr::Bin(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprKind::kBinary));
  e->bin_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Un(UnOp op, ExprPtr c) {
  auto e = ExprPtr(new Expr(ExprKind::kUnary));
  e->un_op_ = op;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = ExprPtr(new Expr(ExprKind::kIf));
  e->children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::Cast(TypePtr to, ExprPtr c) {
  auto e = ExprPtr(new Expr(ExprKind::kCast));
  e->cast_to_ = std::move(to);
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Record(std::vector<std::string> names, std::vector<ExprPtr> children) {
  auto e = ExprPtr(new Expr(ExprKind::kRecordCons));
  e->record_names_ = std::move(names);
  e->children_ = std::move(children);
  return e;
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
  }
  return "?";
}

namespace {

/// Shortest round-trip form of a float literal, kept distinct from an
/// integer literal of the same digits ("91000.01", "1.0", "1e+300").
std::string FloatLiteralText(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string text(buf, res.ptr);
  if (text.find_first_of(".en") == std::string::npos) text += ".0";
  return text;
}

}  // namespace

std::string Expr::ToString(const LiteralPrinter& literal) const {
  std::ostringstream os;
  auto sub = [&](size_t i) { return children_[i]->ToString(literal); };
  switch (kind_) {
    case ExprKind::kLiteral:
      if (literal) {
        os << literal(*this);
      } else if (literal_.is_float()) {
        os << FloatLiteralText(literal_.f());
      } else {
        os << literal_.ToString();
      }
      break;
    case ExprKind::kVarRef:
      os << name_;
      break;
    case ExprKind::kProj:
      os << sub(0) << "." << name_;
      break;
    case ExprKind::kBinary:
      os << "(" << sub(0) << " " << BinOpName(bin_op_) << " " << sub(1) << ")";
      break;
    case ExprKind::kUnary:
      os << (un_op_ == UnOp::kNot ? "not " : "-") << sub(0);
      break;
    case ExprKind::kIf:
      os << "if " << sub(0) << " then " << sub(1) << " else " << sub(2);
      break;
    case ExprKind::kCast:
      os << "cast<" << cast_to_->ToString() << ">(" << sub(0) << ")";
      break;
    case ExprKind::kRecordCons:
      os << "<";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) os << ", ";
        os << record_names_[i] << ": " << sub(i);
      }
      os << ">";
      break;
  }
  return os.str();
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kLiteral:
      if (!literal_.Equals(other.literal_)) return false;
      break;
    case ExprKind::kVarRef:
    case ExprKind::kProj:
      if (name_ != other.name_) return false;
      break;
    case ExprKind::kBinary:
      if (bin_op_ != other.bin_op_) return false;
      break;
    case ExprKind::kUnary:
      if (un_op_ != other.un_op_) return false;
      break;
    case ExprKind::kCast:
      if (!cast_to_->Equals(*other.cast_to_)) return false;
      break;
    case ExprKind::kRecordCons:
      if (record_names_ != other.record_names_) return false;
      break;
    case ExprKind::kIf:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

void Expr::CollectFreeVars(std::unordered_set<std::string>* out) const {
  if (kind_ == ExprKind::kVarRef) {
    out->insert(name_);
    return;
  }
  for (const auto& c : children_) c->CollectFreeVars(out);
}

bool Expr::OnlyDependsOn(const std::unordered_set<std::string>& bound) const {
  std::unordered_set<std::string> free;
  CollectFreeVars(&free);
  for (const auto& v : free) {
    if (!bound.count(v)) return false;
  }
  return true;
}

ExprPtr Expr::SubstituteVar(const ExprPtr& e, const std::string& var, const ExprPtr& replacement) {
  if (e->kind_ == ExprKind::kVarRef) {
    return e->name_ == var ? replacement : e;
  }
  if (e->children_.empty()) return e;
  auto copy = ExprPtr(new Expr(*e));
  for (auto& c : copy->children_) c = SubstituteVar(c, var, replacement);
  return copy;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (!pred) return out;
  if (pred->kind() == ExprKind::kBinary && pred->bin_op() == BinOp::kAnd) {
    auto l = SplitConjuncts(pred->child(0));
    auto r = SplitConjuncts(pred->child(1));
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(pred);
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return Expr::Bool(true);
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::Bin(BinOp::kAnd, acc, conjuncts[i]);
  }
  return acc;
}

}  // namespace proteus
