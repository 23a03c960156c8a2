// Expression AST of the nested relational algebra.
//
// Expressions appear as filtering predicates (p), output expressions (e),
// group-by expressions (f), and record constructions. They are evaluated
// either by the tree-walking interpreter (src/expr/eval.h) or compiled to
// LLVM IR by the expression generators (src/jit/expr_codegen.h) — the paper's
// "Expression Generators" component (§4, §5.2).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/value.h"
#include "src/types/type.h"

namespace proteus {

enum class ExprKind {
  kLiteral,     ///< constant value
  kVarRef,      ///< reference to a bound variable (a generator binding)
  kProj,        ///< field projection  e.name
  kBinary,      ///< arithmetic / comparison / logical
  kUnary,       ///< not / negate
  kIf,          ///< if c then t else e
  kCast,        ///< numeric cast
  kRecordCons,  ///< < name1: e1, ..., nameN: eN >
};

enum class BinOp { kAdd, kSub, kMul, kDiv, kMod, kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr };
enum class UnOp { kNot, kNeg };

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Prints one literal node of a signature in place of its value: the
/// compiled-query cache prints a kind placeholder and records the node
/// (jit::ShapeOfPlan).
using LiteralPrinter = std::function<std::string(const Expr& literal)>;

class Expr {
 public:
  // ---- Builders ------------------------------------------------------------
  static ExprPtr Lit(Value v);
  static ExprPtr Int(int64_t v) { return Lit(Value::Int(v)); }
  static ExprPtr Float(double v) { return Lit(Value::Float(v)); }
  static ExprPtr Bool(bool v) { return Lit(Value::Boolean(v)); }
  static ExprPtr Str(std::string v) { return Lit(Value::Str(std::move(v))); }
  static ExprPtr Var(std::string name);
  static ExprPtr Proj(ExprPtr input, std::string field);
  /// Convenience: Var(path[0]).path[1].path[2]...
  static ExprPtr Path(const std::vector<std::string>& path);
  static ExprPtr Bin(BinOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Un(UnOp op, ExprPtr c);
  static ExprPtr If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr Cast(TypePtr to, ExprPtr c);
  static ExprPtr Record(std::vector<std::string> names, std::vector<ExprPtr> children);

  // ---- Accessors -----------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& literal() const { return literal_; }
  const std::string& var_name() const { return name_; }
  const std::string& field() const { return name_; }
  BinOp bin_op() const { return bin_op_; }
  UnOp un_op() const { return un_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  const std::vector<std::string>& record_names() const { return record_names_; }
  const TypePtr& cast_to() const { return cast_to_; }

  /// Type annotation, filled in by TypeCheck().
  const TypePtr& type() const { return type_; }
  void set_type(TypePtr t) { type_ = std::move(t); }

  /// Canonical textual form; used for plan signatures (cache matching) and
  /// debugging. Structurally equal expressions print identically, and float
  /// literals print in the shortest form that round-trips, always with a
  /// '.' or exponent so they never read as integers. `literal`, when set,
  /// prints each literal node in place of its value.
  std::string ToString(const LiteralPrinter& literal = nullptr) const;
  bool Equals(const Expr& other) const;

  /// Free variables referenced anywhere in this expression.
  void CollectFreeVars(std::unordered_set<std::string>* out) const;
  /// True if all free variables are within `bound`.
  bool OnlyDependsOn(const std::unordered_set<std::string>& bound) const;

  /// Deep copy with a variable renamed (used by calculus normalization).
  static ExprPtr SubstituteVar(const ExprPtr& e, const std::string& var, const ExprPtr& replacement);

 private:
  explicit Expr(ExprKind k) : kind_(k) {}

  ExprKind kind_;
  Value literal_;                         // kLiteral
  std::string name_;                      // kVarRef: var name; kProj: field name
  BinOp bin_op_ = BinOp::kAdd;            // kBinary
  UnOp un_op_ = UnOp::kNot;               // kUnary
  std::vector<ExprPtr> children_;
  std::vector<std::string> record_names_; // kRecordCons
  TypePtr cast_to_;                       // kCast
  TypePtr type_;
};

const char* BinOpName(BinOp op);

/// Maps variable names to their types during type checking.
using TypeEnv = std::unordered_map<std::string, TypePtr>;

/// Infers and annotates types bottom-up. Errors on unknown variables/fields
/// and non-sensical operand types (e.g. adding strings).
Result<TypePtr> TypeCheck(const ExprPtr& expr, const TypeEnv& env);

/// Folds constant subexpressions (literal arithmetic, boolean short-circuits).
ExprPtr FoldConstants(const ExprPtr& expr);

/// Conjunction helpers: split a predicate on AND, rebuild from conjuncts.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace proteus
