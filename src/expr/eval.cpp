#include "src/expr/eval.h"

#include <cmath>

#include "src/common/counters.h"

namespace proteus {

namespace {

Result<Value> EvalArith(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool both_int = l.is_int() && r.is_int();
  switch (op) {
    case BinOp::kAdd:
      return both_int ? Value::Int(l.i() + r.i()) : Value::Float(l.AsFloat() + r.AsFloat());
    case BinOp::kSub:
      return both_int ? Value::Int(l.i() - r.i()) : Value::Float(l.AsFloat() - r.AsFloat());
    case BinOp::kMul:
      return both_int ? Value::Int(l.i() * r.i()) : Value::Float(l.AsFloat() * r.AsFloat());
    case BinOp::kDiv: {
      double d = r.AsFloat();
      if (d == 0.0) return Status::InvalidArgument("division by zero");
      return Value::Float(l.AsFloat() / d);
    }
    case BinOp::kMod: {
      if (r.i() == 0) return Status::InvalidArgument("modulo by zero");
      return Value::Int(l.i() % r.i());
    }
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> EvalCompare(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  GlobalCounters().branch_evals++;
  if (op == BinOp::kEq) return Value::Boolean(l.Equals(r));
  if (op == BinOp::kNe) return Value::Boolean(!l.Equals(r));
  int c = l.Compare(r);
  switch (op) {
    case BinOp::kLt: return Value::Boolean(c < 0);
    case BinOp::kLe: return Value::Boolean(c <= 0);
    case BinOp::kGt: return Value::Boolean(c > 0);
    case BinOp::kGe: return Value::Boolean(c >= 0);
    default: return Status::Internal("not a comparison op");
  }
}

}  // namespace

Result<Value> Eval(const ExprPtr& expr, const EvalEnv& env) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      return expr->literal();
    case ExprKind::kVarRef: {
      auto it = env.find(expr->var_name());
      if (it == env.end()) {
        return Status::Internal("unbound variable '" + expr->var_name() + "' at eval time");
      }
      return it->second;
    }
    case ExprKind::kProj: {
      PROTEUS_ASSIGN_OR_RETURN(Value in, Eval(expr->child(0), env));
      if (in.is_null()) return Value::Null();
      // A field the record lacks reads as null: the type checker rejects
      // fields the schema does not declare, so a miss here is an absent
      // field of schema-flexible JSON (an array element without it).
      auto field = in.GetField(expr->field());
      if (!field.ok() && field.status().code() == StatusCode::kNotFound) return Value::Null();
      return field;
    }
    case ExprKind::kBinary: {
      BinOp op = expr->bin_op();
      if (op == BinOp::kAnd || op == BinOp::kOr) {
        GlobalCounters().branch_evals++;
        PROTEUS_ASSIGN_OR_RETURN(Value l, Eval(expr->child(0), env));
        bool lb = !l.is_null() && l.b();
        // Short-circuit evaluation.
        if (op == BinOp::kAnd && !lb) return Value::Boolean(false);
        if (op == BinOp::kOr && lb) return Value::Boolean(true);
        PROTEUS_ASSIGN_OR_RETURN(Value r, Eval(expr->child(1), env));
        bool rb = !r.is_null() && r.b();
        return Value::Boolean(rb);
      }
      PROTEUS_ASSIGN_OR_RETURN(Value l, Eval(expr->child(0), env));
      PROTEUS_ASSIGN_OR_RETURN(Value r, Eval(expr->child(1), env));
      if (op == BinOp::kAdd || op == BinOp::kSub || op == BinOp::kMul ||
          op == BinOp::kDiv || op == BinOp::kMod) {
        return EvalArith(op, l, r);
      }
      return EvalCompare(op, l, r);
    }
    case ExprKind::kUnary: {
      PROTEUS_ASSIGN_OR_RETURN(Value c, Eval(expr->child(0), env));
      if (c.is_null()) return Value::Null();
      if (expr->un_op() == UnOp::kNot) return Value::Boolean(!c.b());
      return c.is_int() ? Value::Int(-c.i()) : Value::Float(-c.f());
    }
    case ExprKind::kIf: {
      GlobalCounters().branch_evals++;
      PROTEUS_ASSIGN_OR_RETURN(Value c, Eval(expr->child(0), env));
      bool cond = !c.is_null() && c.b();
      return Eval(expr->child(cond ? 1 : 2), env);
    }
    case ExprKind::kCast: {
      PROTEUS_ASSIGN_OR_RETURN(Value c, Eval(expr->child(0), env));
      if (c.is_null()) return Value::Null();
      if (expr->cast_to()->kind() == TypeKind::kFloat64) return Value::Float(c.AsFloat());
      if (c.is_float()) return Value::Int(static_cast<int64_t>(c.f()));
      return c;
    }
    case ExprKind::kRecordCons: {
      std::vector<Value> vals;
      vals.reserve(expr->children().size());
      for (const auto& ch : expr->children()) {
        PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(ch, env));
        vals.push_back(std::move(v));
      }
      return Value::MakeRecord(expr->record_names(), std::move(vals));
    }
  }
  return Status::Internal("unreachable expr kind at eval");
}

Result<bool> EvalPredicate(const ExprPtr& pred, const EvalEnv& env) {
  if (!pred) return true;
  PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(pred, env));
  return !v.is_null() && v.b();
}

}  // namespace proteus
