#include "src/algebra/algebra.h"

#include <sstream>

namespace proteus {

const char* MonoidName(Monoid m) {
  switch (m) {
    case Monoid::kSum: return "sum";
    case Monoid::kCount: return "count";
    case Monoid::kMax: return "max";
    case Monoid::kMin: return "min";
    case Monoid::kAnd: return "and";
    case Monoid::kOr: return "or";
    case Monoid::kBag: return "bag";
    case Monoid::kList: return "list";
    case Monoid::kSet: return "set";
  }
  return "?";
}

bool IsCollectionMonoid(Monoid m) {
  return m == Monoid::kBag || m == Monoid::kList || m == Monoid::kSet;
}

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kShared: return "shared";
    case JoinStrategy::kPartitioned: return "partitioned";
  }
  return "?";
}

OpPtr Operator::Scan(std::string dataset, std::string binding) {
  auto op = OpPtr(new Operator(OpKind::kScan));
  op->dataset_ = std::move(dataset);
  op->binding_ = std::move(binding);
  return op;
}

OpPtr Operator::Select(OpPtr child, ExprPtr pred) {
  auto op = OpPtr(new Operator(OpKind::kSelect));
  op->children_ = {std::move(child)};
  op->pred_ = std::move(pred);
  return op;
}

OpPtr Operator::Join(OpPtr left, OpPtr right, ExprPtr pred, bool outer) {
  auto op = OpPtr(new Operator(OpKind::kJoin));
  op->children_ = {std::move(left), std::move(right)};
  op->pred_ = std::move(pred);
  op->outer_ = outer;
  return op;
}

OpPtr Operator::Unnest(OpPtr child, FieldPath path_from_var, std::string binding,
                       ExprPtr pred, bool outer) {
  auto op = OpPtr(new Operator(OpKind::kUnnest));
  op->children_ = {std::move(child)};
  op->path_ = std::move(path_from_var);
  op->binding_ = std::move(binding);
  op->pred_ = std::move(pred);
  op->outer_ = outer;
  return op;
}

OpPtr Operator::Reduce(OpPtr child, std::vector<AggOutput> outputs, ExprPtr pred) {
  auto op = OpPtr(new Operator(OpKind::kReduce));
  op->children_ = {std::move(child)};
  op->outputs_ = std::move(outputs);
  op->pred_ = std::move(pred);
  return op;
}

OpPtr Operator::Nest(OpPtr child, ExprPtr group_by, std::string group_name,
                     std::vector<AggOutput> outputs, ExprPtr pred, std::string binding) {
  auto op = OpPtr(new Operator(OpKind::kNest));
  op->children_ = {std::move(child)};
  op->group_by_ = std::move(group_by);
  op->group_name_ = std::move(group_name);
  op->outputs_ = std::move(outputs);
  op->pred_ = std::move(pred);
  op->binding_ = std::move(binding);
  return op;
}

OpPtr Operator::CacheScan(uint64_t cache_id, std::string binding, std::string signature,
                          std::string dataset, std::string layout) {
  auto op = OpPtr(new Operator(OpKind::kCacheScan));
  op->cache_id_ = cache_id;
  op->binding_ = std::move(binding);
  op->cache_signature_ = std::move(signature);
  op->dataset_ = std::move(dataset);
  op->cache_layout_ = std::move(layout);
  return op;
}

Result<TypeEnv> Operator::OutputEnv(const Catalog& catalog) const {
  switch (kind_) {
    case OpKind::kScan: {
      PROTEUS_ASSIGN_OR_RETURN(const DatasetInfo* info, catalog.Get(dataset_));
      TypeEnv env;
      env[binding_] = info->type->elem();
      return env;
    }
    case OpKind::kCacheScan: {
      // Cache scans are introduced after type checking; they re-bind the same
      // variable and type as the subtree they replace. The engine resolves
      // their schema from the cache block itself.
      return TypeEnv{};
    }
    case OpKind::kSelect:
      return children_[0]->OutputEnv(catalog);
    case OpKind::kJoin: {
      PROTEUS_ASSIGN_OR_RETURN(TypeEnv l, children_[0]->OutputEnv(catalog));
      PROTEUS_ASSIGN_OR_RETURN(TypeEnv r, children_[1]->OutputEnv(catalog));
      for (auto& [k, v] : r) {
        if (l.count(k)) {
          return Status::InvalidArgument("duplicate binding '" + k + "' across join sides");
        }
        l[k] = v;
      }
      return l;
    }
    case OpKind::kUnnest: {
      PROTEUS_ASSIGN_OR_RETURN(TypeEnv env, children_[0]->OutputEnv(catalog));
      auto it = env.find(path_[0]);
      if (it == env.end()) {
        return Status::InvalidArgument("unnest source variable '" + path_[0] + "' not bound");
      }
      TypePtr t = it->second;
      for (size_t i = 1; i < path_.size(); ++i) {
        if (t->kind() != TypeKind::kRecord) {
          return Status::TypeError("unnest path crosses non-record type");
        }
        PROTEUS_ASSIGN_OR_RETURN(t, t->FieldType(path_[i]));
      }
      if (t->kind() != TypeKind::kCollection) {
        return Status::TypeError("unnest path " + DottedPath(path_) + " is not a collection");
      }
      env[binding_] = t->elem();
      return env;
    }
    case OpKind::kReduce:
      return TypeEnv{};  // root: produces final output, no bindings
    case OpKind::kNest: {
      PROTEUS_ASSIGN_OR_RETURN(TypeEnv child_env, children_[0]->OutputEnv(catalog));
      PROTEUS_ASSIGN_OR_RETURN(TypePtr key_t, TypeCheck(group_by_, child_env));
      std::vector<Field> fields{{group_name_, key_t}};
      for (const auto& o : outputs_) {
        TypePtr t = Type::Int64();
        if (o.monoid != Monoid::kCount) {
          PROTEUS_ASSIGN_OR_RETURN(t, TypeCheck(o.expr, child_env));
          if (IsCollectionMonoid(o.monoid)) t = Type::Collection(CollectionKind::kBag, t);
        }
        fields.push_back({o.name, t});
      }
      TypeEnv env;
      std::string b = binding_.empty() ? "$group" : binding_;
      env[b] = Type::Record(std::move(fields));
      return env;
    }
  }
  return Status::Internal("unreachable op kind");
}

namespace {

void AppendOutputs(std::ostringstream& os, const std::vector<AggOutput>& outputs,
                   const LiteralPrinter& literal = nullptr) {
  os << "[";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i) os << ", ";
    os << MonoidName(outputs[i].monoid);
    if (outputs[i].expr) os << "(" << outputs[i].expr->ToString(literal) << ")";
    os << " as " << outputs[i].name;
  }
  os << "]";
}

}  // namespace

std::string Operator::Signature(const LiteralPrinter& literal) const {
  std::ostringstream os;
  auto expr = [&](const ExprPtr& e) { return e->ToString(literal); };
  auto child = [&](size_t i) { return children_[i]->Signature(literal); };
  switch (kind_) {
    case OpKind::kScan:
      os << "scan(" << dataset_ << " as " << binding_ << ")";
      break;
    case OpKind::kCacheScan:
      os << "cachescan(" << cache_signature_ << " {" << cache_layout_ << "} as " << binding_
         << ")";
      break;
    case OpKind::kSelect:
      os << "select{" << (pred_ ? expr(pred_) : "true") << "}(" << child(0) << ")";
      break;
    case OpKind::kJoin:
      os << (outer_ ? "outerjoin{" : "join{") << (pred_ ? expr(pred_) : "true");
      if (left_key_) os << " | hash " << expr(left_key_) << " = " << expr(right_key_);
      os << "}(" << child(0) << ", " << child(1) << ")";
      break;
    case OpKind::kUnnest:
      os << (outer_ ? "outerunnest{" : "unnest{") << DottedPath(path_) << " as " << binding_;
      if (pred_) os << " | " << expr(pred_);
      os << "}(" << child(0) << ")";
      break;
    case OpKind::kReduce: {
      os << "reduce{";
      AppendOutputs(os, outputs_, literal);
      if (pred_) os << " | " << expr(pred_);
      os << "}(" << child(0) << ")";
      break;
    }
    case OpKind::kNest: {
      os << "nest{" << expr(group_by_) << " as " << group_name_ << ", ";
      AppendOutputs(os, outputs_, literal);
      if (pred_) os << " | " << expr(pred_);
      os << "}(" << child(0) << ")";
      break;
    }
  }
  return os.str();
}

std::string Operator::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::ostringstream os;
  switch (kind_) {
    case OpKind::kScan: {
      os << pad << "Scan " << dataset_ << " as " << binding_;
      if (!scan_fields_.empty()) {
        os << " fields=[";
        for (size_t i = 0; i < scan_fields_.size(); ++i) {
          if (i) os << ",";
          os << DottedPath(scan_fields_[i]);
        }
        os << "]";
      }
      os << "\n";
      return os.str();
    }
    case OpKind::kCacheScan:
      os << pad << "CacheScan #" << cache_id_ << " as " << binding_ << "\n";
      return os.str();
    case OpKind::kSelect:
      os << pad << "Select " << pred_->ToString() << "\n";
      break;
    case OpKind::kJoin:
      os << pad << (outer_ ? "OuterJoin " : "Join ") << (pred_ ? pred_->ToString() : "true");
      if (left_key_) {
        os << " [hash: " << left_key_->ToString() << " = " << right_key_->ToString() << "]";
      }
      os << "\n";
      break;
    case OpKind::kUnnest:
      os << pad << (outer_ ? "OuterUnnest " : "Unnest ") << DottedPath(path_) << " as "
         << binding_;
      if (pred_) os << " | " << pred_->ToString();
      os << "\n";
      break;
    case OpKind::kReduce: {
      std::ostringstream tmp;
      AppendOutputs(tmp, outputs_);
      os << pad << "Reduce " << tmp.str();
      if (pred_) os << " | " << pred_->ToString();
      os << "\n";
      break;
    }
    case OpKind::kNest: {
      std::ostringstream tmp;
      AppendOutputs(tmp, outputs_);
      os << pad << "Nest by " << group_by_->ToString() << " " << tmp.str();
      if (pred_) os << " | " << pred_->ToString();
      os << "\n";
      break;
    }
  }
  for (const auto& c : children_) os << c->ToString(indent + 1);
  return os.str();
}

}  // namespace proteus
