#include "src/engine/partial_sink.h"

#include "src/common/counters.h"
#include "src/obs/trace.h"

namespace proteus {

Status GroupTable::AddRow(const Operator& op, const EvalEnv& row) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(op.pred(), row));
  if (!pass) return Status::OK();
  PROTEUS_ASSIGN_OR_RETURN(Value key, Eval(op.group_by(), row));
  size_t group = FindOrAdd(op, std::move(key));
  for (size_t i = 0; i < op.outputs().size(); ++i) {
    const AggOutput& o = op.outputs()[i];
    if (o.monoid == Monoid::kCount) {
      aggs[group][i].Add(Value::Int(1));
    } else {
      PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(o.expr, row));
      aggs[group][i].Add(v);
    }
  }
  return Status::OK();
}

void GroupTable::MergeFrom(const Operator& op, GroupTable&& other) {
  for (size_t g = 0; g < other.keys.size(); ++g) {
    size_t group = FindOrAdd(op, std::move(other.keys[g]));
    for (size_t i = 0; i < aggs[group].size(); ++i) {
      aggs[group][i].Merge(std::move(other.aggs[g][i]));
    }
  }
}

Value GroupTable::GroupRecord(const Operator& op, size_t g) const {
  std::vector<std::string> names{op.group_name()};
  std::vector<Value> values{keys[g]};
  for (size_t i = 0; i < op.outputs().size(); ++i) {
    names.push_back(op.outputs()[i].name);
    values.push_back(aggs[g][i].Final());
  }
  return Value::MakeRecord(std::move(names), std::move(values));
}

void GroupTable::Serialize(WireWriter* w) const {
  w->PutU64(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    w->PutValue(keys[g]);
    w->PutU64(aggs[g].size());
    for (const Aggregator& a : aggs[g]) a.Serialize(w);
  }
}

Result<GroupTable> GroupTable::Deserialize(WireReader* r) {
  GroupTable t;
  t.count_bytes = false;  // deserialized partials never re-count group bytes
  PROTEUS_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  if (n > r->remaining()) return Status::InvalidArgument("wire: bad group count");
  t.keys.reserve(n);
  t.aggs.reserve(n);
  for (uint64_t g = 0; g < n; ++g) {
    PROTEUS_ASSIGN_OR_RETURN(Value key, r->ReadValue());
    t.index[key.Hash()].push_back(t.keys.size());
    t.keys.push_back(std::move(key));
    PROTEUS_ASSIGN_OR_RETURN(uint64_t na, r->U64());
    if (na > r->remaining()) return Status::InvalidArgument("wire: bad aggregate count");
    t.aggs.emplace_back();
    t.aggs.back().reserve(na);
    for (uint64_t i = 0; i < na; ++i) {
      PROTEUS_ASSIGN_OR_RETURN(Aggregator a, Aggregator::Deserialize(r));
      t.aggs.back().push_back(std::move(a));
    }
  }
  return t;
}

size_t GroupTable::FindOrAdd(const Operator& op, Value key) {
  uint64_t h = key.Hash();
  for (size_t g : index[h]) {
    if (keys[g].Equals(key)) return g;
  }
  size_t group = keys.size();
  keys.push_back(std::move(key));
  index[h].push_back(group);
  aggs.emplace_back();
  for (const auto& o : op.outputs()) aggs.back().emplace_back(o.monoid);
  if (count_bytes) GlobalCounters().bytes_materialized += 48;
  return group;
}

const std::string& NestBinding(const Operator& op) {
  static const std::string kDefault = "$group";
  return op.binding().empty() ? kDefault : op.binding();
}

Status AccumulateReduceRow(const Operator& reduce, const EvalEnv& row,
                           std::vector<Aggregator>* aggs) {
  PROTEUS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(reduce.pred(), row));
  if (!pass) return Status::OK();
  const auto& outputs = reduce.outputs();
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].monoid == Monoid::kCount) {
      (*aggs)[i].Add(Value::Int(1));
    } else {
      PROTEUS_ASSIGN_OR_RETURN(Value v, Eval(outputs[i].expr, row));
      (*aggs)[i].Add(v);
    }
  }
  return Status::OK();
}

std::vector<Aggregator> MakeReduceAggs(const Operator& reduce) {
  std::vector<Aggregator> aggs;
  aggs.reserve(reduce.outputs().size());
  for (const auto& o : reduce.outputs()) aggs.emplace_back(o.monoid);
  return aggs;
}

QueryResult FinalizeReduce(const Operator& reduce, std::vector<Aggregator>& aggs) {
  const auto& outputs = reduce.outputs();
  QueryResult result;
  // A single collection output of records unfolds into a row set. Its
  // columns come from the plan, not from a first row, so an empty answer
  // names the same columns as a full one.
  if (outputs.size() == 1 && IsCollectionMonoid(outputs[0].monoid)) {
    Value collected = aggs[0].Final();
    const ValueList& items = collected.list();
    const ExprPtr& head = outputs[0].expr;
    const TypePtr& type = head->type();
    if (head->kind() == ExprKind::kRecordCons) {
      result.columns = head->record_names();
      for (const auto& item : items) result.rows.push_back(item.record().values);
    } else if (type != nullptr && type->kind() == TypeKind::kRecord) {
      // A record yielded whole keeps its source's field order (each JSON
      // object's own), so its cells align to the type's fields by name; a
      // field the record lacks reads as null.
      for (const Field& f : type->fields()) result.columns.push_back(f.name);
      for (const auto& item : items) {
        std::vector<Value>& row = result.rows.emplace_back();
        for (const auto& name : result.columns) {
          Result<Value> cell = item.GetField(name);
          row.push_back(cell.ok() ? std::move(*cell) : Value::Null());
        }
      }
    } else {
      result.columns = {outputs[0].name};
      for (const auto& item : items) result.rows.push_back({item});
    }
    GlobalCounters().tuples_output += result.rows.size();
    return result;
  }
  for (const auto& o : outputs) result.columns.push_back(o.name);
  result.rows.emplace_back();
  for (auto& a : aggs) result.rows[0].push_back(a.Final());
  GlobalCounters().tuples_output += 1;
  return result;
}

void PlanPartials::Append(PlanPartials&& other) {
  nest = nest || other.nest;
  for (auto& m : other.agg_morsels) agg_morsels.push_back(std::move(m));
  for (auto& m : other.group_morsels) group_morsels.push_back(std::move(m));
}

Result<QueryResult> FinalizePlanPartials(const Operator& reduce, const Operator* nest,
                                         PlanPartials&& partials,
                                         obs::TraceRecorder* trace) {
  OBS_SPAN(trace, "partial_merge", "morsels",
           static_cast<int64_t>(partials.num_morsels()));
  if (partials.num_morsels() == 0) {
    return Status::Internal("FinalizePlanPartials requires at least one morsel partial");
  }
  if (nest != nullptr) {
    GroupTable merged = std::move(partials.group_morsels[0]);
    for (size_t m = 1; m < partials.group_morsels.size(); ++m) {
      merged.MergeFrom(*nest, std::move(partials.group_morsels[m]));
    }
    // Serial-parity materialization estimate: 48 bytes per distinct group.
    GlobalCounters().bytes_materialized += 48 * merged.keys.size();
    // Stream the merged groups through the Reduce root serially (group
    // counts are small next to input cardinalities).
    std::vector<Aggregator> aggs = MakeReduceAggs(reduce);
    for (size_t g = 0; g < merged.keys.size(); ++g) {
      EvalEnv row;
      row[NestBinding(*nest)] = merged.GroupRecord(*nest, g);
      PROTEUS_RETURN_NOT_OK(AccumulateReduceRow(reduce, row, &aggs));
    }
    return FinalizeReduce(reduce, aggs);
  }
  std::vector<Aggregator> aggs = std::move(partials.agg_morsels[0]);
  for (size_t m = 1; m < partials.agg_morsels.size(); ++m) {
    for (size_t i = 0; i < aggs.size(); ++i) aggs[i].Merge(std::move(partials.agg_morsels[m][i]));
  }
  return FinalizeReduce(reduce, aggs);
}

}  // namespace proteus

// ---------------------------------------------------------------------------
// C ABI partial-sink entry points (generated code -> JitMorselSink)
// ---------------------------------------------------------------------------

namespace {

proteus::JitMorselSink* SINK(void* p) { return static_cast<proteus::JitMorselSink*>(p); }

}  // namespace

extern "C" {

void proteus_sink_agg_flush_int(void* sink, uint32_t i, int64_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Int(v));
}

void proteus_sink_agg_flush_double(void* sink, uint32_t i, double v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Float(v));
}

void proteus_sink_agg_flush_bool(void* sink, uint32_t i, int32_t v, int64_t rows) {
  if (rows == 0) return;
  (*SINK(sink)->aggs)[i].LoadScalar(proteus::Value::Boolean(v != 0));
}

void proteus_sink_group_begin_int(void* sink, int64_t key) {
  proteus::JitMorselSink* s = SINK(sink);
  s->cur_group = s->groups->UpsertKey(*s->nest, proteus::Value::Int(key));
}

void proteus_sink_group_begin_double(void* sink, double key) {
  proteus::JitMorselSink* s = SINK(sink);
  // Boxed through the same Value path the interpreter's Nest uses, so float
  // group keys hash and compare by the exact same rules (bit pattern via
  // Value::Hash / Equals) in both engines.
  s->cur_group = s->groups->UpsertKey(*s->nest, proteus::Value::Float(key));
}

void proteus_sink_group_begin_bool(void* sink, int32_t key) {
  proteus::JitMorselSink* s = SINK(sink);
  s->cur_group = s->groups->UpsertKey(*s->nest, proteus::Value::Boolean(key != 0));
}

void proteus_sink_group_begin_str(void* sink, const char* p, int64_t len) {
  proteus::JitMorselSink* s = SINK(sink);
  s->cur_group = s->groups->UpsertKey(
      *s->nest, proteus::Value::Str(std::string(p, static_cast<size_t>(len))));
}

void proteus_sink_group_begin_null(void* sink) {
  proteus::JitMorselSink* s = SINK(sink);
  s->cur_group = s->groups->UpsertKey(*s->nest, proteus::Value::Null());
}

void proteus_sink_group_agg_count(void* sink, uint32_t i) {
  proteus::JitMorselSink* s = SINK(sink);
  s->groups->aggs[s->cur_group][i].Add(proteus::Value::Int(1));
}

void proteus_sink_group_agg_int(void* sink, uint32_t i, int64_t v) {
  proteus::JitMorselSink* s = SINK(sink);
  s->groups->aggs[s->cur_group][i].Add(proteus::Value::Int(v));
}

void proteus_sink_group_agg_double(void* sink, uint32_t i, double v) {
  proteus::JitMorselSink* s = SINK(sink);
  s->groups->aggs[s->cur_group][i].Add(proteus::Value::Float(v));
}

void proteus_sink_group_agg_bool(void* sink, uint32_t i, int32_t v) {
  proteus::JitMorselSink* s = SINK(sink);
  s->groups->aggs[s->cur_group][i].Add(proteus::Value::Boolean(v != 0));
}

void proteus_sink_group_agg_str(void* sink, uint32_t i, const char* p, int64_t len) {
  proteus::JitMorselSink* s = SINK(sink);
  s->groups->aggs[s->cur_group][i].Add(
      proteus::Value::Str(std::string(p, static_cast<size_t>(len))));
}

void proteus_sink_emit_int(void* sink, int64_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Int(v));
}

void proteus_sink_emit_double(void* sink, double v) {
  SINK(sink)->staged.push_back(proteus::Value::Float(v));
}

void proteus_sink_emit_bool(void* sink, int32_t v) {
  SINK(sink)->staged.push_back(proteus::Value::Boolean(v != 0));
}

void proteus_sink_emit_str(void* sink, const char* p, int64_t len) {
  SINK(sink)->staged.push_back(proteus::Value::Str(std::string(p, static_cast<size_t>(len))));
}

void proteus_sink_emit_null(void* sink) {
  SINK(sink)->staged.push_back(proteus::Value::Null());
}

void proteus_sink_join_matched(void* sink, uint32_t table, int64_t row) {
  (*SINK(sink)->matched)[table][static_cast<size_t>(row)] = 1;
}

void proteus_sink_emit_end(void* sink) {
  proteus::JitMorselSink* s = SINK(sink);
  if (s->row_records) {
    (*s->aggs)[0].Add(proteus::Value::MakeRecord(*s->columns, std::move(s->staged)));
  } else {
    (*s->aggs)[0].Add(s->staged[0]);
  }
  s->staged.clear();
}

}  // extern "C"
