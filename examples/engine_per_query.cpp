// "An engine per query" (§5.1): shows the LLVM IR Proteus generates for the
// paper's Figure 3 query — SELECT COUNT(*) FROM A WHERE e — a single tight
// while-loop with the selection as an if-block, no operator boundaries.
#include <cstdio>
#include <fstream>

#include "src/core/query_engine.h"
#include "src/datagen/tpch.h"
#include "src/storage/bincol_format.h"

using namespace proteus;

int main() {
  RowTable lineitem = datagen::GenLineitem(1000);
  Status s = WriteBinaryColumnDir("/tmp/epq_lineitem.bincol", lineitem);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  QueryEngine engine;
  s = engine.RegisterDataset({.name = "lineitem",
                              .format = DataFormat::kBinaryColumn,
                              .path = "/tmp/epq_lineitem.bincol",
                              .type = datagen::LineitemSchema()});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // The query's telemetry and generated IR come back through CallOptions.
  QueryTelemetry tel;
  std::string ir;
  auto result = engine.Execute(
      "SELECT count(*) FROM lineitem WHERE l_quantity < 25.0 and l_discount < 0.05",
      {.telemetry = &tel, .ir = &ir});
  if (!result.ok()) {
    fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  printf("count = %s\n\n", result->scalar().ToString().c_str());
  printf("physical plan:\n%s\n", tel.plan.c_str());
  printf("generated LLVM IR (the 'engine' built for this one query):\n\n%s\n", ir.c_str());
  printf("codegen + compile: %.1f ms (paper: at most ~50 ms per query)\n", tel.compile_ms);
  return 0;
}
