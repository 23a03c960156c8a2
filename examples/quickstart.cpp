// Quickstart: register a raw CSV file and a raw JSON file, query both with
// SQL — no loading step, one interface.
//
//   $ ./example_quickstart
#include <cstdio>
#include <fstream>

#include "src/core/query_engine.h"

using namespace proteus;

int main() {
  // 1. Some raw data, exactly as it might arrive from the outside world.
  {
    std::ofstream csv("/tmp/quickstart_employees.csv");
    csv << "1,alice,engineering,98000\n"
           "2,bob,engineering,91000\n"
           "3,carol,sales,85000\n"
           "4,dave,sales,78000\n"
           "5,erin,research,120000\n";
    std::ofstream json("/tmp/quickstart_reviews.json");
    json << R"({"emp_id":1,"year":2025,"rating":4.5})" << "\n"
         << R"({"emp_id":2,"year":2025,"rating":3.9})" << "\n"
         << R"({"emp_id":3,"year":2025,"rating":4.1})" << "\n"
         << R"({"emp_id":5,"year":2025,"rating":4.9})" << "\n";
  }

  // 2. Register the files in situ — Proteus never converts or loads them.
  QueryEngine engine;
  Status s = engine.RegisterDataset(
      {.name = "employees",
       .format = DataFormat::kCSV,
       .path = "/tmp/quickstart_employees.csv",
       .type = Type::BagOfRecords({{"id", Type::Int64()},
                                   {"name", Type::String()},
                                   {"dept", Type::String()},
                                   {"salary", Type::Float64()}})});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = engine.RegisterDataset(
      {.name = "reviews",
       .format = DataFormat::kJSON,
       .path = "/tmp/quickstart_reviews.json",
       .type = Type::BagOfRecords({{"emp_id", Type::Int64()},
                                   {"year", Type::Int64()},
                                   {"rating", Type::Float64()}})});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // 3. Query across both formats with plain SQL. Proteus generates a custom
  //    engine for this exact query (LLVM), joining CSV rows to JSON objects.
  //    The query's own telemetry comes back through CallOptions.
  QueryTelemetry tel;
  auto result = engine.Execute(
      "SELECT count(*), max(r.rating) "
      "FROM employees e JOIN reviews r ON e.id = r.emp_id "
      "WHERE e.salary > 80000.0",
      {.telemetry = &tel});
  if (!result.ok()) {
    fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  printf("reviewed employees earning > 80k, best rating:\n%s\n",
         result->ToString().c_str());
  printf("physical plan:\n%s\n", tel.plan.c_str());
  printf("engine: %s, codegen %.1f ms, execution %.3f ms\n",
         tel.used_jit ? "generated (LLVM)" : "interpreted", tel.compile_ms, tel.execute_ms);
  return 0;
}
