// The paper's running example (§3, Example 3.1): sailors with nested
// children, ships with nested personnel arrays — "for each sailor, return
// his id, the name of the ship on which he works, and the names of his
// adult children". The query uses the monoid comprehension syntax and
// exercises two Unnest operators plus a join, over JSON documents.
#include <cstdio>
#include <fstream>

#include "src/core/query_engine.h"

using namespace proteus;

int main() {
  {
    std::ofstream sailors("/tmp/sailors.json");
    sailors
        << R"({"id":1,"name":"yossarian","children":[{"name":"nately","age":21},{"name":"orr","age":15}]})"
        << "\n"
        << R"({"id":2,"name":"ahab","children":[{"name":"ishmael","age":30}]})" << "\n"
        << R"({"id":3,"name":"flint","children":[]})" << "\n";
    std::ofstream ships("/tmp/ships.json");
    ships << R"({"name":"pequod","personnel":[2,3]})" << "\n"
          << R"({"name":"caine","personnel":[1]})" << "\n";
  }

  QueryEngine engine;
  TypePtr child = Type::Record({{"name", Type::String()}, {"age", Type::Int64()}});
  Status s = engine.RegisterDataset(
      {.name = "sailors",
       .format = DataFormat::kJSON,
       .path = "/tmp/sailors.json",
       .type = Type::BagOfRecords(
           {{"id", Type::Int64()},
            {"name", Type::String()},
            {"children", Type::Collection(CollectionKind::kArray, child)}})});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = engine.RegisterDataset(
      {.name = "ships",
       .format = DataFormat::kJSON,
       .path = "/tmp/ships.json",
       .type = Type::BagOfRecords(
           {{"name", Type::String()},
            {"personnel", Type::Collection(CollectionKind::kArray, Type::Int64())}})});
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Example 3.1, adjusted to this schema: personnel holds sailor ids.
  const char* query =
      "for { s1 <- sailors, c <- s1.children, s2 <- ships, p <- s2.personnel, "
      "      s1.id = p, c.age > 18 } "
      "yield bag <id: s1.id, ship: s2.name, child: c.name>";

  QueryTelemetry tel;
  auto result = engine.Execute(query, {.telemetry = &tel});
  if (!result.ok()) {
    fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  printf("query:\n  %s\n\nresult:\n%s\n", query, result->ToString().c_str());
  printf("physical plan (note the two Unnest operators of Fig 1):\n%s\n", tel.plan.c_str());
  if (!tel.fallback_reason.empty()) {
    printf("(interpreted: %s)\n", tel.fallback_reason.c_str());
  }
  return 0;
}
