// A miniature of the paper's Symantec workload (§7.2): fresh JSON and CSV
// batches plus a binary history table, queried together with adaptive
// caching enabled. Watch the second JSON-touching query get served from the
// binary caches the first one built as a side-effect.
#include <cstdio>

#include "src/core/query_engine.h"
#include "src/datagen/spam.h"
#include "src/storage/bincol_format.h"
#include "src/storage/text_writers.h"

using namespace proteus;

int main() {
  // Generate one "batch" of the three silos.
  RowTable spam_json = datagen::GenSpamJSON(5000);
  RowTable spam_csv = datagen::GenSpamCSV(5000);
  RowTable spam_bin = datagen::GenSpamBinary(5000);
  JSONWriteOptions shuffle;
  shuffle.shuffle_field_order = true;  // spam-trap JSON has arbitrary order
  Status s = WriteJSONFile("/tmp/spam_batch.json", spam_json, shuffle);
  if (s.ok()) s = WriteCSVFile("/tmp/spam_batch.csv", spam_csv);
  if (s.ok()) s = WriteBinaryColumnDir("/tmp/spam_history.bincol", spam_bin);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  EngineOptions opts;
  opts.cache_policy.enabled = true;  // the paper's adaptive caching
  QueryEngine engine(opts);
  auto reg = [&](DatasetInfo info) {
    Status st = engine.RegisterDataset(std::move(info));
    if (!st.ok()) {
      fprintf(stderr, "%s\n", st.ToString().c_str());
      exit(1);
    }
  };
  reg({.name = "mails", .format = DataFormat::kJSON, .path = "/tmp/spam_batch.json",
       .type = datagen::SpamJSONSchema()});
  reg({.name = "classes", .format = DataFormat::kCSV, .path = "/tmp/spam_batch.csv",
       .type = datagen::SpamCSVSchema()});
  reg({.name = "history", .format = DataFormat::kBinaryColumn,
       .path = "/tmp/spam_history.bincol", .type = datagen::SpamBinarySchema()});

  auto run = [&](const char* label, const std::string& q) {
    QueryTelemetry t;
    auto r = engine.Execute(q, {.telemetry = &t});
    if (!r.ok()) {
      fprintf(stderr, "%s: %s\n", label, r.status().ToString().c_str());
      exit(1);
    }
    printf("%-28s exec %7.2f ms  cache-build %7.2f ms  %s%s%s\n", label, t.execute_ms,
           t.cache_build_ms, t.used_cache ? "[served from cache] " : "",
           t.used_jit ? "[generated engine]" : "[interpreted]",
           t.fallback_reason.empty() ? "" : (" (" + t.fallback_reason + ")").c_str());
    printf("    -> %s", r->ToString(3).c_str());
  };

  printf("== spam analysis over JSON + CSV + binary, caching on ==\n\n");
  run("Q1 json selection (cold)",
      "SELECT count(*), max(score) FROM mails WHERE body_len > 2000");
  run("Q2 json selection (cached)",
      "SELECT count(*), min(score) FROM mails WHERE body_len > 4000");
  run("Q3 unnest spam classes",
      "for { m <- mails, k <- m.classes, k.label > 24 } yield count");
  run("Q4 csv group by label",
      "SELECT label, count(*) FROM classes GROUP BY label");
  run("Q5 json x csv x binary",
      "SELECT count(*) FROM history h JOIN classes c ON h.mail_id = c.mail_id "
      "JOIN mails m ON c.mail_id = m.mail_id "
      "WHERE h.spam_score > 0.5 and c.score_a > 0.5 and m.body_len > 1000");

  printf("\ncaches: %zu blocks, %zu bytes (built as a side-effect of Q1/Q4)\n",
         engine.caches().num_blocks(), engine.caches().total_bytes());
  return 0;
}
