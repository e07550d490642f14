// News service protected by the *update-rate* scheme (paper section 3):
// breaking stories change every few minutes (cheap to read), the
// archive never changes (expensive to read) -- so a scraped copy of the
// site is guaranteed to be substantially stale by the time the scrape
// finishes, even though reader traffic is spread evenly.

#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/staleness.h"
#include "common/clock.h"
#include "core/protected_db.h"
#include "sim/adversary.h"
#include "workload/mixed_workload.h"

using namespace tarpit;

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tarpit_news_example";
  fs::remove_all(dir);
  fs::create_directories(dir);

  VirtualClock clock;
  ProtectedDatabaseOptions options;
  options.mode = DelayMode::kUpdateRate;
  options.update.c = 2.0;
  options.update.bounds = {0.0, 10.0};
  // Readers are independent: one reader's stall must not advance the
  // shared timeline (that would inflate the update-rate observation
  // window). Delays are accounted, not slept.
  options.defer_delay_sleep = true;
  auto pdb =
      ProtectedDatabase::Open(dir.string(), "articles", &clock, options);
  if (!pdb.ok()) return 1;
  ProtectedDatabase& db = **pdb;

  (void)db.ExecuteSql("CREATE TABLE articles (id INT PRIMARY KEY, "
                      "headline TEXT, body TEXT)");
  const int kArticles = 1'000;
  for (int i = 1; i <= kArticles; ++i) {
    (void)db.BulkLoadRow({Value(static_cast<int64_t>(i)),
                          Value("Headline #" + std::to_string(i)),
                          Value("...")});
  }
  // A newsroom day: uniform readers, Zipf(1.2) editors (breaking
  // stories get edited constantly, the archive never).
  MixedWorkloadConfig workload;
  workload.n = kArticles;
  workload.queries_per_second = 20.0;
  workload.updates_per_second = 5.0;
  workload.query_alpha = 1.0;   // Readers gravitate to the news.
  workload.update_alpha = 1.5;  // Editors concentrate on breaking it.
  workload.duration_seconds = 4 * 3600.0;  // Four hours of operation.
  auto events = GenerateMixedWorkload(workload);

  QuantileSketch reader_delays;
  uint64_t reads = 0, writes = 0;
  for (const MixedEvent& event : events) {
    clock.AdvanceToMicros(
        static_cast<int64_t>(event.time_seconds * 1e6));
    const std::string key = std::to_string(event.key);
    if (event.is_update) {
      (void)db.ExecuteSql(
          "UPDATE articles SET body = 'rev' WHERE id = " + key);
      ++writes;
    } else {
      auto r = db.ExecuteSql("SELECT headline FROM articles WHERE id = " +
                             key);
      if (r.ok()) reader_delays.Add(r->delay_seconds);
      ++reads;
    }
  }
  std::printf("Newsroom day: %llu reads, %llu edits over %.0f h.\n",
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(writes),
              workload.duration_seconds / 3600);
  std::printf("Reader delays: median %.1f ms, p99 %.2f s.\n",
              reader_delays.Median() * 1e3,
              reader_delays.Quantile(0.99));

  // A scraper now pulls every article.
  ExtractionReport scrape =
      RunSequentialExtraction(db.policy(), kArticles);
  std::printf("\nScraping all %d articles costs %.2f hours of delay.\n",
              kArticles, scrape.total_delay_seconds / 3600);

  // How much of the scrape is stale on arrival? Use the true editorial
  // rates learned this day.
  std::vector<double> rates(kArticles);
  const double elapsed = clock.NowSeconds();
  for (int i = 1; i <= kArticles; ++i) {
    rates[i - 1] = db.update_tracker()->Count(i) / elapsed;
  }
  const double stale = ExpectedStaleFractionPoisson(
      rates, scrape.completion_times, scrape.total_delay_seconds);
  std::printf("Expected stale fraction of the scraped copy: %.0f%%.\n",
              stale * 100);
  std::printf("(The busiest stories -- the ones worth stealing -- have "
              "long since moved on.)\n");

  fs::remove_all(dir);
  return 0;
}
