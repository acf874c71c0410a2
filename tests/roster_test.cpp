// Tests for the shared unit roster (roster/roster.h): the catalog
// enumeration every tool runs, the build-once guarantee of the
// UnitCache under concurrent access, job planning/filtering, and the
// catalog-order determinism of the RosterDriver at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/report.h"
#include "roster/roster.h"

namespace mfm::roster {
namespace {

// The exact unit-name set every tool runs (mfm_lint, mfm_faults,
// mfm_sweep, mfm_opt, mfm_serve, mfm_glitch all plan from plan_jobs(),
// so this IS each tool's roster).  Adding or renaming a catalog entry
// must update this list deliberately -- that is the point: the roster
// can no longer drift per-tool, only change for all of them at once.
const std::vector<std::string> kExpectedJobs = {
    "mult8",
    "radix4-64",
    "radix16-64",
    "mf",
    "mf/int64",
    "mf/fp64",
    "mf/fp32x2",
    "mf/fp32x1",
    "mf-reduce",
    "mf-reduce/int64",
    "mf-reduce/fp64",
    "mf-reduce/fp32x2",
    "mf-reduce/fp32x1",
    "fpmul-b32",
    "fpmul-b64",
    "fpadd-b32",
    "reduce64to32",
};

TEST(RosterCatalog, JobNamesArePinned) {
  EXPECT_EQ(catalog_job_names(), kExpectedJobs);
}

TEST(RosterCatalog, PlanJobsUnfilteredCoversEverything) {
  const std::vector<RosterJob> jobs = plan_jobs("");
  ASSERT_EQ(jobs.size(), kExpectedJobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].name, kExpectedJobs[i]);
    EXPECT_EQ(job_name(catalog()[jobs[i].spec], jobs[i].variant),
              kExpectedJobs[i]);
  }
}

TEST(RosterCatalog, PlanJobsFiltersBySubstring) {
  const auto names = [](const std::vector<RosterJob>& jobs) {
    std::vector<std::string> out;
    for (const RosterJob& j : jobs) out.push_back(j.name);
    return out;
  };
  EXPECT_EQ(names(plan_jobs("mult8")), std::vector<std::string>{"mult8"});
  EXPECT_EQ(names(plan_jobs("fp32x1")),
            (std::vector<std::string>{"mf/fp32x1", "mf-reduce/fp32x1"}));
  // Comma-separated substrings select the union, in catalog order.
  EXPECT_EQ(names(plan_jobs("mult8,reduce64to32")),
            (std::vector<std::string>{"mult8", "reduce64to32"}));
  EXPECT_EQ(names(plan_jobs("reduce64to32,mult8")),
            (std::vector<std::string>{"mult8", "reduce64to32"}));
  EXPECT_TRUE(plan_jobs("no-such-unit").empty());
  // Stray commas are ignored, not treated as match-everything needles.
  EXPECT_EQ(names(plan_jobs(",mult8,")), std::vector<std::string>{"mult8"});
}

TEST(RosterCatalog, SpecIndexRoundTripsAndThrowsOnUnknown) {
  for (std::size_t i = 0; i < catalog().size(); ++i)
    EXPECT_EQ(spec_index(catalog()[i].name), i);
  EXPECT_THROW(spec_index("no-such-unit"), std::out_of_range);
}

TEST(RosterCatalog, MfSpecsDeclareTheFormatVariants) {
  const std::vector<std::string> expected = {"", "int64", "fp64", "fp32x2",
                                             "fp32x1"};
  for (const char* name : {"mf", "mf-reduce"}) {
    const UnitSpec& spec = catalog()[spec_index(name)];
    EXPECT_EQ(spec.variant_names, expected) << name;
    EXPECT_TRUE(spec.mode_sensitive) << name;
  }
  EXPECT_EQ(catalog()[spec_index("mult8")].variant_names,
            std::vector<std::string>{""});
  EXPECT_FALSE(catalog()[spec_index("mult8")].mode_sensitive);
}

TEST(RosterCatalog, MfVariantsCarryPinsAndLaneObligations) {
  UnitCache cache;
  const BuiltUnit& mf = cache.unit(spec_index("mf"), BuildMode::kPipelined);
  ASSERT_EQ(mf.variants.size(), 5u);
  EXPECT_TRUE(mf.variants[0].pins.empty());   // unpinned
  EXPECT_TRUE(mf.variants[0].lanes.empty());
  for (std::size_t v = 1; v < mf.variants.size(); ++v)
    EXPECT_FALSE(mf.variants[v].pins.empty()) << mf.variants[v].name;
  // frmt is 2 bits; fp32x1 additionally pins the upper operand halves.
  EXPECT_EQ(find_variant(mf, "fp64").pins.size(), 2u);
  EXPECT_EQ(find_variant(mf, "fp32x1").pins.size(), 2u + 32u + 32u);
  // Fig. 4 obligations travel with the fp32x2 variant; fp32x1 requires
  // the idle upper lane constant.
  const PinVariant& dual = find_variant(mf, "fp32x2");
  ASSERT_EQ(dual.lanes.size(), 2u);
  EXPECT_FALSE(dual.lanes[0].require_constant);
  const PinVariant& single = find_variant(mf, "fp32x1");
  ASSERT_EQ(single.lanes.size(), 1u);
  EXPECT_TRUE(single.lanes[0].require_constant);
  EXPECT_GT(mf.latency_cycles, 0);  // Fig. 5 pipeline
  EXPECT_THROW(find_variant(mf, "no-such-variant"), std::out_of_range);
}

TEST(RosterCache, BuildsOnceUnderConcurrentAccess) {
  UnitCache cache;
  const std::size_t mult8 = spec_index("mult8");
  constexpr int kThreads = 8;
  std::vector<const BuiltUnit*> units(kThreads, nullptr);
  std::vector<const netlist::CompiledCircuit*> compiled(kThreads, nullptr);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        units[t] = &cache.unit(mult8, BuildMode::kPipelined);
        compiled[t] = &cache.compiled(mult8, BuildMode::kPipelined);
      }
    });
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(units[t], units[0]);
    EXPECT_EQ(compiled[t], compiled[0]);
  }
  EXPECT_EQ(cache.circuit_builds(), 1);
  EXPECT_EQ(cache.compilations(), 1);
  EXPECT_EQ(&compiled[0]->circuit(), units[0]->circuit.get());
}

TEST(RosterCache, ModeInsensitiveSpecsShareOneBuild) {
  UnitCache cache;
  const std::size_t mult8 = spec_index("mult8");
  const BuiltUnit& a = cache.unit(mult8, BuildMode::kPipelined);
  const BuiltUnit& b = cache.unit(mult8, BuildMode::kCombinational);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(cache.circuit_builds(), 1);
}

TEST(RosterCache, ModeSensitiveSpecsBuildPerMode) {
  UnitCache cache;
  const std::size_t mf = spec_index("mf");
  const BuiltUnit& fig5 = cache.unit(mf, BuildMode::kPipelined);
  const BuiltUnit& comb = cache.unit(mf, BuildMode::kCombinational);
  EXPECT_NE(&fig5, &comb);
  EXPECT_EQ(cache.circuit_builds(), 2);
  EXPECT_FALSE(fig5.circuit->flops().empty());
  EXPECT_TRUE(comb.circuit->flops().empty());
  EXPECT_EQ(comb.latency_cycles, 0);
  // Same logic, same interface: both builds expose the same pin count
  // per variant (pins index different net ids, of course).
  for (std::size_t v = 0; v < fig5.variants.size(); ++v)
    EXPECT_EQ(fig5.variants[v].pins.size(), comb.variants[v].pins.size());
}

TEST(RosterCache, RejectsOutOfRangeSpec) {
  UnitCache cache;
  EXPECT_THROW(cache.unit(catalog().size(), BuildMode::kPipelined),
               std::out_of_range);
}

// The driver's determinism contract: identical bytes through the
// ReportSink at any thread count, in catalog order.
TEST(RosterDriver, SinkOutputIsByteIdenticalAcrossThreadCounts) {
  struct Result {
    std::string rendered;
  };
  const std::string only = "mult8,fpadd-b32,reduce64to32";
  auto run = [&](int threads, const std::string& path) {
    netlist::ReportSink sink("roster_test", /*json=*/false, path);
    ASSERT_TRUE(sink.ok());
    RosterDriver driver(BuildMode::kPipelined, only, threads);
    ASSERT_EQ(driver.jobs().size(), 3u);
    driver.run<Result>(sink, [](const JobContext& ctx) {
      // Stand-in for a tool body: derive everything from the context.
      return Result{ctx.job.name + ": " +
                    std::to_string(netlist::gate_count(*ctx.unit.circuit))};
    });
    ASSERT_TRUE(sink.finish());
  };
  const std::string p1 = ::testing::TempDir() + "/roster_t1.txt";
  const std::string p4 = ::testing::TempDir() + "/roster_t4.txt";
  run(1, p1);
  run(4, p4);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string out1 = slurp(p1);
  EXPECT_EQ(out1, slurp(p4));
  // Catalog order survives the thread fan-out.
  EXPECT_LT(out1.find("mult8"), out1.find("fpadd-b32"));
  EXPECT_LT(out1.find("fpadd-b32"), out1.find("reduce64to32"));
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The fail-soft contract: one throwing job must not cost the sibling
// reports.  MFM_ROSTER_FAIL is the same injection hook CI's forced-throw
// gate uses against the real tools.
TEST(RosterDriver, FailSoftKeepsSiblingReportsAndRecordsTheError) {
  struct Result {
    std::string rendered;
  };
  setenv("MFM_ROSTER_FAIL", "fpadd-b32", 1);
  const std::string path = ::testing::TempDir() + "/roster_failsoft.json";
  std::vector<std::string> failed;
  {
    netlist::ReportSink sink("roster_test", /*json=*/true, path);
    ASSERT_TRUE(sink.ok());
    RosterDriver driver(BuildMode::kPipelined,
                        "mult8,fpadd-b32,reduce64to32", /*threads=*/2,
                        /*json=*/true);
    ASSERT_EQ(driver.jobs().size(), 3u);
    const auto results =
        driver.run<Result>(sink, [](const JobContext& ctx) {
          return Result{"{\"unit\":\"" + ctx.job.name + "\",\"ok\":true}"};
        });
    ASSERT_TRUE(sink.finish());

    // The failed job returns no result; siblings are intact, in order.
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].job->name, "mult8");
    EXPECT_EQ(results[1].job->name, "reduce64to32");
    EXPECT_FALSE(results[0].result.rendered.empty());
    EXPECT_FALSE(results[1].result.rendered.empty());
    ASSERT_EQ(driver.job_errors().size(), 3u);
    EXPECT_TRUE(driver.job_errors()[0].empty());
    EXPECT_NE(driver.job_errors()[1].find("injected failure"),
              std::string::npos);
    EXPECT_TRUE(driver.job_errors()[2].empty());
    failed = driver.failed_jobs();
  }
  unsetenv("MFM_ROSTER_FAIL");

  EXPECT_EQ(failed, std::vector<std::string>{"fpadd-b32"});
  const std::string out = slurp_file(path);
  // All three units appear, in catalog order, with the failed job's
  // slot holding a well-formed error record.
  EXPECT_NE(out.find("\"unit\":\"mult8\""), std::string::npos);
  EXPECT_NE(out.find("\"unit\":\"fpadd-b32\""), std::string::npos);
  EXPECT_NE(out.find("\"unit\":\"reduce64to32\""), std::string::npos);
  EXPECT_NE(out.find("\"error\":\"injected failure"), std::string::npos);
  EXPECT_LT(out.find("mult8"), out.find("fpadd-b32"));
  EXPECT_LT(out.find("fpadd-b32"), out.find("reduce64to32"));
  std::remove(path.c_str());
}

TEST(RosterDriver, FailSoftSurvivesEveryJobThrowing) {
  struct Result {
    std::string rendered;
  };
  setenv("MFM_ROSTER_FAIL", "mf", 1);  // matches all 10 mf* jobs
  const std::string path = ::testing::TempDir() + "/roster_allfail.txt";
  {
    netlist::ReportSink sink("roster_test", /*json=*/false, path);
    RosterDriver driver(BuildMode::kPipelined, "mf", /*threads=*/4,
                        /*json=*/false);
    ASSERT_EQ(driver.jobs().size(), 10u);
    const auto results = driver.run<Result>(
        sink, [](const JobContext& ctx) { return Result{ctx.job.name}; });
    sink.finish();
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(driver.failed_jobs().size(), 10u);
  }
  unsetenv("MFM_ROSTER_FAIL");
  std::remove(path.c_str());
}

TEST(RosterDriver, RenderJobErrorMatchesBothSinkModes) {
  EXPECT_EQ(render_job_error("mf/fp64", "boom", /*json=*/true),
            "{\"unit\":\"mf/fp64\",\"error\":\"boom\"}");
  const std::string text =
      render_job_error("mf/fp64", "boom", /*json=*/false);
  EXPECT_NE(text.find("mf/fp64"), std::string::npos);
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
  // Messages with JSON metacharacters stay well-formed when escaped.
  const std::string esc =
      render_job_error("u", "say \"hi\"\nbye", /*json=*/true);
  EXPECT_EQ(esc.find('\n'), std::string::npos);
  EXPECT_NE(esc.find("\\\"hi\\\""), std::string::npos);
}

}  // namespace
}  // namespace mfm::roster
