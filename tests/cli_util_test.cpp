// Tests for the shared tool CLI layer (tools/cli_util.h): the strict
// numeric parsers, the flag table all six mfm_* tools (mfm_lint,
// mfm_faults, mfm_sweep, mfm_opt, mfm_glitch, mfm_serve) declare their
// options in, and the epilogue that picks their exit status.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"

namespace mfm::cli {
namespace {

/// A summary whose only JSON member is "failures":@p n.
Summary failures(std::size_t n, std::vector<std::string> gates = {}) {
  Summary s;
  s.json.field("failures", n);
  s.failures = std::move(gates);
  return s;
}

/// Parses @p arg as the only argument of a tool named "t".
bool parse1(const std::vector<Flag>& t, const std::string& arg) {
  const char* argv[] = {"t", arg.c_str()};
  return parse("t", t, 2, argv);
}

TEST(CliParsers, LongRejectsPartialAndEmpty) {
  long v = -1;
  EXPECT_TRUE(parse_long("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_long("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(parse_long("0x10", v));  // base 0: hex accepted
  EXPECT_EQ(v, 16);
  EXPECT_FALSE(parse_long("", v));
  EXPECT_FALSE(parse_long("12abc", v));
  EXPECT_FALSE(parse_long("abc", v));
  EXPECT_FALSE(parse_long("1O0", v));  // letter O, the motivating typo
  EXPECT_FALSE(parse_long("999999999999999999999999", v));  // ERANGE
}

TEST(CliParsers, U64AndDoubleRejectTrailingGarbage) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("0xFA", u));
  EXPECT_EQ(u, 0xFAu);
  EXPECT_FALSE(parse_u64("0xFAZ", u));
  EXPECT_FALSE(parse_u64("", u));
  EXPECT_FALSE(parse_u64("-1", u));  // strtoull would wrap it to 2^64-1
  double d = 0.0;
  EXPECT_TRUE(parse_double("1.5", d));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_FALSE(parse_double("1.5x", d));
  EXPECT_FALSE(parse_double("", d));
}

TEST(CliCommon, MatchesJsonOnlyOut) {
  CommonOptions o;
  const auto t = table(o, {});
  EXPECT_TRUE(parse1(t, "--json"));
  EXPECT_TRUE(o.json);
  EXPECT_TRUE(parse1(t, "--only=mult8,fpadd-b32"));
  EXPECT_EQ(o.only, "mult8,fpadd-b32");
  EXPECT_TRUE(parse1(t, "--out=/tmp/x.json"));
  EXPECT_EQ(o.out, "/tmp/x.json");
}

TEST(CliCommon, UnknownArgumentsFallThrough) {
  // A common row matches only its own name: "--fail-on=error" reaches
  // the tool's own row, and an argument no row names is a usage error.
  enum class Severity { kError, kWarning };
  CommonOptions o;
  Severity fail_on = Severity::kWarning;
  const auto t = table(o, {flag("--fail-on", fail_on,
                                {{"error", Severity::kError},
                                 {"warning", Severity::kWarning}})});
  EXPECT_TRUE(parse1(t, "--fail-on=error"));
  EXPECT_EQ(fail_on, Severity::kError);
  EXPECT_FALSE(parse1(t, "--jsonx"));
  EXPECT_FALSE(parse1(t, "stray"));
  EXPECT_FALSE(o.json);
}

TEST(CliCommon, SeedParsesStrictly) {
  CommonOptions o;
  std::uint64_t seed = 0x5EE9;  // tool default must survive a non-seed arg
  const auto t = table(o, {flag("--seed", "S", seed)});
  EXPECT_TRUE(parse1(t, "--json"));
  EXPECT_EQ(seed, 0x5EE9u);
  EXPECT_TRUE(parse1(t, "--seed=0xBEEF"));
  EXPECT_EQ(seed, 0xBEEFu);
  EXPECT_FALSE(parse1(t, "--seed=nope"));
  EXPECT_FALSE(parse1(t, "--seed="));
  EXPECT_EQ(seed, 0xBEEFu);
}

TEST(CliCommon, SeedRejectedWhenToolHasNoRandomness) {
  // mfm_lint declares no --seed row: --seed must read as an unknown
  // argument (usage error in the tool), not be silently swallowed.
  CommonOptions o;
  EXPECT_FALSE(parse1(table(o, {}), "--seed=1"));
}

TEST(CliCommon, ThreadsAcceptsRangeRejectsGarbage) {
  CommonOptions o;
  const auto t = table(o, {});
  EXPECT_TRUE(parse1(t, "--threads=4"));
  EXPECT_EQ(o.threads, 4);
  EXPECT_TRUE(parse1(t, "--threads=1"));
  EXPECT_EQ(o.threads, 1);
  EXPECT_TRUE(parse1(t, "--threads=" + std::to_string(kMaxThreads)));
  EXPECT_EQ(o.threads, kMaxThreads);
  // All rejected with a diagnostic; the previous good value sticks.
  EXPECT_FALSE(parse1(t, "--threads=0"));
  EXPECT_FALSE(parse1(t, "--threads=-2"));
  EXPECT_FALSE(parse1(t, "--threads=abc"));
  EXPECT_FALSE(parse1(t, "--threads=4x"));
  EXPECT_FALSE(parse1(t, "--threads=" + std::to_string(kMaxThreads + 1)));
  EXPECT_EQ(o.threads, kMaxThreads);
}

TEST(CliCommon, ThreadsAutoMapsToHardwareThreads) {
  CommonOptions o;
  const auto t = table(o, {});
  EXPECT_TRUE(parse1(t, "--threads=auto"));
  const int expected = common::hardware_threads() > kMaxThreads
                           ? kMaxThreads
                           : common::hardware_threads();
  EXPECT_EQ(o.threads, expected);
  EXPECT_GE(o.threads, 1);
  EXPECT_LE(o.threads, kMaxThreads);
  // "auto" is a whole-word keyword, not a prefix family: every
  // near-miss is a strict-parse error, and the good value sticks.
  EXPECT_FALSE(parse1(t, "--threads=aut"));
  EXPECT_FALSE(parse1(t, "--threads=auto1"));
  EXPECT_FALSE(parse1(t, "--threads=AUTO"));
  EXPECT_FALSE(parse1(t, "--threads="));
  EXPECT_EQ(o.threads, expected);
}

TEST(CliCommon, UsageFragmentMentionsEveryCommonOption) {
  CommonOptions o;
  std::uint64_t seed = 0;
  const std::string with_seed =
      usage("t", table(o, {flag("--seed", "S", seed)}));
  for (const char* opt : {"--json", "--only", "--out", "--seed", "--threads"})
    EXPECT_NE(with_seed.find(opt), std::string::npos) << opt;
  const std::string no_seed = usage("t", table(o, {}));
  EXPECT_EQ(no_seed.find("--seed"), std::string::npos);
  EXPECT_NE(no_seed.find("--threads"), std::string::npos);
}

TEST(CliTable, NumberRowsAcceptLoAndHiOnly) {
  int vectors = 64;
  long removed = 0;
  double corr = 0.5;
  double saved = 0.0;
  const std::vector<Flag> t = {
      flag("--vectors", "N", vectors, 2, 1'000'000),
      flag("--min-total-removed", "N", removed, 0,
           std::numeric_limits<long>::max()),
      flag("--min-corr", "F", corr, -1.0, 1.0),
      flag("--min-area-saved", "X", saved, 0.0,
           std::numeric_limits<double>::infinity())};
  EXPECT_TRUE(parse1(t, "--vectors=2"));
  EXPECT_EQ(vectors, 2);
  EXPECT_TRUE(parse1(t, "--vectors=1000000"));
  EXPECT_EQ(vectors, 1'000'000);
  for (const char* bad : {"--vectors=1", "--vectors=1000001", "--vectors=12x",
                          "--vectors=", "--vectors"})
    EXPECT_FALSE(parse1(t, bad)) << bad;
  EXPECT_EQ(vectors, 1'000'000);

  EXPECT_TRUE(parse1(t, "--min-total-removed=0"));
  EXPECT_TRUE(parse1(t, "--min-total-removed=9223372036854775807"));
  EXPECT_EQ(removed, std::numeric_limits<long>::max());
  EXPECT_FALSE(parse1(t, "--min-total-removed=-1"));
  EXPECT_FALSE(parse1(t, "--min-total-removed=9223372036854775808"));

  EXPECT_TRUE(parse1(t, "--min-corr=-1"));
  EXPECT_DOUBLE_EQ(corr, -1.0);
  EXPECT_TRUE(parse1(t, "--min-corr=1"));
  EXPECT_DOUBLE_EQ(corr, 1.0);
  // NaN compares false against both bounds; it must not slip through
  // as a gate that can never fail.
  for (const char* bad :
       {"--min-corr=-1.01", "--min-corr=1.01", "--min-corr=nan",
        "--min-corr=0.5x"})
    EXPECT_FALSE(parse1(t, bad)) << bad;
  EXPECT_DOUBLE_EQ(corr, 1.0);

  EXPECT_TRUE(parse1(t, "--min-area-saved=0"));
  EXPECT_TRUE(parse1(t, "--min-area-saved=1e300"));
  EXPECT_FALSE(parse1(t, "--min-area-saved=-0.001"));
}

TEST(CliTable, NeedTextStatesTheRange) {
  int n = 0;
  long l = 0;
  double d = 0.0;
  EXPECT_EQ(flag("--vectors", "N", n, 2, 1'000'000).need,
            "an integer in [2, 1000000]");
  EXPECT_EQ(flag("--min", "N", l, 0, std::numeric_limits<long>::max()).need,
            "an integer >= 0");
  EXPECT_EQ(flag("--min-corr", "F", d, -1.0, 1.0).need,
            "a number in [-1, 1]");
  EXPECT_EQ(flag("--min-area-saved", "X", d, 0.0,
                 std::numeric_limits<double>::infinity())
                .need,
            "a number >= 0");
}

TEST(CliTable, KeywordRowsAcceptOnlyTheirKeywords) {
  enum class Severity { kError, kWarning };
  Severity fail_on = Severity::kError;
  const std::vector<Flag> t = {flag(
      "--fail-on", fail_on,
      {{"error", Severity::kError}, {"warning", Severity::kWarning}})};
  EXPECT_TRUE(parse1(t, "--fail-on=warning"));
  EXPECT_EQ(fail_on, Severity::kWarning);
  EXPECT_TRUE(parse1(t, "--fail-on=error"));
  EXPECT_EQ(fail_on, Severity::kError);
  for (const char* bad : {"--fail-on=Error", "--fail-on=errors",
                          "--fail-on=", "--fail-on", "--fail-on=1"})
    EXPECT_FALSE(parse1(t, bad)) << bad;
  EXPECT_EQ(fail_on, Severity::kError);
}

TEST(CliTable, BareSwitchRejectsAValue) {
  CommonOptions o;
  bool transient = false;
  const auto t = table(o, {flag("--transient", transient)});
  for (const char* bad : {"--json=1", "--json=", "--transient=true"})
    EXPECT_FALSE(parse1(t, bad)) << bad;
  EXPECT_FALSE(o.json);
  EXPECT_FALSE(transient);
  EXPECT_TRUE(parse1(t, "--transient"));
  EXPECT_TRUE(transient);
}

TEST(CliTable, UsageLineListsEveryRow) {
  enum class Severity { kError, kWarning };
  CommonOptions o;
  Severity fail_on = Severity::kError;
  int vectors = 0;
  bool transient = false;
  const std::string u = usage(
      "mfm_x",
      table(o, {flag("--fail-on", fail_on,
                     {{"error", Severity::kError},
                      {"warning", Severity::kWarning}}),
                flag("--vectors", "N", vectors, 2, 100),
                flag("--transient", transient)}));
  EXPECT_EQ(u,
            "usage: mfm_x [--json] [--only=LIST] [--out=FILE] "
            "[--threads=N|auto] [--fail-on=error|warning] [--vectors=N] "
            "[--transient]");
}

TEST(CliTable, BadValueMessageNamesFlagValueAndRange) {
  int vectors = 64;
  const std::vector<Flag> t = {flag("--vectors", "N", vectors, 2, 1'000'000)};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse1(t, "--vectors=1000001"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "t: bad --vectors value '1000001' (need an integer in "
            "[2, 1000000])\n");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse1(t, "--vector=3"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "usage: t [--vectors=N]\n");
}

TEST(CliFinish, ExitStatusFollowsWriteErrorsAndGates) {
  const std::string path = ::testing::TempDir() + "/cli_finish.json";
  const auto run = [&](const std::vector<std::string>& errored,
                       const Summary& s) {
    netlist::ReportSink sink("t", /*json=*/true, path);
    return finish("t", sink, errored, s);
  };
  EXPECT_EQ(run({}, failures(0)), 0);
  EXPECT_EQ(run({"mf/fp64"}, failures(0)), 1);
  EXPECT_EQ(run({}, failures(1, {"mult8: below gate"})), 1);
  std::remove(path.c_str());

  netlist::ReportSink unopened("t", /*json=*/true, "/nonexistent-dir/x.json");
  ASSERT_FALSE(unopened.ok());
  Summary gate;
  gate.failures = {"gate"};
  EXPECT_EQ(finish("t", unopened, {"mf/fp64"}, gate), 2);
}

TEST(CliFinish, RosterRunGainsTheErrorsField) {
  struct Result {
    std::string rendered;
  };
  const std::string path = ::testing::TempDir() + "/cli_finish_roster.json";
  int rc = -1;
  {
    netlist::ReportSink sink("t", /*json=*/true, path);
    roster::RosterDriver driver(roster::BuildMode::kPipelined, "mult8",
                                /*threads=*/1, /*json=*/true);
    driver.run<Result>(sink, [](const roster::JobContext& ctx) {
      return Result{"{\"unit\":\"" + ctx.job.name + "\"}"};
    });
    rc = finish("t", sink, driver, failures(0));
  }
  EXPECT_EQ(rc, 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n),
            "{\"units\":[{\"unit\":\"mult8\"}],\"failures\":0,\"errors\":0}\n");
}

}  // namespace
}  // namespace mfm::cli
