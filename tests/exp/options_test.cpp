// Tests for expt::Options command-line parsing — especially the strict
// unknown-flag and bad-value rejection (parse records the error; callers
// exit 2).  Parse-only: nothing here starts a thread.
#include "exp/options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

expt::Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  expt::Options opt;
  opt.parse(static_cast<int>(args.size()),
            const_cast<char**>(args.data()));
  return opt;
}

TEST(Options, ParsesKnownFlags) {
  const expt::Options opt =
      parse({"--scale=0.5", "--check", "--csv", "--seed=7", "-j", "4",
             "--repeat=2", "--golden=g.txt", "--policy=sync_full",
             "--audit"});
  EXPECT_TRUE(opt.error.empty());
  EXPECT_DOUBLE_EQ(opt.scale, 0.5);
  EXPECT_TRUE(opt.scale_given);
  EXPECT_TRUE(opt.check);
  EXPECT_TRUE(opt.csv);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.repeat, 2);
  EXPECT_EQ(opt.golden, "g.txt");
  EXPECT_EQ(opt.policy, "sync_full");
  EXPECT_TRUE(opt.audit);
}

TEST(Options, AuditDefaultsOff) {
  const expt::Options opt = parse({"--check"});
  EXPECT_FALSE(opt.audit);
}

TEST(Options, RejectsUnknownLongFlag) {
  const expt::Options opt = parse({"--check", "--no-such-flag"});
  ASSERT_FALSE(opt.error.empty());
  // The message names the offending flag and lists the valid ones.
  EXPECT_NE(opt.error.find("--no-such-flag"), std::string::npos);
  EXPECT_NE(opt.error.find("--scale=X"), std::string::npos);
  EXPECT_NE(opt.error.find("--golden=PATH"), std::string::npos);
  // Flags before the bad one still took effect.
  EXPECT_TRUE(opt.check);
}

TEST(Options, RejectsUnknownShortFlag) {
  const expt::Options opt = parse({"-x"});
  ASSERT_FALSE(opt.error.empty());
  EXPECT_NE(opt.error.find("'-x'"), std::string::npos);
}

TEST(Options, FirstUnknownFlagWins) {
  const expt::Options opt = parse({"--bad-one", "--bad-two"});
  EXPECT_NE(opt.error.find("--bad-one"), std::string::npos);
  EXPECT_EQ(opt.error.find("--bad-two"), std::string::npos);
}

TEST(Options, PositionalsAreNotFlags) {
  // Scenario names (and the `run` subcommand) pass through untouched.
  const expt::Options opt = parse({"run", "fig1", "platform_queueing"});
  EXPECT_TRUE(opt.error.empty());
}

TEST(Options, JValueTokenIsNotAPositionalOrError) {
  const expt::Options opt = parse({"-j", "8", "fig1"});
  EXPECT_TRUE(opt.error.empty());
  EXPECT_EQ(opt.jobs, 8);
  const expt::Options glued = parse({"-j8"});
  EXPECT_TRUE(glued.error.empty());
  EXPECT_EQ(glued.jobs, 8);
}

TEST(Options, MisspelledKnownFlagIsRejected) {
  const expt::Options opt = parse({"--scale", "0.5"});  // missing '='
  ASSERT_FALSE(opt.error.empty());
  EXPECT_NE(opt.error.find("'--scale'"), std::string::npos);
}

TEST(Options, RejectsMalformedScale) {
  for (const char* bad : {"--scale=abc", "--scale=", "--scale=0",
                          "--scale=-1", "--scale=0.5x", "--scale=inf",
                          "--scale=nan", "--scale=1e999"}) {
    const expt::Options opt = parse({bad});
    ASSERT_FALSE(opt.error.empty()) << bad;
    // The message names the flag and echoes the bad value.
    EXPECT_NE(opt.error.find("--scale"), std::string::npos) << bad;
    EXPECT_NE(opt.error.find(std::string("'") + (bad + 8) + "'"),
              std::string::npos)
        << bad;
  }
  EXPECT_TRUE(parse({"--scale=1e-3"}).error.empty());
}

TEST(Options, RejectsMalformedSeed) {
  for (const char* bad : {"--seed=xyz", "--seed=", "--seed=-1",
                          "--seed=+1", "--seed= 7", "--seed=7x",
                          "--seed=99999999999999999999999"}) {
    const expt::Options opt = parse({bad});
    ASSERT_FALSE(opt.error.empty()) << bad;
    EXPECT_NE(opt.error.find("--seed"), std::string::npos) << bad;
  }
  const expt::Options opt = parse({"--seed=18446744073709551615"});
  EXPECT_TRUE(opt.error.empty());
  EXPECT_EQ(opt.seed, 18446744073709551615u);
}

TEST(Options, RejectsMalformedCounts) {
  struct Case {
    std::vector<const char*> args;
    const char* value;  // what the message must echo
  };
  const std::vector<Case> cases = {
      {{"-j", "abc"}, "abc"},      {{"-jabc"}, "abc"},
      {{"-j", "0"}, "0"},          {{"--jobs=0"}, "0"},
      {{"--jobs=-3"}, "-3"},       {{"--jobs=2x"}, "2x"},
      {{"--jobs="}, ""},           {{"--repeat=-2"}, "-2"},
      {{"--repeat=0"}, "0"},       {{"--repeat=two"}, "two"},
      {{"--repeat=1.5"}, "1.5"},   {{"--jobs=99999999999"}, "99999999999"}};
  for (const Case& c : cases) {
    const expt::Options opt = parse(c.args);
    ASSERT_FALSE(opt.error.empty()) << c.args.back();
    EXPECT_NE(opt.error.find(std::string("'") + c.value + "'"),
              std::string::npos)
        << opt.error;
  }
}

TEST(Options, BadValueErrorIsTheFirstOne) {
  const expt::Options opt = parse({"--repeat=0", "--no-such-flag"});
  EXPECT_NE(opt.error.find("--repeat"), std::string::npos);
  EXPECT_EQ(opt.error.find("--no-such-flag"), std::string::npos);
}

}  // namespace
