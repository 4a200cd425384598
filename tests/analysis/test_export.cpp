// Unit tests for CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/export.hpp"
#include "util/strings.hpp"
#include "temp_dir.hpp"

namespace dnsctx::analysis {
namespace {

TEST(ExportCsv, CdfSeriesIsMonotone) {
  Cdf cdf;
  for (int i = 0; i < 1'000; ++i) cdf.add(i * 0.37);
  std::stringstream ss;
  write_cdf_csv(ss, cdf, "delay_ms", 50);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "delay_ms,cdf");
  double prev_x = -1e300, prev_f = -1.0;
  std::size_t rows = 0;
  while (std::getline(ss, line)) {
    const auto fields = split(line, ',');
    ASSERT_EQ(fields.size(), 2u);
    const double x = std::stod(std::string{fields[0]});
    const double f = std::stod(std::string{fields[1]});
    EXPECT_GE(x, prev_x);
    EXPECT_GT(f, prev_f);
    prev_x = x;
    prev_f = f;
    ++rows;
  }
  EXPECT_EQ(rows, 51u);
  EXPECT_DOUBLE_EQ(prev_f, 1.0);
}

TEST(ExportCsv, EmptyCdfIsHeaderOnly) {
  std::stringstream ss;
  write_cdf_csv(ss, Cdf{}, "x");
  EXPECT_EQ(ss.str(), "x,cdf\n");
}

TEST(ExportCsv, Table2SharesSumToOne) {
  Study study;
  study.classified.counts.n = 10;
  study.classified.counts.lc = 40;
  study.classified.counts.p = 10;
  study.classified.counts.sc = 25;
  study.classified.counts.r = 15;
  std::stringstream ss;
  write_table2_csv(ss, study);
  std::string line;
  std::getline(ss, line);  // header
  double total = 0.0;
  while (std::getline(ss, line)) {
    const auto fields = split(line, ',');
    total += std::stod(std::string{fields[2]});
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ExportCsv, Table1Rows) {
  Study study;
  Table1Row row;
  row.platform = "Local";
  row.pct_houses = 92.4;
  row.pct_lookups = 72.8;
  row.lookups = 123;
  study.table1.push_back(row);
  std::stringstream ss;
  write_table1_csv(ss, study);
  EXPECT_NE(ss.str().find("Local,92.40,72.80"), std::string::npos);
  EXPECT_NE(ss.str().find(",123"), std::string::npos);
}

TEST(ExportCsv, ExportStudyWritesFiles) {
  Study study;
  study.blocking.gap_ms.add(1.0);
  study.blocking.gap_ms.add(100.0);
  study.performance.lookup_ms_all.add(2.0);
  study.performance.contrib_all.add(1.0);
  PlatformPerf perf;
  perf.platform = "Local";
  perf.r_lookup_ms.add(30.0);
  perf.throughput_bps.add(1'000.0);
  study.platforms.push_back(std::move(perf));

  const testutil::TempDir tmp{"dnsctx_export"};
  const std::string dir = tmp.path().string();
  const auto files = export_study_csv(study, dir);
  EXPECT_GE(files, 10u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/fig1_gap_cdf.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/fig3_rlookup_local.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/table2.csv"));
}

TEST(ExportCsv, BadDirectoryThrows) {
  const Study study;
  EXPECT_THROW((void)export_study_csv(study, "/nonexistent/path/here"), std::runtime_error);
}

}  // namespace
}  // namespace dnsctx::analysis
