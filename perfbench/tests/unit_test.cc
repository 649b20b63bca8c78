// Tests of the benchmark's own code: percentiles, ratio printing,
// counter deltas and the trace export.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "metrics.hh"
#include "runner.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace gpufs::perfbench;

namespace {

std::vector<uint32_t>
iota(uint32_t n)
{
    std::vector<uint32_t> v(n);
    for (uint32_t i = 0; i < n; ++i)
        v[i] = i + 1;
    return v;
}

} // namespace

TEST(Percentile, RefusesP99WithFewerThanTenSamplesBeyond)
{
    double v = -1;
    EXPECT_FALSE(percentile(iota(999), 990, &v));
    EXPECT_EQ(v, -1);
    EXPECT_TRUE(percentile(iota(1000), 990, &v));
    EXPECT_EQ(v, 990);   // nearest rank: 10 samples (991..1000) beyond
    EXPECT_EQ(samplesNeeded(990), 1000u);
}

TEST(Percentile, MedianNeedsTwentySamples)
{
    double v = 0;
    EXPECT_FALSE(percentile(iota(19), 500, &v));
    EXPECT_TRUE(percentile(iota(20), 500, &v));
    EXPECT_EQ(v, 10);
    EXPECT_FALSE(percentile(std::vector<uint32_t>{}, 500, &v));
}

TEST(Percentile, FormatStatesSampleCountOrRefusal)
{
    EXPECT_EQ(formatPercentile(iota(1000), 990, 1.0, "us"),
              "p99 990 us (n=1000)");
    EXPECT_EQ(formatPercentile(iota(53), 990, 1.0, "us"),
              "p99 n/a (n=53, needs >= 1000)");
}

TEST(Ratio, PrintedWithItsBase)
{
    EXPECT_EQ((Ratio{415, 500}).str(), "0.8300 (415/500)");
    EXPECT_EQ((Ratio{0, 0}).str(), "0.0000 (0/0)");
    EXPECT_EQ((Ratio{3, 0}).value(), 0.0);
}

TEST(Catalogue, NamesAreUniqueAndSetupIsThere)
{
    std::set<std::string> names;
    bool setup = false;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &s : *list) {
            EXPECT_TRUE(names.insert(s.name).second) << s.name;
            setup = setup || (std::string(s.name) == "setup_s" &&
                              std::string(s.unit) == "s" &&
                              s.better == Better::Lower);
        }
    }
    EXPECT_TRUE(setup);
}

TEST(Trace, ChromeEventsPerGpuAndBlock)
{
    SpanBuffer buf;
    buf.reserve(2);
    buf.add({1000, 3500, 10, 20, 1, Op::Gread, true});
    buf.add({3500, 4000, 30, 40, 1, Op::Gclose, true});
    buf.add({4000, 5000, 50, 60, 1, Op::Gopen, true});
    EXPECT_EQ(buf.spans().size(), 2u);
    EXPECT_EQ(buf.dropped(), 1u);

    std::ostringstream out;
    writeChromeTrace(out, {{1, 2, &buf}});
    std::string s = out.str();
    EXPECT_NE(s.find("\"name\":\"gpu1\""), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"block2\""), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"gread\",\"cat\":\"gpufs.api\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":2,\"ts\":1.000,\"dur\":2.500"),
              std::string::npos);
    EXPECT_EQ(s.find("gopen"), std::string::npos);
}

TEST(Snapshot, DeltaKeepsHighWaterMarksAsLevels)
{
    Snapshot before = {{"fs.cache_hits", 10}, {"max.queue_inflight", 3}};
    Snapshot after = {{"fs.cache_hits", 25}, {"max.queue_inflight", 5},
                      {"daemon.vc_hits", 4}};
    Snapshot d = delta(before, after);
    EXPECT_EQ(d["fs.cache_hits"], 15);
    EXPECT_EQ(d["max.queue_inflight"], 5);
    EXPECT_EQ(d["daemon.vc_hits"], 4);
}
