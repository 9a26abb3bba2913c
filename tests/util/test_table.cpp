#include "util/table.hpp"

#include <gtest/gtest.h>

#include "util/ascii_plot.hpp"

namespace onelab::util {
namespace {

TEST(Table, RenderAligned) {
    Table table{{"time", "value"}};
    table.addRow({"1.0", "42"});
    table.addRow({"2.0", "7"});
    const std::string text = table.render();
    EXPECT_NE(text.find("time"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, CsvFormat) {
    Table table{{"a", "b"}};
    table.addRow({"1", "2"});
    EXPECT_EQ(table.csv(), "a,b\n1,2\n");
}

TEST(Table, ShortRowPadsInRender) {
    Table table{{"a", "b", "c"}};
    table.addRow({"only"});
    EXPECT_NO_THROW((void)table.render());
}

TEST(AsciiPlot, EmptyPlot) {
    EXPECT_EQ(renderPlot({}, PlotOptions{}), "(empty plot)\n");
}

TEST(AsciiPlot, SingleSeriesHasGlyphAndLegend) {
    PlotSeries series;
    series.name = "bitrate";
    series.glyph = '*';
    for (int i = 0; i < 50; ++i) series.points.push_back({double(i), double(i % 10)});
    PlotOptions options;
    options.title = "Figure 1";
    options.yLabel = "Kbps";
    const std::string text = renderPlot({series}, options);
    EXPECT_NE(text.find("Figure 1"), std::string::npos);
    EXPECT_NE(text.find('*'), std::string::npos);
    EXPECT_NE(text.find("bitrate"), std::string::npos);
    EXPECT_NE(text.find("Kbps"), std::string::npos);
}

TEST(AsciiPlot, TwoSeriesOverlay) {
    PlotSeries a{"umts", 'u', {{0, 1}, {1, 2}}};
    PlotSeries b{"eth", 'e', {{0, 3}, {1, 4}}};
    PlotOptions options;
    options.width = 40;
    options.height = 10;
    const std::string text = renderPlot({a, b}, options);
    EXPECT_NE(text.find('u'), std::string::npos);
    EXPECT_NE(text.find('e'), std::string::npos);
}

TEST(AsciiPlot, FixedYRangeClamps) {
    PlotSeries series{"s", 's', {{0, -5}, {1, 500}}};
    PlotOptions options;
    options.yMin = 0.0;
    options.yMax = 10.0;
    EXPECT_NO_THROW((void)renderPlot({series}, options));
}

}  // namespace
}  // namespace onelab::util
