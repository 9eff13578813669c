// Structured-error parsing for CLI-facing lookups: Expected<T> semantics,
// the strict integer parser behind the drivers' flags, workload lookup, and
// the model / scheme name parsers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sim/registry.hpp"

namespace fare {
namespace {

TEST(ExpectedTest, ValueAndErrorChannels) {
    const Expected<int> ok = 42;
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.value(), 42);
    EXPECT_EQ(ok.value_or(7), 42);

    const Expected<int> bad = Expected<int>::failure("nope");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), "nope");
    EXPECT_EQ(bad.value_or(7), 7);
    EXPECT_THROW(bad.value(), std::logic_error);
}

// The integer flags of fare-run and fare-worker (--epochs, --threads, the
// *-ms timeouts, ...) and FARE_EPOCHS / FARE_THREADS parse this way: a
// value that is not a plain decimal integer in range is an error, never a
// truncation or a cast of NaN.
const char* const kNotIntegers[] = {"2.9", "nan", "inf", "1e3", "-1", "+4", "", " 5", "5 ",
                                    "0x10", "99999999999999999999999"};

TEST(ParseIntegerTest, AcceptsOnlyDecimalDigitsInRange) {
    EXPECT_EQ(parse_integer<std::size_t>("2", 1).value(), 2u);
    EXPECT_EQ(parse_integer<std::size_t>("0", 0).value(), 0u);
    EXPECT_EQ(parse_integer<std::size_t>("007", 1).value(), 7u);
    const std::size_t max = std::numeric_limits<std::size_t>::max();
    EXPECT_EQ(parse_integer<std::size_t>(std::to_string(max), 1).value(), max);
    for (const char* bad : kNotIntegers)
        EXPECT_FALSE(parse_integer<std::size_t>(bad, 0).ok()) << "'" << bad << "'";

    // Past the type's or the caller's bound is out of range, not a wrap.
    EXPECT_EQ(parse_integer<int>("2147483647", 0).value(), 2147483647);
    EXPECT_FALSE(parse_integer<int>("2147483648", 0).ok());
    EXPECT_FALSE(parse_integer<std::uint64_t>("18446744073709551616", 0).ok());
    EXPECT_EQ(parse_integer<int>("1000000000", 0, 1'000'000'000).value(), 1'000'000'000);
    EXPECT_FALSE(parse_integer<int>("1000000001", 0, 1'000'000'000).ok());
    EXPECT_FALSE(parse_integer<std::size_t>("0", 1).ok());
}

TEST(ParseIntegerTest, FlagErrorsNameTheFlagAndTheValue) {
    EXPECT_EQ(parse_flag<std::size_t>("--epochs", "3", 1), 3u);
    EXPECT_EQ(parse_flag("--heartbeat-timeout-ms", "0", 0, 1'000'000'000), 0);
    for (const char* bad : kNotIntegers) {
        try {
            parse_flag<std::size_t>("--epochs", bad, 1);
            ADD_FAILURE() << "accepted --epochs '" << bad << "'";
        } catch (const InvalidArgument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("--epochs"), std::string::npos) << what;
            EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos) << what;
        }
    }
    EXPECT_THROW(parse_flag<std::size_t>("--epochs", "0", 1), InvalidArgument);
}

TEST(RegistryParseTest, TryFindWorkload) {
    const auto hit = try_find_workload("Reddit", GnnKind::kGCN);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.value().label(), "Reddit (GCN)");

    const auto miss = try_find_workload("Citeseer", GnnKind::kGCN);
    ASSERT_FALSE(miss.ok());
    EXPECT_NE(miss.error().find("Citeseer"), std::string::npos);
    EXPECT_NE(miss.error().find("Reddit GCN"), std::string::npos);  // usage list

    // Registered dataset with unregistered model is still a miss.
    EXPECT_FALSE(try_find_workload("Reddit", GnnKind::kSAGE).ok());
}

TEST(RegistryParseTest, FindWorkloadStillThrowsForInternalCallers) {
    EXPECT_THROW(find_workload("Citeseer", GnnKind::kGCN), InvalidArgument);
}

TEST(RegistryParseTest, ParseGnnKind) {
    EXPECT_EQ(parse_gnn_kind("GCN").value(), GnnKind::kGCN);
    EXPECT_EQ(parse_gnn_kind("gat").value(), GnnKind::kGAT);
    EXPECT_EQ(parse_gnn_kind("GraphSAGE").value(), GnnKind::kSAGE);
    const auto miss = parse_gnn_kind("MLP");
    ASSERT_FALSE(miss.ok());
    EXPECT_NE(miss.error().find("GCN | GAT | SAGE"), std::string::npos);
}

TEST(SchemeParseTest, NamesAndAliases) {
    EXPECT_EQ(parse_scheme("fault-free").value(), Scheme::kFaultFree);
    EXPECT_EQ(parse_scheme("Fault_Unaware").value(), Scheme::kFaultUnaware);
    EXPECT_EQ(parse_scheme("NR").value(), Scheme::kNeuronReorder);
    EXPECT_EQ(parse_scheme("Weight Clipping").value(), Scheme::kClippingOnly);
    EXPECT_EQ(parse_scheme("FARe").value(), Scheme::kFARe);
    EXPECT_EQ(parse_scheme("redundant columns").value(), Scheme::kRedundantCols);
    // Round-trip every scheme_name() spelling.
    for (const Scheme s : all_schemes())
        EXPECT_EQ(parse_scheme(scheme_name(s)).value(), s) << scheme_name(s);
    // Every CLI alias.
    const std::pair<const char*, Scheme> aliases[] = {
        {"faultfree", Scheme::kFaultFree},
        {"ideal", Scheme::kFaultFree},
        {"unaware", Scheme::kFaultUnaware},
        {"naive", Scheme::kFaultUnaware},
        {"neuron-reorder", Scheme::kNeuronReorder},
        {"neuron-reordering", Scheme::kNeuronReorder},
        {"clipping", Scheme::kClippingOnly},
        {"clip", Scheme::kClippingOnly},
        {"redundant", Scheme::kRedundantCols},
        {"spare", Scheme::kRedundantCols},
        {"online", Scheme::kOnlineNaive},
    };
    for (const auto& [alias, s] : aliases)
        EXPECT_EQ(parse_scheme(alias).value(), s) << alias;
    EXPECT_EQ(parse_scheme("Neuron_Reordering").value(), Scheme::kNeuronReorder);
    const auto miss = parse_scheme("magic");
    ASSERT_FALSE(miss.ok());
    EXPECT_NE(miss.error().find("magic"), std::string::npos);
}

}  // namespace
}  // namespace fare
