// Structured-error parsing for CLI-facing lookups: Expected<T> semantics,
// workload lookup, and the model / scheme name parsers.
#include <gtest/gtest.h>

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
