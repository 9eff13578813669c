// Cell-key soundness: the key of every builtin-plan cell is pinned byte for
// byte (keys seed derived hardware seeds and name disk-cache entries), and
// two cells that share a key must produce the same result — checked field
// by field over the chip-field table (sim/plan.hpp visit_fields).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "sim/builtin_plans.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {
namespace {

/// `result` as canonical record JSON with the plan position zeroed and the
/// spec replaced by `spec`, so cells differing only in an inert field
/// compare equal exactly when they behave alike.
std::string outcome(const CellResult& result, const CellSpec& spec) {
    CellResult canonical = canonicalized(result);
    canonical.spec = spec;
    canonical.plan_index = 0;
    return cell_result_to_json(canonical);
}

TEST(CellKeyTest, BuiltinPlanKeysMatchTheGolden) {
    std::ostringstream keys;
    for (const NamedPlan& named : builtin_plans()) {
        const ExperimentPlan plan = named.build();
        for (std::size_t i = 0; i < plan.cells.size(); ++i)
            keys << named.name << ' ' << i << ' ' << plan.cells[i].key() << '\n';
    }
    std::ifstream in(FARE_GOLDEN_DIR "/cell_keys.txt", std::ios::binary);
    ASSERT_TRUE(in) << "missing " FARE_GOLDEN_DIR "/cell_keys.txt";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(keys.str(), golden.str());
}

TEST(CellKeyTest, WearPolarityKeysApart) {
    // Worn-out cells take their polarity from post_sa1_fraction even while
    // the uniform stream is off; with no pre-deployment faults the SA1 axis
    // reaches the key only through it.
    FaultScenario scenario = FaultScenario::pre_deployment(0.0, 0.0);
    WearSpec wear;
    wear.endurance_mean_writes = 10e3;
    wear.writes_per_step = 1000;
    scenario.with_wear(wear).with_arrival_period(2);
    const ExperimentPlan plan = SweepBuilder("polarity")
                                    .workload(find_workload("PPI", GnnKind::kGCN))
                                    .scenario(scenario)
                                    .axis(&FaultScenario::sa1_fraction, {0.0, 1.0})
                                    .scheme(Scheme::kFaultUnaware)
                                    .epochs(2)
                                    .build();
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_NE(plan.cells[0].key(), plan.cells[1].key());

    SessionOptions options;
    options.threads = 1;
    SimSession session(options);
    const ResultSet results = session.run(plan);
    ASSERT_EQ(results.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(results.cells[i].from_cache);
        EXPECT_EQ(outcome(results.cells[i], plan.cells[i]),
                  outcome(run_cell(plan.cells[i]), plan.cells[i]));
    }
    EXPECT_NE(results.cells[0].accuracy(), results.cells[1].accuracy());
}

TEST(CellKeyTest, PinnedWearPolarityKeysApart) {
    FaultScenario worn = FaultScenario::pre_deployment(0.01, 0.1);
    worn.with_wear(1e4);
    FaultScenario pinned = worn;
    pinned.with_post_deployment(0.0, 0.9);
    EXPECT_NE(pinned.key(), worn.key());
    // Equal ratios: sa1= already carries the polarity, the key is unchanged.
    FaultScenario same = worn;
    same.with_post_deployment(0.0, 0.1);
    EXPECT_EQ(same.key(), worn.key());
}

/// A valid value of a field other than `value`.
template <class T>
T other_value(const T& value, const FieldRange& range) {
    if constexpr (std::is_same_v<T, bool>) {
        return !value;
    } else if constexpr (std::is_same_v<T, std::string>) {
        return value.empty() ? "fennel" : "";
    } else if constexpr (std::is_integral_v<T>) {
        return value + 1;
    } else {
        const double v = value;
        const double hi = std::isinf(range.hi) ? v + 1.0 : range.hi;
        const double lo = std::isinf(range.lo) ? v - 1.0 : range.lo;
        return static_cast<T>(v < hi ? v + 0.5 * (hi - v) : v - 0.5 * (v - lo));
    }
}

/// Set each chip field of `context` to another valid value in turn; a
/// change key() does not see must not change the cell's result either.
void expect_key_sound(CellSpec context) {
    context.epochs = 1;
    std::optional<std::string> reference;
    visit_fields([&](const auto& field) {
        CellSpec changed = context;
        auto& value = field.of(changed);
        value = other_value(value, field.range);
        ASSERT_EQ(field.error(value), "") << field.name;
        if (changed.key() != context.key()) return;
        if (!reference) reference = outcome(run_cell(context), context);
        EXPECT_EQ(outcome(run_cell(changed), context), *reference)
            << "key() ignores " << field.name << " in " << context.label()
            << ", but the result depends on it";
    });
    EXPECT_TRUE(reference.has_value()) << "no key-inert field to compare";
}

CellSpec first_cell(const ExperimentPlan& plan, Scheme scheme) {
    for (const CellSpec& cell : plan.cells)
        if (cell.scheme == scheme) return cell;
    throw InvalidArgument("plan '" + plan.name + "' has no " + scheme_name(scheme) +
                          " cell");
}

TEST(CellKeyTest, KeyInertFieldsDoNotChangeFig5Cells) {
    expect_key_sound(first_cell(find_builtin_plan("fig5"), Scheme::kFARe));
}

TEST(CellKeyTest, KeyInertFieldsDoNotChangeWearCells) {
    expect_key_sound(first_cell(wear_arrival_plan(), Scheme::kFARe));
}

TEST(CellKeyTest, KeyInertFieldsDoNotChangeOnlineCells) {
    expect_key_sound(first_cell(online_tolerance_plan(), Scheme::kOnlineFARe));
}

}  // namespace
}  // namespace fare
