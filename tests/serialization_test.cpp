// CellResult <-> JSON round trip (the DiskCellCache / fare-run record
// format): bit-exact field recovery including doubles, 64-bit seeds and the
// training curve; schema versioning and the reader rule; canonicalization;
// corrupt-input tolerance via Expected, down to seeded mutations of records,
// wire frames and the golden display lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "net/protocol.hpp"
#include "sim/registry.hpp"
#include "sim/serialization.hpp"

namespace fare {
namespace {

/// A CellResult exercising every serialized field with awkward values:
/// non-representable decimals, a full-range 64-bit seed, optionals set.
CellResult sample_result() {
    CellResult r;
    r.spec.workload = find_workload("Reddit", GnnKind::kGCN);
    r.spec.scheme = Scheme::kFARe;
    r.spec.faults = FaultScenario::pre_deployment(0.03, 0.1);
    r.spec.faults.with_post_deployment(0.01, 0.9).with_read_noise(0.02);
    r.spec.faults.cluster_shape = 2.5;
    r.spec.faults.post_epochs = 7;
    r.spec.faults.faults_on_adjacency = false;
    WearSpec wear;
    wear.endurance_mean_writes = 123456.789;
    wear.weibull_shape = 1.75;
    wear.hot_spot_fraction = 0.375;
    wear.hot_spot_severity = 6.5;
    wear.writes_per_step = 1000;
    r.spec.faults.with_wear(wear).with_arrival_period(3).with_soft_errors(
        0.0025);
    r.spec.hardware.num_tiles = 2;
    r.spec.hardware.clip_threshold = 0.7f;
    r.spec.hardware.match_weights = {1.25, 3.75};
    r.spec.hardware.spare_column_fraction = 0.12;
    r.spec.hardware.max_adjacency_pool = 32;
    r.spec.hardware.online.detect_period_batches = 4;
    r.spec.hardware.online.march_window = 6;
    r.spec.hardware.online.readback_tolerance = 0.015;
    r.spec.hardware.online.spare_columns = 3;
    r.spec.hardware.online.reprogram_pulses = 5;
    r.spec.hardware.partition_aware_mapping = true;
    r.spec.partitioner = "refennel";
    r.spec.partition_count = 24;
    r.spec.seed = 0xDEADBEEFCAFEF00Dull;  // > 2^53: breaks a double mantissa
    r.spec.hardware_seed = 0xFFFFFFFFFFFFFFFFull;
    r.spec.mode = CellMode::kTrain;
    r.spec.record_curve = true;
    r.spec.epochs = 5;
    r.run.scheme = Scheme::kFARe;
    r.run.total_mapping_cost = 1234.5678;
    r.run.bist_scans = 3;
    r.run.wear_faults = 4242;
    r.run.online.detection_rounds = 11;
    r.run.online.march_cell_ops = 987654321;
    r.run.online.readback_checks = 222;
    r.run.online.faults_detected = 33;
    r.run.online.soft_repaired = 21;
    r.run.online.repair_writes = 63;
    r.run.online.columns_substituted = 5;
    r.run.online.crossbars_exhausted = 2;
    r.run.online.latency_steps_sum = 77;
    r.run.online.latency_samples = 13;
    r.run.online.detect_seconds = 0.0123456789;
    r.run.online.repair_seconds = 1.0 / 7.0;
    r.run.off_tile_block_fraction = 0.4375;
    r.run.inter_tile_seconds = 1.0 / 3.0;
    r.run.train.test_accuracy = 0.923076923076923;
    r.run.train.test_macro_f1 = 1.0 / 3.0;
    r.run.train.partition_quality.algo = "refennel";
    r.run.train.partition_quality.parts = 24;
    r.run.train.partition_quality.edge_cut = 123457;
    r.run.train.partition_quality.edge_cut_rate = 0.0625;
    r.run.train.partition_quality.alpha = 1.0 / 7.0 + 1.0;
    r.run.train.partition_quality.beta = 1.099999999999;
    r.run.train.partition_quality.replication_factor = 2.71828;
    r.run.train.preprocess_seconds = 0.001234;
    r.run.train.train_seconds = 1.75;
    r.run.train.curve = {{0.9f, 0.1, 0.2}, {0.45f, 0.65, 0.7}};
    r.deployment.trained_accuracy = 0.91;
    r.deployment.deployed_accuracy = 0.77;
    r.from_cache = false;
    r.wall_seconds = 2.5;
    r.plan_index = 17;
    return r;
}

TEST(SerializationTest, CellResultRoundTripsExactly) {
    const CellResult original = sample_result();
    const std::string json = cell_result_to_json(original);
    const Expected<JsonValue> doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << doc.error();
    const Expected<CellResult> back = cell_result_from_json(doc.value());
    ASSERT_TRUE(back.ok()) << back.error();
    const CellResult& r = back.value();

    // The strongest statement: re-serializing is byte-identical.
    EXPECT_EQ(cell_result_to_json(r), json);
    // And behaviourally: the canonical key (every behaviour-relevant spec
    // field) survives, so a deserialized cell memoizes correctly.
    EXPECT_EQ(r.spec.key(), original.spec.key());
    EXPECT_EQ(r.spec.seed, original.spec.seed);
    EXPECT_EQ(r.spec.hardware_seed, original.spec.hardware_seed);
    EXPECT_DOUBLE_EQ(r.run.train.test_accuracy, original.run.train.test_accuracy);
    EXPECT_DOUBLE_EQ(r.run.total_mapping_cost, original.run.total_mapping_cost);
    EXPECT_DOUBLE_EQ(r.spec.faults.wear.endurance_mean_writes, 123456.789);
    EXPECT_DOUBLE_EQ(r.spec.faults.wear.hot_spot_fraction, 0.375);
    EXPECT_EQ(r.spec.faults.wear.writes_per_step, 1000u);
    EXPECT_EQ(r.spec.faults.arrival_period_batches, 3u);
    EXPECT_DOUBLE_EQ(r.spec.faults.soft_error_rate, 0.0025);
    EXPECT_EQ(r.spec.hardware.online.detect_period_batches, 4u);
    EXPECT_EQ(r.spec.hardware.online.march_window, 6u);
    EXPECT_DOUBLE_EQ(r.spec.hardware.online.readback_tolerance, 0.015);
    EXPECT_EQ(r.spec.hardware.online.spare_columns, 3u);
    EXPECT_EQ(r.spec.hardware.online.reprogram_pulses, 5u);
    EXPECT_EQ(r.run.wear_faults, 4242u);
    EXPECT_EQ(r.run.online.detection_rounds, 11u);
    EXPECT_EQ(r.run.online.march_cell_ops, 987654321u);
    EXPECT_EQ(r.run.online.crossbars_exhausted, 2u);
    EXPECT_EQ(r.run.online.latency_steps_sum, 77u);
    EXPECT_EQ(r.run.online.latency_samples, 13u);
    EXPECT_DOUBLE_EQ(r.run.online.detect_seconds, 0.0123456789);
    EXPECT_DOUBLE_EQ(r.run.online.repair_seconds, 1.0 / 7.0);
    // v4: partitioner axes, the quality report, and the traffic diagnostics.
    EXPECT_EQ(r.spec.partitioner, "refennel");
    EXPECT_EQ(r.spec.partition_count, 24);
    EXPECT_TRUE(r.spec.hardware.partition_aware_mapping);
    EXPECT_DOUBLE_EQ(r.run.off_tile_block_fraction, 0.4375);
    EXPECT_DOUBLE_EQ(r.run.inter_tile_seconds, 1.0 / 3.0);
    EXPECT_EQ(r.run.train.partition_quality.algo, "refennel");
    EXPECT_EQ(r.run.train.partition_quality.parts, 24);
    EXPECT_EQ(r.run.train.partition_quality.edge_cut, 123457u);
    EXPECT_DOUBLE_EQ(r.run.train.partition_quality.edge_cut_rate, 0.0625);
    EXPECT_DOUBLE_EQ(r.run.train.partition_quality.alpha, 1.0 / 7.0 + 1.0);
    EXPECT_DOUBLE_EQ(r.run.train.partition_quality.beta, 1.099999999999);
    EXPECT_DOUBLE_EQ(r.run.train.partition_quality.replication_factor,
                     2.71828);
    ASSERT_EQ(r.run.train.curve.size(), 2u);
    EXPECT_FLOAT_EQ(r.run.train.curve[0].train_loss, 0.9f);
    EXPECT_DOUBLE_EQ(r.run.train.curve[1].val_accuracy, 0.7);
    EXPECT_EQ(r.plan_index, 17u);
}

TEST(SerializationTest, UnsetOptionalsRoundTrip) {
    CellResult r;
    r.spec.workload = find_workload("PPI", GnnKind::kGCN);
    ASSERT_FALSE(r.spec.hardware_seed.has_value());
    ASSERT_FALSE(r.spec.epochs.has_value());
    const std::string json = cell_result_to_json(r);
    const Expected<JsonValue> doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << doc.error();
    const Expected<CellResult> back = cell_result_from_json(doc.value());
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_FALSE(back.value().spec.hardware_seed.has_value());
    EXPECT_FALSE(back.value().spec.epochs.has_value());
    EXPECT_TRUE(back.value().run.train.curve.empty());
}

TEST(SerializationTest, CellRecordEnvelope) {
    CellRecord record;
    record.plan = "unit \"quoted\"";
    record.key = "w=PPI/GCN|s=FARe";
    record.plan_index = 42;
    record.result = sample_result();
    const std::string line = cell_record_to_json(record);
    EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per record

    const Expected<CellRecord> back = cell_record_from_json(line);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().schema, kCellJsonSchemaVersion);
    EXPECT_EQ(back.value().plan, "unit \"quoted\"");
    EXPECT_EQ(back.value().key, "w=PPI/GCN|s=FARe");
    EXPECT_EQ(back.value().plan_index, 42u);
    EXPECT_EQ(cell_result_to_json(back.value().result),
              cell_result_to_json(record.result));
}

TEST(SerializationTest, CanonicalizedResetsExactlyTheMeasuredRows) {
    CellResult original = sample_result();
    original.from_cache = true;
    const CellResult canonical = canonicalized(original);
    EXPECT_EQ(canonical.wall_seconds, 0.0);
    EXPECT_EQ(canonical.run.train.preprocess_seconds, 0.0);
    EXPECT_EQ(canonical.run.train.train_seconds, 0.0);
    EXPECT_FALSE(canonical.from_cache);
    // Chip seconds modelled by TimingModel are outcomes, not measurements.
    EXPECT_EQ(canonical.run.inter_tile_seconds, 1.0 / 3.0);
    EXPECT_EQ(canonical.run.online.detect_seconds, 0.0123456789);
    EXPECT_EQ(canonical.run.online.repair_seconds, 1.0 / 7.0);
    // Nothing else moves: restoring the four gives the original bytes back.
    CellResult restored = canonical;
    restored.wall_seconds = original.wall_seconds;
    restored.run.train.preprocess_seconds = original.run.train.preprocess_seconds;
    restored.run.train.train_seconds = original.run.train.train_seconds;
    restored.from_cache = true;
    EXPECT_EQ(cell_result_to_json(restored), cell_result_to_json(original));
}

TEST(SerializationTest, CorruptInputIsAnErrorNotAThrow) {
    EXPECT_FALSE(cell_record_from_json("").ok());
    EXPECT_FALSE(cell_record_from_json("CORRUPT GARBAGE").ok());
    EXPECT_FALSE(cell_record_from_json("{\"schema\":1}").ok());  // missing fields
    // Truncated tail write (a crash mid-append).
    CellRecord record;
    record.key = "k";
    record.result = sample_result();
    const std::string line = cell_record_to_json(record);
    EXPECT_FALSE(cell_record_from_json(line.substr(0, line.size() / 2)).ok());
    EXPECT_TRUE(cell_record_from_json(line).ok());
}

TEST(SerializationTest, OutOfRangeChipFieldsAreCorrupt) {
    // Values the builders would reject are corrupt records too, and the
    // error names the field (the range comes from visit_fields).
    const auto corrupt = [](const std::string& field, auto&& poke) {
        CellRecord record;
        record.key = "k-range";
        record.result = sample_result();
        poke(record.result.spec);
        const Expected<CellRecord> back =
            cell_record_from_json(cell_record_to_json(record));
        ASSERT_FALSE(back.ok()) << field;
        EXPECT_NE(back.error().find("'" + field + "'"), std::string::npos)
            << back.error();
    };
    corrupt("density", [](CellSpec& s) { s.faults.density = 1.5; });
    corrupt("read_noise_sigma",
            [](CellSpec& s) { s.faults.read_noise_sigma = -0.01; });
    corrupt("prune_fraction", [](CellSpec& s) { s.hardware.prune_fraction = 1.0; });
    corrupt("partitioner", [](CellSpec& s) { s.partitioner = "metis"; });
}

/// One past the end of the JSON value that starts at `pos` in `line`.
std::size_t value_end(const std::string& line, std::size_t pos) {
    int depth = 0;
    bool in_string = false;
    for (; pos < line.size(); ++pos) {
        const char c = line[pos];
        if (in_string) {
            if (c == '\\') ++pos;
            else if (c == '"') in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']' || c == ',') {
            if (depth == 0) break;
            if (c != ',') --depth;
        }
    }
    return pos;
}

/// `line` with the value of its first member named `name` replaced by `value`.
std::string with_value(std::string line, const std::string& name,
                       const std::string& value) {
    const std::string key = '"' + name + "\":";
    const std::size_t at = line.find(key);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no member '" << name << "'";
        return line;
    }
    const std::size_t begin = at + key.size();
    return line.replace(begin, value_end(line, begin) - begin, value);
}

/// `line` without the member whose key opens at `at`, nor the comma that
/// separated it from a neighbour.
std::string erase_member(std::string line, std::size_t at) {
    std::size_t end = value_end(line, line.find(':', at) + 1);
    if (end < line.size() && line[end] == ',')
        ++end;
    else if (at > 0 && line[at - 1] == ',')
        --at;
    return line.erase(at, end - at);
}

TEST(SerializationTest, ValuesWiderThanTheirFieldAreCorrupt) {
    // A narrowing cast would wrap each integer to a valid value: schema 5,
    // partition count 1, -2147483648 tiles, 3 pulses, 4 parts. The doubles
    // fit only as infinity, which the writer would print as unreadable "inf".
    CellRecord record;
    record.key = "k-wide";
    record.result = sample_result();
    const std::string line = cell_record_to_json(record);
    for (const auto& [field, value] :
         {std::pair{"schema", "4294967301"}, {"partition_count", "4294967297"},
          {"num_tiles", "2147483648"}, {"reprogram_pulses", "4294967299"},
          {"parts", "4294967300"}, {"alpha", "1e999"}, {"clip_threshold", "1e39"}}) {
        const Expected<CellRecord> back =
            cell_record_from_json(with_value(line, field, value));
        ASSERT_FALSE(back.ok()) << field;
        EXPECT_NE(back.error().find(std::string("'") + field + "'"), std::string::npos)
            << back.error();
    }
    // Each type's max still reads.
    EXPECT_TRUE(cell_record_from_json(with_value(line, "num_tiles", "2147483647")).ok());
    EXPECT_TRUE(
        cell_record_from_json(with_value(line, "reprogram_pulses", "4294967295")).ok());
}

TEST(SerializationTest, RowsAsOldAsTheRecordAreRequired) {
    CellRecord record;
    record.key = "k-rule";
    record.result = sample_result();
    const std::string line = cell_record_to_json(record);
    // A v3 row and a v4 block, each missing from a v5 record: corrupt.
    for (const std::string name : {"soft_error_rate", "partition_quality"}) {
        const std::string missing = erase_member(line, line.find('"' + name + "\":"));
        const Expected<CellRecord> v5 = cell_record_from_json(missing);
        ASSERT_FALSE(v5.ok()) << name;
        EXPECT_NE(v5.error().find("'" + name + "'"), std::string::npos) << v5.error();
        // The same body stamped v2, older than both, reads with the default.
        const Expected<CellRecord> v2 =
            cell_record_from_json(with_value(missing, "schema", "2"));
        ASSERT_TRUE(v2.ok()) << v2.error();
        if (name == "soft_error_rate")
            EXPECT_EQ(v2.value().result.spec.faults.soft_error_rate, 0.0);
        else
            EXPECT_EQ(v2.value().result.run.train.partition_quality.parts, 0);
        EXPECT_EQ(v2.value().result.run.train.test_accuracy,
                  record.result.run.train.test_accuracy);
    }
}

TEST(SerializationTest, WrongSchemaVersionIsSkippable) {
    CellRecord record;
    record.schema = kCellJsonSchemaVersion + 1;
    record.key = std::string("k");  // GCC 12 -O2 misreports -Wrestrict on = "k"
    record.result = sample_result();
    const Expected<CellRecord> back =
        cell_record_from_json(cell_record_to_json(record));
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().find("schema version"), std::string::npos);
}

TEST(SerializationTest, U64RejectsNegativeWrapAndOverflow) {
    const auto number = [](const std::string& token) {
        const Expected<JsonValue> doc = parse_json("{\"x\":" + token + "}");
        EXPECT_TRUE(doc.ok()) << doc.error();
        return *doc.value().find("x");
    };
    // strtoull would wrap "-1" to 2^64-1 and saturate past ULLONG_MAX; both
    // must fail loudly instead of round-tripping as a different cell.
    EXPECT_THROW(number("-1").as_u64(), std::runtime_error);
    EXPECT_THROW(number("18446744073709551616").as_u64(),  // 2^64
                 std::runtime_error);
    EXPECT_THROW(number("1.5").as_u64(), std::runtime_error);
    EXPECT_THROW(number("1e3").as_u64(), std::runtime_error);
    EXPECT_EQ(number("18446744073709551615").as_u64(),  // 2^64 - 1 is fine
              18446744073709551615ull);
    EXPECT_EQ(number("0").as_u64(), 0u);

    // End to end: a hand-edited seed of -1 is a corrupt record whose error
    // names the field — not a silently wrapped 2^64-1 seed.
    CellRecord record;
    record.key = "k";
    record.result = sample_result();
    const std::string line = cell_record_to_json(record);
    const Expected<CellRecord> back = cell_record_from_json(with_value(line, "seed", "-1"));
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().find("seed"), std::string::npos) << back.error();

    // Nullable u64 fields name themselves too.
    const Expected<CellRecord> hw_back =
        cell_record_from_json(with_value(line, "hardware_seed", "-1"));
    ASSERT_FALSE(hw_back.ok());
    EXPECT_NE(hw_back.error().find("hardware_seed"), std::string::npos)
        << hw_back.error();
}

TEST(SerializationTest, UnicodeEscapesDecodeTheFullBmpToUtf8) {
    const auto decoded = [](const std::string& doc) {
        const Expected<JsonValue> v = parse_json(doc);
        EXPECT_TRUE(v.ok()) << v.error();
        return v.ok() ? v.value().as_string() : std::string();
    };
    EXPECT_EQ(decoded("\"\\u0041\""), "A");
    EXPECT_EQ(decoded("\"\\u000a\""), "\n");
    EXPECT_EQ(decoded("\"\\u00e9\""), "\xc3\xa9");          // é, 2-byte UTF-8
    EXPECT_EQ(decoded("\"\\u20ac\""), "\xe2\x82\xac");      // €, 3-byte
    EXPECT_EQ(decoded("\"\\u4e2d\""), "\xe4\xb8\xad");      // 中
    EXPECT_EQ(decoded("\"\\uD83D\\uDE00\""),                // 😀 via pair
              "\xf0\x9f\x98\x80");
    EXPECT_FALSE(parse_json("\"\\uD83D\"").ok());   // lone high surrogate
    EXPECT_FALSE(parse_json("\"\\uDE00\"").ok());   // lone low surrogate
    EXPECT_FALSE(parse_json("\"\\uD83Dx\"").ok());  // pair cut short
    EXPECT_FALSE(parse_json("\"\\uZZZZ\"").ok());
    EXPECT_FALSE(parse_json("\"\\u00\"").ok());     // truncated

    // A record line written by an external tool with escaped non-Latin-1
    // text must load, and raw UTF-8 from our own writer round-trips.
    CellRecord record;
    record.plan = "naïve-€-计划";
    record.key = "k";
    record.result = sample_result();
    const Expected<CellRecord> back =
        cell_record_from_json(cell_record_to_json(record));
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().plan, record.plan);
}

TEST(SerializationTest, ExplicitLimitsBoundDepthAndBytes) {
    // Depth: a document nested past max_depth is an Expected error — the
    // recursive-descent parser must refuse before it recurses that far
    // (a hostile network peer could otherwise overflow the stack).
    const auto nested = [](std::size_t depth) {
        std::string doc;
        for (std::size_t i = 0; i < depth; ++i) doc += '[';
        doc += '1';
        for (std::size_t i = 0; i < depth; ++i) doc += ']';
        return doc;
    };
    JsonLimits shallow;
    shallow.max_depth = 8;
    EXPECT_TRUE(parse_json(nested(8), shallow).ok());
    const Expected<JsonValue> deep = parse_json(nested(9), shallow);
    ASSERT_FALSE(deep.ok());
    EXPECT_NE(deep.error().find("nesting"), std::string::npos) << deep.error();
    // The default depth holds for our own records but is still finite.
    EXPECT_TRUE(parse_json(nested(128)).ok());
    EXPECT_FALSE(parse_json(nested(129)).ok());

    // Bytes: a document above max_bytes is refused up front (0 = unlimited).
    JsonLimits tight;
    tight.max_bytes = 16;
    EXPECT_TRUE(parse_json("{\"a\":1}", tight).ok());
    const Expected<JsonValue> fat =
        parse_json("{\"a\":\"0123456789abcdef\"}", tight);
    ASSERT_FALSE(fat.ok());
    EXPECT_NE(fat.error().find("byte"), std::string::npos) << fat.error();
    EXPECT_TRUE(parse_json("{\"a\":\"0123456789abcdef\"}").ok());
}

TEST(SerializationTest, CellSpecRoundTripsStandalone) {
    // The wire protocol ships bare specs (assign frames); the standalone
    // spec codec must agree byte-for-byte with the spec object embedded in
    // a full CellResult record.
    const CellSpec original = sample_result().spec;
    const std::string json = cell_spec_to_json(original);
    EXPECT_NE(cell_result_to_json(sample_result()).find(json),
              std::string::npos);

    const Expected<JsonValue> doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << doc.error();
    const Expected<CellSpec> back = cell_spec_from_json(doc.value());
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(cell_spec_to_json(back.value()), json);
    EXPECT_EQ(back.value().key(), original.key());
    EXPECT_EQ(back.value().seed, original.seed);
    EXPECT_EQ(back.value().hardware_seed, original.hardware_seed);
    EXPECT_EQ(back.value().epochs, original.epochs);

    EXPECT_FALSE(cell_spec_from_json(parse_json("{}").value()).ok());
}

TEST(SerializationTest, RunCellRejectsADecodedOutOfRangeSpec) {
    // cell_spec_from_json leaves chip-field ranges to run_cell, which must
    // throw, naming the field, before it builds a dataset or a model: a
    // prune fraction past 1 would index past the pruning order.
    CellSpec spec;
    spec.workload = find_workload("transformer", "SeqCls");
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    spec.hardware.prune_fraction = 1.5;
    spec.epochs = 1;
    const Expected<JsonValue> doc = parse_json(cell_spec_to_json(spec));
    ASSERT_TRUE(doc.ok()) << doc.error();
    const Expected<CellSpec> decoded = cell_spec_from_json(doc.value());
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    try {
        run_cell(decoded.value());
        ADD_FAILURE() << "run_cell accepted prune_fraction 1.5";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("'prune_fraction'"), std::string::npos)
            << e.what();
    }
}

TEST(SerializationTest, ParserRejectsTrailingGarbage) {
    EXPECT_TRUE(parse_json("{\"a\":1}").ok());
    EXPECT_FALSE(parse_json("{\"a\":1} extra").ok());
    EXPECT_FALSE(parse_json("{\"a\":}").ok());
    EXPECT_FALSE(parse_json("[1,2").ok());
}

// ---------------------------------------------------------------------------
// Back-compat: the ranged reader accepts v2-v4 cache lines verbatim (fields
// introduced later take their spec defaults), so a disk cache written by an
// older binary stays warm across the v5 bump.
// ---------------------------------------------------------------------------

/// A literal schema-v2 line, exactly as the PR 4 binary wrote it: no
/// soft_error_rate, no online policy / stats, no partitioner block.
const char* kV2Line =
    "{\"schema\":2,\"plan\":\"smoke\",\"key\":\"k-v2\",\"plan_index\":3,"
    "\"result\":{\"spec\":{\"dataset\":\"PPI\",\"model\":\"GCN\","
    "\"scheme\":\"FARe\",\"mode\":\"train\",\"seed\":7,\"hardware_seed\":null,"
    "\"record_curve\":false,\"epochs\":2,\"faults\":{\"density\":0.05,"
    "\"sa1_fraction\":0.5,\"cluster_shape\":1.5,\"post_total_density\":0,"
    "\"post_epochs\":0,\"post_sa1_fraction\":0.5,\"post_sa1_follows_pre\":true,"
    "\"faults_on_weights\":true,\"faults_on_adjacency\":true,"
    "\"read_noise_sigma\":0,\"wear\":{\"endurance_mean_writes\":0,"
    "\"weibull_shape\":2,\"hot_spot_fraction\":0,\"hot_spot_severity\":8,"
    "\"writes_per_step\":1},\"arrival_period_batches\":0},\"hardware\":{"
    "\"num_tiles\":1,\"clip_threshold\":1,\"match_sa0\":1,\"match_sa1\":4,"
    "\"spare_column_fraction\":0.15,\"max_adjacency_pool\":48}},"
    "\"run\":{\"scheme\":\"FARe\",\"total_mapping_cost\":12.5,"
    "\"bist_scans\":1,\"wear_faults\":0,\"train\":{\"test_accuracy\":0.75,"
    "\"test_macro_f1\":0.5,\"preprocess_seconds\":0.1,\"train_seconds\":2,"
    "\"curve\":[]}},\"deployment\":{\"trained_accuracy\":0,"
    "\"deployed_accuracy\":0},\"from_cache\":false,\"wall_seconds\":2.5,"
    "\"plan_index\":3}}";

/// A literal schema-v3 line (PR 7 era): adds soft_error_rate, the online
/// policy block and run.online stats; still no partitioner block.
const char* kV3Line =
    "{\"schema\":3,\"plan\":\"smoke\",\"key\":\"k-v3\",\"plan_index\":0,"
    "\"result\":{\"spec\":{\"dataset\":\"PPI\",\"model\":\"GCN\","
    "\"scheme\":\"Online FARe\",\"mode\":\"train\",\"seed\":1,"
    "\"hardware_seed\":null,\"record_curve\":false,\"epochs\":3,\"faults\":{"
    "\"density\":0.01,\"sa1_fraction\":0.5,\"cluster_shape\":1.5,"
    "\"post_total_density\":0,\"post_epochs\":0,\"post_sa1_fraction\":0.5,"
    "\"post_sa1_follows_pre\":true,\"faults_on_weights\":true,"
    "\"faults_on_adjacency\":true,\"read_noise_sigma\":0,"
    "\"soft_error_rate\":0.004,\"wear\":{\"endurance_mean_writes\":40000,"
    "\"weibull_shape\":2,\"hot_spot_fraction\":0.25,\"hot_spot_severity\":8,"
    "\"writes_per_step\":1000},\"arrival_period_batches\":2},\"hardware\":{"
    "\"num_tiles\":1,\"clip_threshold\":1,\"match_sa0\":1,\"match_sa1\":4,"
    "\"spare_column_fraction\":0.15,\"max_adjacency_pool\":48,\"online\":{"
    "\"detect_period_batches\":2,\"march_window\":8,"
    "\"readback_tolerance\":0.05,\"spare_columns\":4,\"reprogram_pulses\":3}}},"
    "\"run\":{\"scheme\":\"Online FARe\",\"total_mapping_cost\":3.25,"
    "\"bist_scans\":2,\"wear_faults\":17,\"online\":{\"detection_rounds\":5,"
    "\"march_cell_ops\":100,\"readback_checks\":20,\"faults_detected\":9,"
    "\"soft_repaired\":6,\"repair_writes\":18,\"columns_substituted\":2,"
    "\"crossbars_exhausted\":0,\"latency_steps_sum\":11,"
    "\"latency_samples\":4,\"detect_seconds\":0.125,"
    "\"repair_seconds\":0.0625},\"train\":{\"test_accuracy\":0.625,"
    "\"test_macro_f1\":0.5,\"preprocess_seconds\":0.2,\"train_seconds\":3,"
    "\"curve\":[[0.9,0.25,0.3]]}},\"deployment\":{\"trained_accuracy\":0,"
    "\"deployed_accuracy\":0},\"from_cache\":false,\"wall_seconds\":3.5,"
    "\"plan_index\":0}}";

TEST(SerializationTest, SchemaV2LineParsesWithDefaults) {
    const Expected<CellRecord> back = cell_record_from_json(kV2Line);
    ASSERT_TRUE(back.ok()) << back.error();
    const CellRecord& record = back.value();
    EXPECT_EQ(record.schema, 2);
    EXPECT_EQ(record.key, "k-v2");
    const CellSpec& spec = record.result.spec;
    EXPECT_EQ(spec.workload.family, "gnn");
    EXPECT_EQ(spec.workload.dataset, "PPI");
    // v3+ fields default, not fail:
    EXPECT_DOUBLE_EQ(spec.faults.soft_error_rate, 0.0);
    EXPECT_EQ(record.result.run.online.detection_rounds, 0u);
    // v4+ fields default:
    EXPECT_TRUE(spec.partitioner.empty());
    EXPECT_FALSE(spec.hardware.partition_aware_mapping);
    EXPECT_EQ(record.result.run.train.partition_quality.parts, 0);
    // v5 fields default:
    EXPECT_DOUBLE_EQ(spec.hardware.prune_fraction, 0.0);
    EXPECT_DOUBLE_EQ(record.result.run.train.test_accuracy, 0.75);
    // The defaulted spec re-serializes as a valid current-version body.
    CellRecord rewritten = record;
    rewritten.schema = kCellJsonSchemaVersion;
    EXPECT_TRUE(cell_record_from_json(cell_record_to_json(rewritten)).ok());
}

TEST(SerializationTest, SchemaV3LineParsesWithDefaults) {
    const Expected<CellRecord> back = cell_record_from_json(kV3Line);
    ASSERT_TRUE(back.ok()) << back.error();
    const CellRecord& record = back.value();
    EXPECT_EQ(record.schema, 3);
    // Present-in-v3 fields survive:
    EXPECT_DOUBLE_EQ(record.result.spec.faults.soft_error_rate, 0.004);
    EXPECT_EQ(record.result.spec.hardware.online.detect_period_batches, 2u);
    EXPECT_EQ(record.result.run.online.faults_detected, 9u);
    ASSERT_EQ(record.result.run.train.curve.size(), 1u);
    // v4/v5 fields default:
    EXPECT_TRUE(record.result.spec.partitioner.empty());
    EXPECT_DOUBLE_EQ(record.result.run.off_tile_block_fraction, 0.0);
    EXPECT_DOUBLE_EQ(record.result.spec.hardware.prune_fraction, 0.0);
}

TEST(SerializationTest, SchemaV4LineIsTheV5GnnBodyVerbatim) {
    // For a GNN spec with no pruning the v5 writer emits a byte-for-byte v4
    // body (family and prune_fraction are written only off their defaults) —
    // so a v4 line is exactly a v5 line with an older stamp, and it parses.
    CellRecord record;
    record.plan = "smoke";
    record.key = "k-v4";
    record.result = sample_result();
    std::string line = cell_record_to_json(record);
    const std::string v5_stamp =
        "{\"schema\":" + std::to_string(kCellJsonSchemaVersion) + ",";
    ASSERT_EQ(line.find(v5_stamp), 0u);
    line.replace(0, v5_stamp.size(), "{\"schema\":4,");
    const Expected<CellRecord> back = cell_record_from_json(line);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value().schema, 4);
    EXPECT_EQ(back.value().result.spec.key(), record.result.spec.key());
}

TEST(SerializationTest, PreV2SchemaIsStillSkipped) {
    CellRecord record;
    record.schema = 1;
    record.key = "k-v1";
    record.result = sample_result();
    const Expected<CellRecord> back =
        cell_record_from_json(cell_record_to_json(record));
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().find("schema version"), std::string::npos);
}

TEST(SerializationTest, TransformerPruneSpecRoundTripsByteExactly) {
    CellResult r;
    r.spec.workload = find_workload("transformer", "SeqCls");
    r.spec.scheme = Scheme::kFARe;
    r.spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    r.spec.hardware.prune_fraction = 0.25;
    r.spec.seed = 9;
    const std::string json = cell_result_to_json(r);
    // v5 fields are present for a non-default spec...
    EXPECT_NE(json.find("\"family\":\"transformer\""), std::string::npos);
    EXPECT_NE(json.find("\"model\":\"Transformer\""), std::string::npos);
    EXPECT_NE(json.find("\"prune_fraction\":0.25"), std::string::npos);
    // ...and survive the canonical-bytes contract: parse + re-serialize is
    // byte-identical and the memo key (family tag, prune block) round-trips.
    const Expected<JsonValue> doc = parse_json(json);
    ASSERT_TRUE(doc.ok()) << doc.error();
    const Expected<CellResult> back = cell_result_from_json(doc.value());
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(cell_result_to_json(back.value()), json);
    EXPECT_EQ(back.value().spec.key(), r.spec.key());
    EXPECT_EQ(back.value().spec.workload.family, "transformer");
    EXPECT_DOUBLE_EQ(back.value().spec.hardware.prune_fraction, 0.25);
}

TEST(SerializationTest, MismatchedFamilyModelIsCorrupt) {
    // A hand-edited record whose model does not belong to its family must
    // land in the corrupt-record channel, not silently remap.
    CellRecord record;
    record.key = "k-bad";
    record.result.spec.workload = find_workload("transformer", "SeqCls");
    const Expected<CellRecord> back =
        cell_record_from_json(with_value(cell_record_to_json(record), "model", "\"GCN\""));
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().find("does not match"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Seeded mutations of records, wire frames and the golden display lines:
// every input reads as a value or fails as an Expected error, and what is
// accepted re-serialises to bytes that read back to the same bytes.
// ---------------------------------------------------------------------------

/// Record lines the mutations start from: the v2 and v3 fixtures, and v5
/// records of a GNN cell, a pruned transformer cell and a cell with online
/// stats and a curve.
std::vector<std::string> record_seeds() {
    CellRecord gnn;
    gnn.plan = "smoke";
    gnn.key = "k-gnn";
    gnn.plan_index = 1;
    gnn.result.spec.workload = find_workload("PPI", GnnKind::kGCN);
    gnn.result.run.train.test_accuracy = 0.5;
    CellRecord transformer = gnn;
    transformer.key = "k-transformer";
    transformer.result.spec.workload = find_workload("transformer", "SeqCls");
    transformer.result.spec.hardware.prune_fraction = 0.25;
    CellRecord online = gnn;
    online.key = "k-online";
    online.result = sample_result();
    return {kV2Line, kV3Line, cell_record_to_json(gnn), cell_record_to_json(transformer),
            cell_record_to_json(online)};
}

/// Assign frames of the three record seeds' specs, and submit frames with
/// and without an epoch override.
std::vector<std::string> frame_seeds() {
    std::vector<std::string> frames;
    for (const std::string& line : record_seeds())
        frames.push_back(
            net::encode_message(net::make_assign(7, cell_record_from_json(line).value().result.spec)));
    frames.push_back(net::encode_message(net::make_submit("smoke", 2)));
    frames.push_back(net::encode_message(net::make_submit("fig5", std::nullopt)));
    return frames;
}

/// Every line of tests/golden/*.json (the display format), in file-name
/// order.
std::vector<std::string> golden_seeds() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(FARE_GOLDEN_DIR))
        if (entry.path().extension() == ".json") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::vector<std::string> lines;
    for (const std::filesystem::path& file : files) {
        std::ifstream in(file, std::ios::binary);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    return lines;
}

/// Where each member key of `line` opens.
std::vector<std::size_t> member_keys(const std::string& line) {
    std::vector<std::size_t> keys;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] != '"') continue;
        std::size_t end = i + 1;
        while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
        if (end + 1 < line.size() && line[end + 1] == ':') keys.push_back(i);
        i = end;
    }
    return keys;
}

/// One seeded mutation of `line`; `other` is its splice partner.
std::string mutate(std::string line, const std::string& other, Rng& rng) {
    const auto at = [&rng](const std::string& s) { return rng.next_below(s.size()); };
    switch (rng.next_below(5)) {
        case 0:  // truncate
            return line.substr(0, at(line));
        case 1:  // flip bytes
            for (std::uint64_t n = 1 + rng.next_below(4); n > 0; --n)
                line[at(line)] = static_cast<char>(rng.next_below(256));
            return line;
        case 2:  // splice two lines
            return line.substr(0, at(line)) + other.substr(at(other));
        case 3:  // drop one or two members
            for (std::uint64_t n = 1 + rng.next_below(2); n > 0; --n) {
                const std::vector<std::size_t> keys = member_keys(line);
                if (keys.empty()) break;
                line = erase_member(line, keys[rng.next_below(keys.size())]);
            }
            return line;
        default: {  // a number out of its field's range
            static const char* const kWide[] = {
                "4294967296", "4294967297", "2147483648", "9223372036854775808",
                "18446744073709551616", "-1", "1.5", "1e39", "1e999", "-1e999"};
            std::vector<std::size_t> numbers;
            for (std::size_t i = 1; i < line.size(); ++i)
                if ((line[i - 1] == ':' || line[i - 1] == ',' || line[i - 1] == '[') &&
                    (line[i] == '-' || std::isdigit(static_cast<unsigned char>(line[i]))))
                    numbers.push_back(i);
            if (numbers.empty()) return line;
            const std::size_t begin = numbers[rng.next_below(numbers.size())];
            return line.replace(begin, value_end(line, begin) - begin,
                                kWide[rng.next_below(std::size(kWide))]);
        }
    }
}

/// `value` written back as JSON: members and items in order, numbers as
/// their raw tokens, strings through json_escape.
std::string to_json(const JsonValue& value) {
    switch (value.kind) {
        case JsonValue::Kind::kNull: return "null";
        case JsonValue::Kind::kBool: return value.boolean ? "true" : "false";
        case JsonValue::Kind::kNumber: return value.text;
        case JsonValue::Kind::kString: return '"' + json_escape(value.text) + '"';
        case JsonValue::Kind::kObject: {
            std::string out = "{";
            for (const auto& [key, member] : value.members)
                out += (out.size() > 1 ? ",\"" : "\"") + json_escape(key) + "\":" + to_json(member);
            return out + '}';
        }
        case JsonValue::Kind::kArray: {
            std::string out = "[";
            for (const JsonValue& item : value.items)
                out += (out.size() > 1 ? "," : "") + to_json(item);
            return out + ']';
        }
    }
    return "";
}

/// `line` read as a JSON document, as a record, as a frame and, from its
/// "result" key on, as a result frame: each is a value or an Expected error,
/// and an accepted one re-serialises to bytes that read back to the same
/// bytes.
void expect_stable(const std::string& line) {
    if (const Expected<JsonValue> doc = parse_json(line)) {
        const std::string bytes = to_json(doc.value());
        const Expected<JsonValue> again = parse_json(bytes);
        ASSERT_TRUE(again.ok()) << again.error() << "\n" << line;
        EXPECT_EQ(to_json(again.value()), bytes) << line;
    }
    if (const Expected<CellRecord> record = cell_record_from_json(line)) {
        const std::string bytes = cell_record_to_json(record.value());
        const Expected<CellRecord> again = cell_record_from_json(bytes);
        ASSERT_TRUE(again.ok()) << again.error() << "\n" << line;
        EXPECT_EQ(cell_record_to_json(again.value()), bytes) << line;
    }
    const std::size_t result = line.find("\"result\":");
    const std::string result_frame =
        "{\"type\":\"result\",\"job\":7," +
        (result == std::string::npos ? line : line.substr(result));
    for (const std::string& frame : {line, result_frame})
        if (const Expected<net::WireMessage> message = net::decode_message(frame)) {
            const std::string bytes = net::encode_message(message.value());
            const Expected<net::WireMessage> again = net::decode_message(bytes);
            ASSERT_TRUE(again.ok()) << again.error() << "\n" << frame;
            EXPECT_EQ(net::encode_message(again.value()), bytes) << frame;
        }
}

/// Seeded mutations per fuzz run. FARE_FUZZ_SCALE (CMakeLists.txt) is 10 in
/// the FARE_SANITIZE build, where a bad read aborts, and 1 otherwise.
constexpr int kRecordMutations = 4000 * FARE_FUZZ_SCALE;
constexpr int kFrameMutations = 2000 * FARE_FUZZ_SCALE;
constexpr int kGoldenMutations = 2000 * FARE_FUZZ_SCALE;

/// Feeds every seed, every single-member deletion of it and `mutations`
/// seeded mutations (partners drawn from the same seeds) to expect_stable.
/// Returns how many inputs `accepts` took.
template <class Accepts>
std::size_t fuzz(const std::vector<std::string>& seeds, int mutations, std::uint64_t seed,
                 Accepts&& accepts) {
    std::size_t accepted = 0;
    for (const std::string& line : seeds) {
        EXPECT_TRUE(accepts(line)) << line;
        expect_stable(line);
        for (const std::size_t key : member_keys(line)) {  // every single deletion
            const std::string deleted = erase_member(line, key);
            accepted += accepts(deleted);
            expect_stable(deleted);
        }
    }
    Rng rng(seed);
    for (int i = 0; i < mutations; ++i) {
        const std::string& line = seeds[rng.next_below(seeds.size())];
        const std::string& other = seeds[rng.next_below(seeds.size())];
        const std::string mutated = mutate(line, other, rng);
        accepted += accepts(mutated);
        expect_stable(mutated);
        if (::testing::Test::HasFatalFailure()) break;
    }
    return accepted;
}

TEST(SerializationTest, MutatedRecordsAndFramesFailCleanly) {
    // Deleting an optional row keeps a record readable, and deleting a
    // submit frame's epochs or an assign spec's optional row keeps a frame
    // readable, so both outcomes ran.
    EXPECT_GT(fuzz(record_seeds(), kRecordMutations, 0xFA2E,
                   [](const std::string& line) { return cell_record_from_json(line).ok(); }),
              0u);
    if (HasFatalFailure()) return;
    EXPECT_GT(fuzz(frame_seeds(), kFrameMutations, 0xFA2F,
                   [](const std::string& line) { return net::decode_message(line).ok(); }),
              0u);
}

TEST(SerializationTest, MutatedGoldenLinesFailCleanly) {
    const std::vector<std::string> lines = golden_seeds();
    ASSERT_GE(lines.size(), 50u) << "golden files under " FARE_GOLDEN_DIR;
    // Dropping a member leaves a valid JSON object, so both outcomes ran.
    EXPECT_GT(fuzz(lines, kGoldenMutations, 0x601D,
                   [](const std::string& line) { return parse_json(line).ok(); }),
              0u);
}

}  // namespace
}  // namespace fare
