#include "sim/serialization.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/table.hpp"

namespace fare {

namespace {

std::string json_num(double v) { return fmt_exact(v); }

}  // namespace

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over one document. Internal errors throw
// std::runtime_error; the public entry points convert to Expected.
// ---------------------------------------------------------------------------

namespace {

class JsonParser {
public:
    JsonParser(const std::string& text, const JsonLimits& limits)
        : text_(text), limits_(limits) {}

    JsonValue parse_document() {
        if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes)
            fail("document exceeds " + std::to_string(limits_.max_bytes) +
                 " bytes");
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        const char c = peek();
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::kString;
            v.text = parse_string();
            return v;
        }
        if (consume_literal("true")) {
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            v.boolean = true;
            return v;
        }
        if (consume_literal("false")) {
            JsonValue v;
            v.kind = JsonValue::Kind::kBool;
            return v;
        }
        if (consume_literal("null")) return JsonValue{};
        return parse_number();
    }

    /// RAII nesting guard: every object/array level checks the depth cap, so
    /// an adversarial peer's deeply nested document fails with an Expected
    /// error instead of overflowing the parser's call stack.
    struct DepthGuard {
        explicit DepthGuard(JsonParser& p) : parser(p) {
            if (++parser.depth_ > parser.limits_.max_depth)
                parser.fail("nesting deeper than " +
                            std::to_string(parser.limits_.max_depth) +
                            " levels");
        }
        ~DepthGuard() { --parser.depth_; }
        JsonParser& parser;
    };

    JsonValue parse_object() {
        const DepthGuard guard(*this);
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.members.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parse_array() {
        const DepthGuard guard(*this);
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    unsigned parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail("bad \\u escape digit");
        }
        return code;
    }

    static void append_utf8(std::string& out, unsigned code) {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    // External tools escape freely, so decode the full BMP
                    // (and astral planes via surrogate pairs), emitting
                    // UTF-8 — a non-Latin-1 escape must not classify the
                    // whole record as corrupt.
                    unsigned code = parse_hex4();
                    if (code >= 0xDC00 && code <= 0xDFFF)
                        fail("unpaired low surrogate in \\u escape");
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u')
                            fail("unpaired high surrogate in \\u escape");
                        pos_ += 2;
                        const unsigned low = parse_hex4();
                        if (low < 0xDC00 || low > 0xDFFF)
                            fail("invalid low surrogate in \\u escape");
                        code = 0x10000 + ((code - 0xD800) << 10) +
                               (low - 0xDC00);
                    }
                    append_utf8(out, code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                c == 'e' || c == 'E' || c == '+' || c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) fail("expected a value");
        JsonValue v;
        v.kind = JsonValue::Kind::kNumber;
        v.text = text_.substr(start, pos_ - start);
        // Validate the token now so as_double() can't fail later.
        char* end = nullptr;
        std::strtod(v.text.c_str(), &end);
        if (end != v.text.c_str() + v.text.size()) fail("malformed number");
        return v;
    }

    const std::string& text_;
    JsonLimits limits_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

[[noreturn]] void bad_field(const std::string& what) {
    throw std::runtime_error("cell record: " + what);
}

/// Member `key` of `v`; nullptr when it is absent and not `required`.
const JsonValue* find_member(const JsonValue& v, const char* key, bool required) {
    const JsonValue* m = v.find(key);
    if (!m && required) bad_field(std::string("missing field '") + key + "'");
    return m;
}

const JsonValue& member(const JsonValue& v, const char* key) {
    return *find_member(v, key, true);
}

/// One field value of type T from its member `m` named `key`.
template <class T>
T read_value(const JsonValue& m, const char* key) {
    if constexpr (std::is_same_v<T, bool>) {
        return m.as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        return m.as_string();
    } else if constexpr (std::is_floating_point_v<T>) {
        // A value T holds only as an infinity (1e999, or 1e39 for a float)
        // would be written back as "inf", which no JSON reader accepts.
        const T v = static_cast<T>(m.as_double());
        if (!std::isfinite(v)) bad_field(std::string("field '") + key + "' out of range");
        return v;
    } else if constexpr (std::is_same_v<T, Scheme>) {
        const Expected<Scheme> scheme = parse_scheme(m.as_string());
        if (!scheme) bad_field(scheme.error());
        return scheme.value();
    } else if constexpr (std::is_same_v<T, std::vector<EpochStats>>) {
        if (m.kind != JsonValue::Kind::kArray) bad_field("curve not an array");
        T curve;
        for (const JsonValue& point : m.items) {
            if (point.kind != JsonValue::Kind::kArray || point.items.size() != 3)
                bad_field("curve point is not [loss, train, val]");
            curve.push_back({read_value<float>(point.items[0], key),
                             read_value<double>(point.items[1], key),
                             read_value<double>(point.items[2], key)});
        }
        return curve;
    } else {
        return json_integer<T>(m, key);
    }
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

double JsonValue::as_double() const {
    if (kind != Kind::kNumber) bad_field("expected a number");
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t JsonValue::as_u64(std::uint64_t max) const {
    // strtoull alone is a trap here: it wraps negative input ("-1" becomes
    // 2^64-1) and saturates silently past ULLONG_MAX, so a hand-edited seed
    // would round-trip as a different cell instead of failing loudly.
    if (kind != Kind::kNumber)
        throw std::runtime_error("expected an unsigned integer, got a " +
                                 std::string(kind == Kind::kString
                                                 ? "string"
                                                 : "non-number value"));
    if (!text.empty() && text[0] == '-')
        throw std::runtime_error("expected an unsigned integer, got '" + text +
                                 "'");
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        throw std::runtime_error("expected an unsigned integer, got '" + text +
                                 "'");
    if (errno == ERANGE || v > max)
        throw std::runtime_error("unsigned integer out of range: '" + text +
                                 "'");
    return v;
}

bool JsonValue::as_bool() const {
    if (kind != Kind::kBool) bad_field("expected a bool");
    return boolean;
}

const std::string& JsonValue::as_string() const {
    if (kind != Kind::kString) bad_field("expected a string");
    return text;
}

Expected<JsonValue> parse_json(const std::string& text, JsonLimits limits) {
    try {
        return JsonParser(text, limits).parse_document();
    } catch (const std::runtime_error& e) {
        return Expected<JsonValue>::failure(e.what());
    }
}

// ---------------------------------------------------------------------------
// Full-fidelity CellResult round trip.
// ---------------------------------------------------------------------------

namespace {

/// Rows introduced from this version on are written only off their default,
/// so a record that does not use them keeps its older bytes.
constexpr int kSparseSince = 5;

/// The two field tables as callables the templates below take.
constexpr auto chip_fields = [](auto&& visit) { visit_fields(visit); };
constexpr auto result_fields = [](auto&& visit) { visit_result_fields(visit); };

template <class T>
void write_value(std::ostream& os, const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
        os << (value ? "true" : "false");
    } else if constexpr (std::is_same_v<T, std::string>) {
        os << '"' << json_escape(value) << '"';
    } else if constexpr (std::is_floating_point_v<T>) {
        os << json_num(value);
    } else if constexpr (std::is_same_v<T, Scheme>) {
        os << '"' << scheme_name(value) << '"';
    } else if constexpr (std::is_same_v<T, std::vector<EpochStats>>) {
        os << '[';
        for (std::size_t i = 0; i < value.size(); ++i)
            os << (i ? "," : "") << '[' << json_num(value[i].train_loss) << ','
               << json_num(value[i].train_accuracy) << ','
               << json_num(value[i].val_accuracy) << ']';
        os << ']';
    } else {
        os << value;
    }
}

/// The rows of `table` for `object` in record order, each opening and
/// closing the blocks its row lives in, after members already written.
template <class Object, class Table>
void write_fields(std::ostream& os, const Object& object, Table table) {
    static const Object defaults;
    std::string_view open[3];  // the blocks the writer is inside
    const char* sep = ",";
    table([&](const auto& field) {
        const auto& value = field.of(object);
        if (field.since >= kSparseSince && value == field.of(defaults)) return;
        const auto& path = field.block.path;
        int depth = 0;  // the blocks this row shares with the previous one
        while (depth < 3 && path[depth] && open[depth] == path[depth]) ++depth;
        for (int d = 2; d >= depth; --d) {  // leave the others
            if (!open[d].empty()) os << '}';
            open[d] = {};
        }
        for (; depth < 3 && path[depth]; ++depth) {  // enter this row's own
            os << sep << '"' << path[depth] << "\":{";
            open[depth] = path[depth];
            sep = "";
        }
        os << sep << '"' << field.name << "\":";
        write_value(os, value);
        sep = ",";
    });
    for (const std::string_view block : open)
        if (!block.empty()) os << '}';
}

/// Reads the rows of `table` for `object` from `json`, a record of version
/// `schema`. A row is required when `schema` is at least the version that
/// introduced it, unless it is written only off its default; an absent row
/// keeps its default.
template <class Object, class Table>
void read_fields(const JsonValue& json, Object& object, int schema, Table table) {
    table([&](const auto& field) {
        using Value = std::decay_t<decltype(field.of(object))>;
        const bool required = field.since < kSparseSince && schema >= field.since;
        const JsonValue* m = &json;
        for (const char* key : field.block.path) {
            if (!key || !m) break;
            m = find_member(*m, key, required);
            if (m && m->kind != JsonValue::Kind::kObject)
                bad_field(std::string("field '") + key + "' is not an object");
        }
        if (m) m = find_member(*m, field.name, required);
        if (m) field.of(object) = read_value<Value>(*m, field.name);
    });
}

}  // namespace

std::string cell_spec_to_json(const CellSpec& s) {
    std::ostringstream os;
    os << "{"
       << "\"dataset\":\"" << json_escape(s.workload.dataset) << "\""
       << ",\"model\":\"" << json_escape(s.workload.model_name()) << "\"";
    // The family tag follows the cell-key convention: written only off the
    // "gnn" default, so pre-v5 tooling diffing GNN records sees no new field.
    if (s.workload.family != "gnn")
        os << ",\"family\":\"" << json_escape(s.workload.family) << "\"";
    os << ",\"scheme\":\"" << scheme_name(s.scheme) << "\""
       << ",\"mode\":\"" << cell_mode_name(s.mode) << "\""
       << ",\"seed\":" << s.seed << ",\"hardware_seed\":"
       << (s.hardware_seed ? std::to_string(*s.hardware_seed) : "null")
       << ",\"record_curve\":" << (s.record_curve ? "true" : "false")
       << ",\"epochs\":" << (s.epochs ? std::to_string(*s.epochs) : "null");
    write_fields(os, s, chip_fields);
    os << '}';
    return os.str();
}

std::string cell_result_to_json(const CellResult& r) {
    std::ostringstream os;
    os << "{\"spec\":" << cell_spec_to_json(r.spec);
    write_fields(os, r, result_fields);
    os << '}';
    return os.str();
}

namespace {

/// Shared spec decoder; throws through bad_field / InvalidArgument (the
/// public entry points fold every throw into an Expected).
CellSpec spec_from_json_impl(const JsonValue& spec, int schema) {
    CellSpec s;
    const JsonValue* family_tag = spec.find("family");  // v5, only off "gnn"
    const std::string family = family_tag ? family_tag->as_string() : "gnn";
    const std::string& model = member(spec, "model").as_string();
    if (family == "gnn") {
        const Expected<GnnKind> kind = parse_gnn_kind(model);
        if (!kind) bad_field(kind.error());
        s.workload =
            find_workload(member(spec, "dataset").as_string(), kind.value());
    } else {
        s.workload = find_workload(family, member(spec, "dataset").as_string());
        if (s.workload.model_name() != model)
            bad_field("model '" + model + "' does not match workload model '" +
                      s.workload.model_name() + "' in family '" + family + "'");
    }
    s.scheme = read_value<Scheme>(member(spec, "scheme"), "scheme");
    const std::string& mode = member(spec, "mode").as_string();
    if (mode != "train" && mode != "deploy") bad_field("bad mode: " + mode);
    s.mode = mode == "deploy" ? CellMode::kDeploy : CellMode::kTrain;
    s.seed = json_integer<std::uint64_t>(member(spec, "seed"), "seed");
    const JsonValue& hw_seed = member(spec, "hardware_seed");
    if (hw_seed.kind != JsonValue::Kind::kNull)
        s.hardware_seed = json_integer<std::uint64_t>(hw_seed, "hardware_seed");
    s.record_curve = member(spec, "record_curve").as_bool();
    const JsonValue& epochs = member(spec, "epochs");
    if (epochs.kind != JsonValue::Kind::kNull)
        s.epochs = json_integer<std::size_t>(epochs, "epochs");
    read_fields(spec, s, schema, chip_fields);
    return s;
}

}  // namespace

Expected<CellSpec> cell_spec_from_json(const JsonValue& value) {
    try {
        return spec_from_json_impl(value, kCellJsonSchemaVersion);
    } catch (const std::exception& e) {
        // find_workload throws InvalidArgument on unknown workloads; fold it
        // into the same corrupt-record channel as structural errors.
        return Expected<CellSpec>::failure(e.what());
    }
}

Expected<CellResult> cell_result_from_json(const JsonValue& v, int schema) {
    try {
        CellResult r;
        r.spec = spec_from_json_impl(member(v, "spec"), schema);
        const std::string range_error = chip_field_error(r.spec);
        if (!range_error.empty()) bad_field(range_error);
        read_fields(v, r, schema, result_fields);
        return r;
    } catch (const std::exception& e) {
        return Expected<CellResult>::failure(e.what());
    }
}

std::string cell_record_to_json(const CellRecord& record) {
    std::ostringstream os;
    os << "{\"schema\":" << record.schema << ",\"plan\":\""
       << json_escape(record.plan) << "\",\"key\":\"" << json_escape(record.key)
       << "\",\"plan_index\":" << record.plan_index
       << ",\"result\":" << cell_result_to_json(record.result) << '}';
    return os.str();
}

Expected<CellRecord> cell_record_from_json(const std::string& line) {
    const Expected<JsonValue> doc = parse_json(line);
    if (!doc) return Expected<CellRecord>::failure(doc.error());
    const JsonValue& v = doc.value();
    try {
        CellRecord record;
        record.schema = json_integer<int>(member(v, "schema"), "schema");
        if (record.schema < kMinCellJsonSchemaVersion ||
            record.schema > kCellJsonSchemaVersion)
            bad_field("schema version " + std::to_string(record.schema) +
                      " outside [" + std::to_string(kMinCellJsonSchemaVersion) +
                      ", " + std::to_string(kCellJsonSchemaVersion) + "]");
        record.plan = member(v, "plan").as_string();
        record.key = member(v, "key").as_string();
        record.plan_index = json_integer<std::size_t>(member(v, "plan_index"), "plan_index");
        Expected<CellResult> result =
            cell_result_from_json(member(v, "result"), record.schema);
        if (!result) return Expected<CellRecord>::failure(result.error());
        record.result = std::move(result).value();
        return record;
    } catch (const std::runtime_error& e) {
        return Expected<CellRecord>::failure(e.what());
    }
}

// ---------------------------------------------------------------------------
// Display format (bench/out/BENCH_*.json lines) — unchanged since PR 1.
// ---------------------------------------------------------------------------

std::string cell_to_json(const std::string& plan_name, std::size_t index,
                         const CellResult& r) {
    const CellSpec& s = r.spec;
    std::ostringstream os;
    os << '{' << "\"plan\":\"" << json_escape(plan_name) << "\",\"cell\":" << index
       << ",\"workload\":\"" << json_escape(s.workload.label()) << "\""
       << ",\"dataset\":\"" << json_escape(s.workload.dataset) << "\""
       << ",\"model\":\"" << json_escape(s.workload.model_name()) << "\"";
    // Family tag only off the "gnn" default: GNN display lines (and the
    // committed BENCH_*.json baselines diffed by CI) stay byte-identical.
    if (s.workload.family != "gnn")
        os << ",\"family\":\"" << json_escape(s.workload.family) << "\"";
    os << ",\"scheme\":\"" << scheme_name(s.scheme) << "\""
       << ",\"mode\":\"" << cell_mode_name(s.mode) << "\""
       << ",\"density\":" << json_num(s.faults.density)
       << ",\"sa1_fraction\":" << json_num(s.faults.sa1_fraction)
       << ",\"post_total_density\":" << json_num(s.faults.post_total_density)
       << ",\"read_noise_sigma\":" << json_num(s.faults.read_noise_sigma)
       << ",\"endurance_mean\":" << json_num(s.faults.wear.endurance_mean_writes)
       << ",\"hot_spot_fraction\":" << json_num(s.faults.wear.hot_spot_fraction)
       << ",\"arrival_period\":" << s.faults.arrival_period_batches
       << ",\"seed\":" << s.seed << ",\"accuracy\":" << json_num(r.accuracy());
    if (s.mode == CellMode::kTrain) {
        os << ",\"macro_f1\":" << json_num(r.run.train.test_macro_f1)
           << ",\"preprocess_seconds\":" << json_num(r.run.train.preprocess_seconds)
           << ",\"train_seconds\":" << json_num(r.run.train.train_seconds)
           << ",\"mapping_cost\":" << json_num(r.run.total_mapping_cost)
           << ",\"bist_scans\":" << r.run.bist_scans
           << ",\"wear_faults\":" << r.run.wear_faults
           << ",\"detection_rounds\":" << r.run.online.detection_rounds
           << ",\"repair_writes\":" << r.run.online.repair_writes
           << ",\"columns_substituted\":" << r.run.online.columns_substituted
           << ",\"crossbars_exhausted\":" << r.run.online.crossbars_exhausted
           << ",\"detect_seconds\":" << json_num(r.run.online.detect_seconds)
           << ",\"repair_seconds\":" << json_num(r.run.online.repair_seconds)
           // Partition-quality block (appended by the partitioner PR): the
           // algorithm that actually ran plus its quality metrics, and the
           // off-tile traffic the mapping produced.
           << ",\"partitioner\":\""
           << json_escape(r.run.train.partition_quality.algo) << "\""
           << ",\"edge_cut_rate\":"
           << json_num(r.run.train.partition_quality.edge_cut_rate)
           << ",\"partition_balance\":"
           << json_num(r.run.train.partition_quality.beta)
           << ",\"replication_factor\":"
           << json_num(r.run.train.partition_quality.replication_factor)
           << ",\"off_tile_fraction\":"
           << json_num(r.run.off_tile_block_fraction)
           << ",\"inter_tile_seconds\":" << json_num(r.run.inter_tile_seconds);
    } else {
        os << ",\"trained_accuracy\":" << json_num(r.deployment.trained_accuracy)
           << ",\"deployed_accuracy\":" << json_num(r.deployment.deployed_accuracy);
    }
    os << ",\"from_cache\":" << (r.from_cache ? "true" : "false")
       << ",\"wall_seconds\":" << json_num(r.wall_seconds) << '}';
    return os.str();
}

}  // namespace fare
