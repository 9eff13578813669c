#include "sim/serialization.hpp"

#include <cctype>
#include <cerrno>
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

const JsonValue& member(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (!m) bad_field(std::string("missing field '") + key + "'");
    return *m;
}

double dnum(const JsonValue& v, const char* key) {
    return member(v, key).as_double();
}

/// as_u64 with the field name folded into the error (a hand-edited "-1"
/// should say which field it broke).
std::uint64_t u64_value(const JsonValue& m, const char* key) {
    try {
        return m.as_u64();
    } catch (const std::runtime_error& e) {
        bad_field(std::string("field '") + key + "': " + e.what());
    }
}

std::uint64_t u64(const JsonValue& v, const char* key) {
    return u64_value(member(v, key), key);
}

// Optional-member lookups for the ranged reader: a field introduced after the
// record's schema version is simply absent, and takes its spec default. A
// field that IS present but malformed still fails loudly.
double dnum_or(const JsonValue& v, const char* key, double fallback) {
    const JsonValue* m = v.find(key);
    return m ? m->as_double() : fallback;
}

std::string string_or(const JsonValue& v, const char* key,
                      const std::string& fallback) {
    const JsonValue* m = v.find(key);
    return m ? m->as_string() : fallback;
}

/// One chip-field value of type T from its member `m` named `key`.
template <class T>
T read_value(const JsonValue& m, const char* key) {
    if constexpr (std::is_same_v<T, bool>)
        return m.as_bool();
    else if constexpr (std::is_same_v<T, std::string>)
        return m.as_string();
    else if constexpr (std::is_floating_point_v<T>)
        return static_cast<T>(m.as_double());
    else
        return static_cast<T>(u64_value(m, key));
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

double JsonValue::as_double() const {
    if (kind != Kind::kNumber) bad_field("expected a number");
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t JsonValue::as_u64() const {
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
    if (errno == ERANGE)
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

template <class T>
void write_value(std::ostream& os, const T& value) {
    if constexpr (std::is_same_v<T, bool>)
        os << (value ? "true" : "false");
    else if constexpr (std::is_same_v<T, std::string>)
        os << '"' << json_escape(value) << '"';
    else if constexpr (std::is_floating_point_v<T>)
        os << json_num(value);
    else
        os << value;
}

/// The chip fields of `s` in record order, each opening and closing the
/// blocks its row lives in. Fields since v5 are written only off their
/// default, so an older reader's records keep their exact bytes.
void write_chip_fields(std::ostream& os, const CellSpec& s) {
    static const CellSpec defaults;
    std::string_view open[2] = {"", ""};  // the blocks the writer is inside
    const char* sep = ",";                // the spec object has members already
    visit_fields([&](const auto& field) {
        const auto& value = field.of(s);
        if (field.since >= 5 && value == field.of(defaults)) return;
        const std::string_view block[2] = {field.block.outer, field.block.inner};
        for (int depth = 1; depth >= 0; --depth) {  // leave other blocks
            if (!open[depth].empty() &&
                (open[0] != block[0] || open[depth] != block[depth])) {
                os << '}';
                open[depth] = "";
            }
        }
        for (int depth = 0; depth < 2; ++depth) {  // enter this row's blocks
            if (open[depth] == block[depth]) continue;
            os << sep << '"' << block[depth] << "\":{";
            open[depth] = block[depth];
            sep = "";
        }
        os << sep << '"' << field.name << "\":";
        write_value(os, value);
        sep = ",";
    });
    for (int depth = 1; depth >= 0; --depth)
        if (!open[depth].empty()) os << '}';
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
    write_chip_fields(os, s);
    os << '}';
    return os.str();
}

std::string cell_result_to_json(const CellResult& r) {
    std::ostringstream os;
    os << "{\"spec\":" << cell_spec_to_json(r.spec)
       << ",\"run\":{\"scheme\":\"" << scheme_name(r.run.scheme) << "\""
       << ",\"total_mapping_cost\":" << json_num(r.run.total_mapping_cost)
       << ",\"bist_scans\":" << r.run.bist_scans
       << ",\"wear_faults\":" << r.run.wear_faults
       << ",\"online\":{"
       << "\"detection_rounds\":" << r.run.online.detection_rounds
       << ",\"march_cell_ops\":" << r.run.online.march_cell_ops
       << ",\"readback_checks\":" << r.run.online.readback_checks
       << ",\"faults_detected\":" << r.run.online.faults_detected
       << ",\"soft_repaired\":" << r.run.online.soft_repaired
       << ",\"repair_writes\":" << r.run.online.repair_writes
       << ",\"columns_substituted\":" << r.run.online.columns_substituted
       << ",\"crossbars_exhausted\":" << r.run.online.crossbars_exhausted
       << ",\"latency_steps_sum\":" << r.run.online.latency_steps_sum
       << ",\"latency_samples\":" << r.run.online.latency_samples
       << ",\"detect_seconds\":" << json_num(r.run.online.detect_seconds)
       << ",\"repair_seconds\":" << json_num(r.run.online.repair_seconds) << '}'
       << ",\"off_tile_block_fraction\":"
       << json_num(r.run.off_tile_block_fraction)
       << ",\"inter_tile_seconds\":" << json_num(r.run.inter_tile_seconds)
       << ",\"train\":{\"test_accuracy\":" << json_num(r.run.train.test_accuracy)
       << ",\"test_macro_f1\":" << json_num(r.run.train.test_macro_f1)
       << ",\"preprocess_seconds\":" << json_num(r.run.train.preprocess_seconds)
       << ",\"train_seconds\":" << json_num(r.run.train.train_seconds)
       << ",\"partition_quality\":{"
       << "\"algo\":\"" << json_escape(r.run.train.partition_quality.algo) << "\""
       << ",\"parts\":" << r.run.train.partition_quality.parts
       << ",\"edge_cut\":" << r.run.train.partition_quality.edge_cut
       << ",\"edge_cut_rate\":"
       << json_num(r.run.train.partition_quality.edge_cut_rate)
       << ",\"alpha\":" << json_num(r.run.train.partition_quality.alpha)
       << ",\"beta\":" << json_num(r.run.train.partition_quality.beta)
       << ",\"replication_factor\":"
       << json_num(r.run.train.partition_quality.replication_factor) << '}'
       << ",\"curve\":[";
    for (std::size_t i = 0; i < r.run.train.curve.size(); ++i) {
        const EpochStats& e = r.run.train.curve[i];
        os << (i ? "," : "") << '[' << json_num(e.train_loss) << ','
           << json_num(e.train_accuracy) << ',' << json_num(e.val_accuracy)
           << ']';
    }
    os << "]}}"
       << ",\"deployment\":{\"trained_accuracy\":"
       << json_num(r.deployment.trained_accuracy)
       << ",\"deployed_accuracy\":" << json_num(r.deployment.deployed_accuracy)
       << '}'
       << ",\"from_cache\":" << (r.from_cache ? "true" : "false")
       << ",\"wall_seconds\":" << json_num(r.wall_seconds)
       << ",\"plan_index\":" << r.plan_index << '}';
    return os.str();
}

namespace {

/// Shared spec decoder; throws through bad_field / InvalidArgument (the
/// public entry points fold every throw into an Expected).
CellSpec spec_from_json_impl(const JsonValue& spec) {
    CellSpec s;
    const std::string family = string_or(spec, "family", "gnn");
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
    const Expected<Scheme> scheme =
        parse_scheme(member(spec, "scheme").as_string());
    if (!scheme) bad_field(scheme.error());
    s.scheme = scheme.value();
    const std::string& mode = member(spec, "mode").as_string();
    if (mode != "train" && mode != "deploy") bad_field("bad mode: " + mode);
    s.mode = mode == "deploy" ? CellMode::kDeploy : CellMode::kTrain;
    s.seed = u64(spec, "seed");
    const JsonValue& hw_seed = member(spec, "hardware_seed");
    if (hw_seed.kind != JsonValue::Kind::kNull)
        s.hardware_seed = u64_value(hw_seed, "hardware_seed");
    s.record_curve = member(spec, "record_curve").as_bool();
    const JsonValue& epochs = member(spec, "epochs");
    if (epochs.kind != JsonValue::Kind::kNull)
        s.epochs = static_cast<std::size_t>(u64_value(epochs, "epochs"));
    // Chip fields: those introduced after v2 may be absent (an older
    // record) and keep their defaults.
    visit_fields([&](const auto& field) {
        using Field = std::decay_t<decltype(field)>;
        const auto find = [&](const JsonValue* in, const char* key) -> const JsonValue* {
            if (!in || *key == '\0') return in;
            return field.since > 2 ? in->find(key) : &member(*in, key);
        };
        const JsonValue* m = find(find(find(&spec, field.block.outer), field.block.inner),
                                  field.name);
        if (m) field.of(s) = read_value<typename Field::Value>(*m, field.name);
    });
    return s;
}

}  // namespace

Expected<CellSpec> cell_spec_from_json(const JsonValue& value) {
    try {
        return spec_from_json_impl(value);
    } catch (const std::exception& e) {
        // find_workload throws InvalidArgument on unknown workloads; fold it
        // into the same corrupt-record channel as structural errors.
        return Expected<CellSpec>::failure(e.what());
    }
}

Expected<CellResult> cell_result_from_json(const JsonValue& v) {
    try {
        CellResult r;
        r.spec = spec_from_json_impl(member(v, "spec"));
        const std::string range_error = chip_field_error(r.spec);
        if (!range_error.empty()) bad_field(range_error);

        const JsonValue& run = member(v, "run");
        const Expected<Scheme> run_scheme =
            parse_scheme(member(run, "scheme").as_string());
        if (!run_scheme) bad_field(run_scheme.error());
        r.run.scheme = run_scheme.value();
        r.run.total_mapping_cost = dnum(run, "total_mapping_cost");
        r.run.bist_scans = static_cast<std::size_t>(u64(run, "bist_scans"));
        r.run.wear_faults = static_cast<std::size_t>(u64(run, "wear_faults"));
        if (const JsonValue* online = run.find("online")) {  // v3
            OnlineToleranceStats& ol = r.run.online;
            ol.detection_rounds = u64(*online, "detection_rounds");
            ol.march_cell_ops = u64(*online, "march_cell_ops");
            ol.readback_checks = u64(*online, "readback_checks");
            ol.faults_detected = u64(*online, "faults_detected");
            ol.soft_repaired = u64(*online, "soft_repaired");
            ol.repair_writes = u64(*online, "repair_writes");
            ol.columns_substituted = u64(*online, "columns_substituted");
            ol.crossbars_exhausted = u64(*online, "crossbars_exhausted");
            // Latency persists as (sum, samples) raw integers — not the
            // derived mean — so the record round-trips byte-identically.
            ol.latency_steps_sum = u64(*online, "latency_steps_sum");
            ol.latency_samples = u64(*online, "latency_samples");
            ol.detect_seconds = dnum(*online, "detect_seconds");
            ol.repair_seconds = dnum(*online, "repair_seconds");
        }
        r.run.off_tile_block_fraction =
            dnum_or(run, "off_tile_block_fraction", 0.0);          // v4
        r.run.inter_tile_seconds = dnum_or(run, "inter_tile_seconds", 0.0);
        const JsonValue& train = member(run, "train");
        r.run.train.test_accuracy = dnum(train, "test_accuracy");
        r.run.train.test_macro_f1 = dnum(train, "test_macro_f1");
        r.run.train.preprocess_seconds = dnum(train, "preprocess_seconds");
        r.run.train.train_seconds = dnum(train, "train_seconds");
        if (const JsonValue* pq = train.find("partition_quality")) {  // v4
            PartitionQuality& quality = r.run.train.partition_quality;
            quality.algo = member(*pq, "algo").as_string();
            quality.parts = static_cast<int>(u64(*pq, "parts"));
            quality.edge_cut = static_cast<std::size_t>(u64(*pq, "edge_cut"));
            quality.edge_cut_rate = dnum(*pq, "edge_cut_rate");
            quality.alpha = dnum(*pq, "alpha");
            quality.beta = dnum(*pq, "beta");
            quality.replication_factor = dnum(*pq, "replication_factor");
        }
        const JsonValue& curve = member(train, "curve");
        if (curve.kind != JsonValue::Kind::kArray) bad_field("curve not an array");
        for (const JsonValue& point : curve.items) {
            if (point.kind != JsonValue::Kind::kArray || point.items.size() != 3)
                bad_field("curve point is not [loss, train, val]");
            EpochStats e;
            e.train_loss = static_cast<float>(point.items[0].as_double());
            e.train_accuracy = point.items[1].as_double();
            e.val_accuracy = point.items[2].as_double();
            r.run.train.curve.push_back(e);
        }

        const JsonValue& dep = member(v, "deployment");
        r.deployment.trained_accuracy = dnum(dep, "trained_accuracy");
        r.deployment.deployed_accuracy = dnum(dep, "deployed_accuracy");

        r.from_cache = member(v, "from_cache").as_bool();
        r.wall_seconds = dnum(v, "wall_seconds");
        r.plan_index = static_cast<std::size_t>(u64(v, "plan_index"));
        return r;
    } catch (const std::exception& e) {
        // find_workload throws InvalidArgument on unknown workloads; fold it
        // into the same corrupt-record channel as structural errors.
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
        record.schema = static_cast<int>(u64(v, "schema"));
        if (record.schema < kMinCellJsonSchemaVersion ||
            record.schema > kCellJsonSchemaVersion)
            bad_field("schema version " + std::to_string(record.schema) +
                      " outside [" + std::to_string(kMinCellJsonSchemaVersion) +
                      ", " + std::to_string(kCellJsonSchemaVersion) + "]");
        record.plan = member(v, "plan").as_string();
        record.key = member(v, "key").as_string();
        record.plan_index = static_cast<std::size_t>(u64(v, "plan_index"));
        Expected<CellResult> result = cell_result_from_json(member(v, "result"));
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
