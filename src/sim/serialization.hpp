// CellResult <-> JSON serialization, refactored out of the sink-side
// cell_to_json so the on-disk cell cache and the fare-run shard driver can
// persist *full-fidelity* results and read them back bit-identically.
//
// Two formats share the helpers here:
//   * the display format (cell_to_json): one flat, self-describing object
//     per cell for bench/out/BENCH_*.json consumers — lossy (no curve, no
//     chip overrides); stable since PR 1, extended append-only (wear axes
//     + wear_faults by the live-wear PR, online detection/repair stats by
//     the online-tolerance PR);
//   * the record format (CellRecord): schema-versioned envelope
//     {"schema":N,"plan":...,"key":...,"plan_index":...,"result":{...}}
//     whose "result" member round-trips every CellResult field exactly
//     (doubles via %.17g, 64-bit seeds as raw integer tokens). DiskCellCache
//     lines and fare-run shard outputs are CellRecords.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/cell.hpp"

namespace fare {

/// Version stamp written into every persisted record. Bump when the result
/// JSON changes shape. Since v5 the reader is ranged: records stamped
/// [kMinCellJsonSchemaVersion .. kCellJsonSchemaVersion] parse, so a cache
/// built by an older binary stays warm across an upgrade. One rule says
/// which rows a record must hold: a row of visit_fields or
/// visit_result_fields is required when the record's version is at least
/// the one that introduced it. A row newer than the record, and a v5 row
/// (written only off its default), may be absent and then keeps its
/// default. Future-stamped or pre-v2 records are still skipped (the cell
/// recomputes instead of deserializing wrongly).
/// v2: FaultScenario wear block + arrival cadence, run.wear_faults.
/// v3: faults.soft_error_rate, hardware.online policy block, run.online
///     detection/correction stats.
/// v4: spec.partitioner / partition_count / hardware.partition_aware_mapping,
///     run.train.partition_quality report, run.off_tile_block_fraction +
///     inter_tile_seconds traffic diagnostics.
/// v5: spec.family (model-family registry name, written when != "gnn"),
///     spec.model generalised to WorkloadSpec::model_name(),
///     hardware.prune_fraction (written when != 0).
inline constexpr int kCellJsonSchemaVersion = 5;

/// Oldest record version the reader still accepts (v1 predates the wear
/// block and no v1 cache survives in the wild).
inline constexpr int kMinCellJsonSchemaVersion = 2;

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// Minimal JSON document model for the parser below: enough for our own
/// records (objects, arrays, strings, numbers, bools, null). Numbers keep
/// their raw token so 64-bit seeds survive (a double mantissa would not).
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
    Kind kind = Kind::kNull;
    bool boolean = false;
    std::string text;  ///< string payload, or the raw number token
    std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
    std::vector<JsonValue> items;                            ///< kArray

    /// Object member lookup; nullptr when absent or not an object.
    const JsonValue* find(std::string_view key) const;
    double as_double() const;            ///< kNumber
    /// kNumber holding a non-negative integral token no larger than `max`;
    /// throws on a leading '-', a fractional/exponent form, or overflow
    /// (strtoull would silently wrap all three).
    std::uint64_t as_u64(std::uint64_t max = UINT64_MAX) const;
    bool as_bool() const;                ///< kBool
    const std::string& as_string() const;  ///< kString
};

/// `value` as the integer type T, for the record or frame member `field`.
/// A value above T's max throws like any other as_u64() error, naming
/// `field`: a narrowing cast would read a hand-edited 4294967297 as 1.
template <std::integral T>
T json_integer(const JsonValue& value, const char* field) {
    try {
        return static_cast<T>(value.as_u64(std::numeric_limits<T>::max()));
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("field '") + field + "': " + e.what());
    }
}

/// Explicit resource bounds for parsing untrusted documents. The defaults
/// are generous enough for every record we write ourselves; the network
/// path (net/protocol.hpp) tightens both, since a socket peer can send
/// pathological nesting that would otherwise overflow the recursive-descent
/// parser's stack.
struct JsonLimits {
    /// Maximum object/array nesting depth. Always enforced.
    std::size_t max_depth = 128;
    /// Maximum document size in bytes; 0 = unlimited.
    std::size_t max_bytes = 0;
};

/// Strict parse of one JSON document (trailing garbage is an error).
/// Documents exceeding `limits` fail with an Expected error, never a crash.
Expected<JsonValue> parse_json(const std::string& text, JsonLimits limits = {});

/// Full-fidelity CellSpec serialization (the "spec" member of a CellResult
/// record). The remote-execution protocol ships whole specs to workers —
/// canonical keys alone are not invertible — so the spec object is exposed
/// on its own here. Byte-identical to what cell_result_to_json embeds. The
/// decoder leaves chip-field ranges to the worker's run_cell(), so an
/// out-of-range cell fails as a reportable cell error.
std::string cell_spec_to_json(const CellSpec& spec);
Expected<CellSpec> cell_spec_from_json(const JsonValue& value);

/// Full-fidelity CellResult serialization: the spec, then every row of
/// visit_result_fields (sim/cell.hpp). The decoder reads `value` as a
/// record of version `schema` and rejects a chip field outside its range
/// (sim/plan.hpp visit_fields) with an error naming the field.
std::string cell_result_to_json(const CellResult& result);
Expected<CellResult> cell_result_from_json(const JsonValue& value,
                                           int schema = kCellJsonSchemaVersion);

/// One persisted cell: the schema-versioned envelope around a CellResult.
struct CellRecord {
    int schema = kCellJsonSchemaVersion;
    std::string plan;       ///< plan name ("" for cache entries)
    std::string key;        ///< CellSpec::key() at store time
    std::size_t plan_index = 0;
    CellResult result;
};

std::string cell_record_to_json(const CellRecord& record);
/// Parses + validates one record line. Failure (malformed JSON, missing
/// fields, wrong schema version) is an Expected error, never a throw — a
/// corrupt cache line must cost a recompute, not the run.
Expected<CellRecord> cell_record_from_json(const std::string& line);

/// One cell as a single-line *display* JSON object — the flat format the
/// JSON-lines sink writes under bench/out/ (also re-exported by
/// sim/result_sink.hpp). `index` is the cell's position in its plan.
std::string cell_to_json(const std::string& plan_name, std::size_t index,
                         const CellResult& result);

}  // namespace fare
