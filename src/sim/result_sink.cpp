#include "sim/result_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <ostream>

#include "common/error.hpp"

namespace fare {

namespace {

const std::vector<std::string> kColumns = {
    "Workload", "Scheme",   "Mode", "Density", "SA1",  "Post",
    "Seed",     "Accuracy", "F1",   "Cached",  "Time (s)"};

std::vector<std::string> cell_row(const CellResult& r) {
    const CellSpec& s = r.spec;
    return {s.workload.label(),
            scheme_name(s.scheme),
            cell_mode_name(s.mode),
            fmt_pct(s.faults.density, 1),
            fmt_pct(s.faults.sa1_fraction, 0),
            fmt_pct(s.faults.post_total_density, 1),
            std::to_string(s.seed),
            fmt(r.accuracy(), 3),
            s.mode == CellMode::kTrain ? fmt(r.run.train.test_macro_f1, 3) : "-",
            r.from_cache ? "y" : "n",
            fmt(r.wall_seconds, 2)};
}

/// Group key for seed-replicate aggregation: the cell's canonical key with
/// the seed axis (dataset seed and any explicit hardware seed) zeroed out,
/// so replicates of one coordinate collapse onto one row — including seeds
/// derived per cell by SeedPolicy::kDerived.
std::string seedless_coordinate_key(const CellSpec& spec) {
    CellSpec coords = spec;
    coords.seed = 0;
    coords.hardware_seed.reset();
    return coords.key();
}

}  // namespace

ResultSink::~ResultSink() = default;
void ResultSink::begin(const ExperimentPlan&) {}
void ResultSink::end(const ExperimentPlan&) {}

ConsoleTableSink::ConsoleTableSink(std::ostream& os) : os_(os), table_(kColumns) {}

void ConsoleTableSink::begin(const ExperimentPlan&) { table_ = Table(kColumns); }

void ConsoleTableSink::cell(const CellResult& result) {
    table_.add_row(cell_row(result));
}

void ConsoleTableSink::end(const ExperimentPlan& plan) {
    os_ << "--- " << plan.name << " (" << table_.num_rows() << " cells) ---\n"
        << table_.to_ascii() << std::flush;
}

JsonLinesSink::JsonLinesSink(std::string path) : path_(std::move(path)) {}

void JsonLinesSink::begin(const ExperimentPlan& plan) {
    const std::string path =
        path_.empty() ? default_bench_out_path(plan.name) : path_;
    if (out_.is_open()) out_.close();
    final_path_ = path;
    tmp_path_ = path + ".tmp";
    // The first plan resolving to a path replaces it (a re-run supersedes
    // stale results); later plans hitting the same explicit path append.
    // Either way cells land in the staging file and only reach `path` via
    // the atomic rename in end() — a crash mid-plan never tears `path`.
    const bool fresh = seen_paths_.insert(path).second;
    if (!fresh && std::filesystem::exists(final_path_)) {
        std::error_code ec;
        std::filesystem::copy_file(
            final_path_, tmp_path_,
            std::filesystem::copy_options::overwrite_existing, ec);
        FARE_CHECK(!ec, "cannot stage JSON-lines sink file: " + tmp_path_);
        out_.open(tmp_path_, std::ios::app);
    } else {
        out_.open(tmp_path_, std::ios::trunc);
    }
    FARE_CHECK(out_.good(), "cannot open JSON-lines sink path: " + tmp_path_);
    plan_name_ = plan.name;
    index_ = 0;
}

void JsonLinesSink::cell(const CellResult& result) {
    FARE_CHECK(out_.is_open(), "JsonLinesSink::cell before begin()");
    out_ << cell_to_json(plan_name_, index_++, result) << '\n' << std::flush;
}

void JsonLinesSink::end(const ExperimentPlan&) {
    out_.close();
    std::error_code ec;
    std::filesystem::rename(tmp_path_, final_path_, ec);
    FARE_CHECK(!ec, "cannot publish JSON-lines sink file: " + final_path_);
}

void SeedStatsSink::Stats::add(double x) {
    if (n == 0) {
        min = max = x;
    } else {
        min = std::min(min, x);
        max = std::max(max, x);
    }
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
}

double SeedStatsSink::Stats::stddev() const {
    if (n < 2) return 0.0;
    return std::sqrt(m2 / static_cast<double>(n - 1));
}

SeedStatsSink::SeedStatsSink(std::ostream& os) : os_(os) {}

void SeedStatsSink::begin(const ExperimentPlan&) {
    rows_.clear();
    row_of_coord_.clear();
    seen_cells_.clear();
}

void SeedStatsSink::cell(const CellResult& result) {
    // A plan may list the same canonical cell several times (the fault-free
    // reference repeats per density row); count each distinct cell once per
    // plan or duplicates would inflate n and deflate sigma.
    if (!seen_cells_.insert(result.spec.key()).second) return;
    const std::string coord = seedless_coordinate_key(result.spec);
    const auto [it, fresh] = row_of_coord_.emplace(coord, rows_.size());
    if (fresh) {
        Row row;
        row.spec = result.spec;
        rows_.push_back(std::move(row));
    }
    Row& row = rows_[it->second];
    row.accuracy.add(result.accuracy());
    if (result.spec.mode == CellMode::kTrain)
        row.macro_f1.add(result.run.train.test_macro_f1);
}

void SeedStatsSink::end(const ExperimentPlan& plan) {
    Table table({"Workload", "Scheme", "Mode", "Density", "SA1", "Noise", "n",
                 "Acc mean", "Acc sigma", "Acc min", "Acc max", "F1 mean"});
    for (const Row& row : rows_) {
        const CellSpec& s = row.spec;
        table.add_row({s.workload.label(),
                       scheme_name(s.scheme),
                       cell_mode_name(s.mode),
                       fmt_pct(s.faults.density, 1),
                       fmt_pct(s.faults.sa1_fraction, 0),
                       fmt_pct(s.faults.read_noise_sigma, 0),
                       std::to_string(row.accuracy.n),
                       fmt(row.accuracy.mean, 4),
                       fmt(row.accuracy.stddev(), 4),
                       fmt(row.accuracy.min, 4),
                       fmt(row.accuracy.max, 4),
                       row.macro_f1.n ? fmt(row.macro_f1.mean, 4) : "-"});
    }
    os_ << "--- " << plan.name << " seed stats (" << rows_.size()
        << " coordinates) ---\n"
        << table.to_ascii() << std::flush;
}

bool PivotSink::Coord::operator<(const Coord& other) const {
    if (workload != other.workload) return workload < other.workload;
    if (scheme != other.scheme) return scheme < other.scheme;
    if (density != other.density) return density < other.density;
    return sa1 < other.sa1;
}

PivotSink::PivotSink(std::ostream* os) : os_(os) {}

void PivotSink::begin(const ExperimentPlan&) {
    panels_.clear();
    values_.clear();
    reference_.clear();
    sa1_order_.clear();
    row_order_.clear();
    scheme_order_.clear();
    workload_order_.clear();
}

void PivotSink::cell(const CellResult& result) {
    const CellSpec& s = result.spec;
    const std::string workload = s.workload.label();
    if (std::find(workload_order_.begin(), workload_order_.end(), workload) ==
        workload_order_.end())
        workload_order_.push_back(workload);
    if (s.scheme == Scheme::kFaultFree) {
        // The reference is density/SA1-independent (ideal hardware); a plan
        // listing it per density row averages identical values.
        reference_[workload].add(result.accuracy());
        return;
    }
    const double sa1 = s.faults.sa1_fraction;
    const double density = s.faults.density;
    if (std::find(sa1_order_.begin(), sa1_order_.end(), sa1) ==
        sa1_order_.end())
        sa1_order_.push_back(sa1);
    const std::pair<std::string, double> row{workload, density};
    if (std::find(row_order_.begin(), row_order_.end(), row) ==
        row_order_.end())
        row_order_.push_back(row);
    if (std::find(scheme_order_.begin(), scheme_order_.end(), s.scheme) ==
        scheme_order_.end())
        scheme_order_.push_back(s.scheme);
    values_[Coord{workload, s.scheme, density, sa1}].add(result.accuracy());
}

void PivotSink::end(const ExperimentPlan& plan) {
    panels_.clear();
    const bool with_reference = !reference_.empty();
    const bool with_drop =
        with_reference &&
        std::find(scheme_order_.begin(), scheme_order_.end(), Scheme::kFARe) !=
            scheme_order_.end();

    std::vector<std::string> header{"Workload", "Density"};
    if (with_reference) header.push_back(scheme_name(Scheme::kFaultFree));
    for (const Scheme scheme : scheme_order_)
        header.push_back(scheme_name(scheme));
    if (with_drop) header.push_back("FARe drop");

    for (const double sa1 : sa1_order_) {
        Panel panel{sa1, Table(header)};
        for (const auto& [workload, density] : row_order_) {
            // A row appears in a panel only if some scheme reported there.
            bool any = false;
            for (const Scheme scheme : scheme_order_)
                any = any ||
                      values_.count(Coord{workload, scheme, density, sa1}) > 0;
            if (!any) continue;
            std::vector<std::string> row{workload, fmt_pct(density, 0)};
            const auto ref = reference_.find(workload);
            if (with_reference)
                row.push_back(ref != reference_.end() ? fmt(ref->second.mean(), 3)
                                                      : "-");
            for (const Scheme scheme : scheme_order_) {
                const auto it =
                    values_.find(Coord{workload, scheme, density, sa1});
                row.push_back(it != values_.end() ? fmt(it->second.mean(), 3)
                                                  : "-");
            }
            if (with_drop) {
                const auto fare =
                    values_.find(Coord{workload, Scheme::kFARe, density, sa1});
                row.push_back(fare != values_.end() && ref != reference_.end()
                                  ? fmt_pct(ref->second.mean() -
                                                fare->second.mean(), 1)
                                  : "-");
            }
            panel.table.add_row(std::move(row));
        }
        panels_.push_back(std::move(panel));
    }
    if (os_) {
        for (const Panel& panel : panels_)
            *os_ << "--- " << plan.name << " @ sa1="
                 << fmt_pct(panel.sa1_fraction, 0) << " ---\n"
                 << panel.table.to_ascii() << '\n';
        *os_ << std::flush;
    }
}

double PivotSink::accuracy(const std::string& workload_label, Scheme scheme,
                           double density, double sa1_fraction) const {
    if (scheme == Scheme::kFaultFree) {
        const auto it = reference_.find(workload_label);
        FARE_CHECK(it != reference_.end(),
                   "no fault-free reference for " + workload_label);
        return it->second.mean();
    }
    const auto it =
        values_.find(Coord{workload_label, scheme, density, sa1_fraction});
    FARE_CHECK(it != values_.end(),
               "no pivot cell for " + workload_label + " / " +
                   scheme_name(scheme));
    return it->second.mean();
}

std::string default_bench_out_path(const std::string& name) {
    const char* env = std::getenv("FARE_BENCH_OUT");
    const std::filesystem::path dir = env ? env : "bench/out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best-effort
    return (dir / ("BENCH_" + name + ".json")).string();
}

}  // namespace fare
