// Pluggable result reporting for SimSession: benches stop hand-formatting
// output and instead attach sinks — an aligned console table, JSON lines
// (one object per cell) for machine-readable perf/accuracy trajectories
// under bench/out/BENCH_<plan>.json, seed-replicate statistics (mean/σ
// error bars over the seed axis) or paper-style pivot tables.
//
// Delivery contract: every sink observes begin at run start, each cell as
// soon as the plan prefix up to it has finished — strict plan order,
// delivered incrementally — and end once the run completes (see
// sim/result_bus.hpp).
#pragma once

#include <fstream>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "sim/serialization.hpp"
#include "sim/session.hpp"

namespace fare {

/// Observer over one plan execution. The ResultBus serialises every
/// callback, so implementations never need their own locking.
class ResultSink {
public:
    virtual ~ResultSink();
    virtual void begin(const ExperimentPlan& plan);
    virtual void cell(const CellResult& result) = 0;
    virtual void end(const ExperimentPlan& plan);
};

/// Aligned ASCII table of the generic cell columns, printed at plan end.
class ConsoleTableSink final : public ResultSink {
public:
    explicit ConsoleTableSink(std::ostream& os);
    void begin(const ExperimentPlan& plan) override;
    void cell(const CellResult& result) override;
    void end(const ExperimentPlan& plan) override;

private:
    std::ostream& os_;
    Table table_;
};

/// JSON lines: one self-describing object per cell. Cells are staged in
/// `<path>.tmp` and atomically renamed over `<path>` at plan end, so readers
/// never observe a truncated file and a run killed mid-plan leaves any
/// previously-published results intact (a resumed run republishes from
/// scratch instead of appending to a torn tail). The first plan resolving to
/// a path replaces it; later plans hitting the same explicit path append.
/// Lines land in the staging file as cells finish.
class JsonLinesSink final : public ResultSink {
public:
    /// Writes to `path`; an empty path derives
    /// $FARE_BENCH_OUT/BENCH_<plan-name>.json per plan at begin() — use this
    /// when one session runs several named plans.
    explicit JsonLinesSink(std::string path = {});
    void begin(const ExperimentPlan& plan) override;
    void cell(const CellResult& result) override;
    void end(const ExperimentPlan& plan) override;

private:
    std::string path_;
    std::string plan_name_;
    std::set<std::string> seen_paths_;  // replace on first open, append after
    std::string final_path_;  ///< publish destination of the active plan
    std::string tmp_path_;    ///< staging file of the active plan
    std::ofstream out_;
    std::size_t index_ = 0;
};

/// Seed-replicate statistics: aggregates accuracy (and macro-F1 for
/// training cells) over the seed axis, grouping cells that share every
/// coordinate except the seed — (workload, scheme, density, SA1, noise,
/// chip, mode) — so figures can report mean ± σ error bars instead of a
/// single replicate. Resets per plan; prints one row per group at plan end.
class SeedStatsSink final : public ResultSink {
public:
    /// Streaming-capable running moments (Welford).
    struct Stats {
        std::size_t n = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = 0.0;
        double max = 0.0;

        void add(double x);
        /// Sample standard deviation (n-1); 0 with fewer than 2 replicates.
        double stddev() const;
    };

    struct Row {
        CellSpec spec;  ///< first-seen cell of the group (its seed included)
        Stats accuracy;
        Stats macro_f1;
    };

    explicit SeedStatsSink(std::ostream& os);
    void begin(const ExperimentPlan& plan) override;
    void cell(const CellResult& result) override;
    void end(const ExperimentPlan& plan) override;

    /// Aggregated rows of the current (or just-finished) plan, in
    /// first-appearance order.
    const std::vector<Row>& rows() const { return rows_; }

private:
    std::ostream& os_;
    std::vector<Row> rows_;
    std::unordered_map<std::string, std::size_t> row_of_coord_;
    std::set<std::string> seen_cells_;  ///< full keys: dedup in-plan repeats
};

/// Paper-style pivot tables: the figure layout Fig. 5/6 use, assembled from
/// raw cells instead of hand-rolled ResultSet lookups. One panel per SA1
/// ratio (first-appearance order), one row per (workload, pre-deployment
/// density) pair, one accuracy column per scheme — fault-free first as the
/// reference — plus a "FARe drop" column (reference minus FARe) when both
/// are present. Duplicate coordinates (seed replicates, repeated reference
/// cells) average into the cell.
class PivotSink final : public ResultSink {
public:
    struct Panel {
        double sa1_fraction = 0.0;
        Table table;
    };

    /// With a stream, every panel is printed at plan end; without one the
    /// caller renders panels() itself (custom figure captions).
    explicit PivotSink(std::ostream* os = nullptr);
    void begin(const ExperimentPlan& plan) override;
    void cell(const CellResult& result) override;
    void end(const ExperimentPlan& plan) override;

    /// Assembled panels of the last finished plan (valid after end()).
    const std::vector<Panel>& panels() const { return panels_; }

    /// Mean accuracy of one assembled coordinate; negative density matches
    /// the fault-free reference column. Throws InvalidArgument when the
    /// coordinate never appeared.
    double accuracy(const std::string& workload_label, Scheme scheme,
                    double density = -1.0, double sa1_fraction = -1.0) const;

private:
    struct Acc {
        double sum = 0.0;
        std::size_t n = 0;
        void add(double x) {
            sum += x;
            ++n;
        }
        double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    };
    struct Coord {
        std::string workload;
        Scheme scheme = Scheme::kFaultFree;
        double density = 0.0;
        double sa1 = 0.0;
        bool operator<(const Coord& other) const;
    };

    std::ostream* os_;
    std::vector<Panel> panels_;
    std::map<Coord, Acc> values_;          ///< faulty cells
    std::map<std::string, Acc> reference_;  ///< fault-free, per workload
    std::vector<double> sa1_order_;
    std::vector<std::pair<std::string, double>> row_order_;
    std::vector<Scheme> scheme_order_;  ///< excluding kFaultFree
    std::vector<std::string> workload_order_;
};

/// Canonical output path for a bench's machine-readable results:
/// $FARE_BENCH_OUT/BENCH_<name>.json (default bench/out/), with the
/// directory created on demand.
std::string default_bench_out_path(const std::string& name);

// cell_to_json (one cell as a single-line display JSON object) moved to
// sim/serialization.hpp, re-exported via the include above.

}  // namespace fare
