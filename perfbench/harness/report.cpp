#include "report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> kDefs = {
        {"cells_per_s", "1/s"},     {"plan_cpu_s", "s"},     {"cell_wall_p50_s", "s"},
        {"cell_wall_p90_s", "s"},   {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
    };
    return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> kDefs = {
        {"sim.schedule_s", "s"},
        {"sim.memo_hit_frac", "fraction"},
        {"sim.cell_busy_s", "s"},
        {"sim.queue_wait_s", "s"},
        {"sim.pool_idle_frac", "fraction"},
        {"sim.record_encode_s", "s"},
        {"sim.record_decode_s", "s"},
        {"net.frame_encode_s", "s"},
        {"net.frame_decode_s", "s"},
        {"graph.dataset_s", "s"},
        {"graph.dataset_calls", "count"},
        {"models.init_s", "s"},
        {"models.train_self_s", "s"},
        {"models.steps", "count"},
        {"reram.inject_s", "s"},
        {"reram.bind_s", "s"},
        {"reram.weights_s", "s"},
        {"reram.weights_calls", "count"},
        {"reram.step_hook_s", "s"},
        {"reram.step_hook_calls", "count"},
        {"reram.epoch_hook_s", "s"},
        {"reram.refresh_frac", "fraction"},
        {"reram.bist_scans", "count"},
        {"reram.wear_faults", "count"},
        {"reram.detect_rounds", "count"},
        {"reram.repair_writes", "count"},
        {"fare.preprocess_s", "s"},
        {"fare.blocks_mapped", "count"},
        {"fare.host_block_frac", "fraction"},
        {"fare.adjacency_s", "s"},
        {"fare.adjacency_calls", "count"},
        {"fare.mapping_cost", "cost"},
        {"model.fare_gain_pp", "pp"},
        {"trace.overhead_frac", "fraction"},
    };
    return kDefs;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<MetricDef>& defs, const MetricValues& values) {
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    const char* sep = "";
    for (const MetricDef& def : defs) {
        const auto it = values.find(def.name);
        if (it == values.end())
            throw std::logic_error(std::string("metric not measured: ") + def.name);
        if (!std::isfinite(it->second))
            throw std::logic_error(std::string("metric not finite: ") + def.name);
        os << sep << '"' << def.name << "\": {\"value\": " << it->second
           << ", \"unit\": \"" << def.unit << "\"}";
        sep = ", ";
    }
    os << "}}";
    return os.str();
}

}  // namespace perfbench
