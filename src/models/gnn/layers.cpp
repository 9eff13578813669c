#include "models/gnn/layers.hpp"

namespace fare {

const char* gnn_kind_name(GnnKind kind) {
    switch (kind) {
        case GnnKind::kGCN: return "GCN";
        case GnnKind::kGAT: return "GAT";
        case GnnKind::kSAGE: return "SAGE";
    }
    return "?";
}

}  // namespace fare
