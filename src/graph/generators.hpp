// Synthetic graph dataset generators.
//
// The paper evaluates on PPI, Reddit, Amazon2M and OGB-citation2 (Table II).
// Those datasets cannot ship with this repo, so we generate scaled-down
// synthetic stand-ins whose *structural character* matches each dataset:
// degree skew, density, community strength and class structure. Two
// generator families are provided:
//
//  * degree-corrected stochastic block model (DC-SBM) — communities equal
//    classes, optional power-law degree propensities (PPI / Reddit /
//    Amazon2M stand-ins);
//  * class-biased preferential attachment — citation-style growth
//    (OGB-citation2 stand-in).
//
// Node features are noisy class centroids with tunable signal-to-noise so the
// aggregation phase genuinely matters: a GNN beats a feature-only classifier,
// and corrupting the adjacency measurably hurts accuracy — the effect Fig. 3
// and Fig. 5 quantify.
#pragma once

#include <cstdint>

#include "graph/dataset.hpp"

namespace fare {

/// Parameters for the DC-SBM generator.
struct SbmSpec {
    std::string name = "sbm";
    NodeId num_nodes = 2000;
    int num_classes = 6;
    int num_features = 32;
    double avg_degree = 12.0;
    /// Probability that a sampled edge is intra-class (edge homophily).
    double homophily = 0.8;
    /// Pareto shape for degree propensities; <=0 disables degree correction
    /// (near-regular degrees). Smaller alpha => heavier tail.
    double power_law_alpha = 0.0;
    /// Feature centroid magnitude relative to unit Gaussian noise.
    double feature_signal = 0.9;
    /// Fractions of nodes in train/val (remainder is test).
    double train_frac = 0.6;
    double val_frac = 0.2;
    std::uint64_t seed = 1;
};

/// Parameters for the preferential-attachment (citation-style) generator.
struct CitationSpec {
    std::string name = "citation";
    NodeId num_nodes = 2000;
    int num_classes = 6;
    int num_features = 32;
    /// Edges added per new node.
    int edges_per_node = 6;
    /// Probability a new edge attaches within the node's own class.
    double homophily = 0.8;
    double feature_signal = 0.9;
    double train_frac = 0.6;
    double val_frac = 0.2;
    std::uint64_t seed = 1;
};

/// Parameters for the streaming graph-only generator. Unlike the Dataset
/// generators it produces no features/labels/split — just structure — so it
/// scales to million-node / hundred-million-edge graphs: edges are drawn in
/// two identical passes over one deterministic RNG stream (count degrees,
/// then fill adjacency), so nothing but the final CSR arrays is ever held
/// in memory (no edge-list materialisation, no dense adjacency).
struct SyntheticGraphSpec {
    NodeId num_nodes = 1'000'000;
    double avg_degree = 16.0;
    /// Communities are contiguous node ranges (community quality is what the
    /// partitioners are asked to recover).
    int num_communities = 64;
    /// Probability that a sampled edge stays inside its community.
    double homophily = 0.9;
    /// Pareto shape for degree propensities; <=0 disables degree correction.
    double power_law_alpha = 0.0;
    std::uint64_t seed = 1;
};

/// Streaming graph-only generator (see SyntheticGraphSpec). Deterministic
/// per seed; the result satisfies every from_edges invariant (sorted,
/// duplicate-free, self-loop-free adjacency with both arc directions).
CSRGraph make_synthetic_graph(const SyntheticGraphSpec& spec);

/// Degree-corrected SBM dataset.
Dataset make_sbm_dataset(const SbmSpec& spec);

/// Class-biased preferential-attachment dataset.
Dataset make_citation_dataset(const CitationSpec& spec);

/// Scaled-down stand-ins for the paper's four datasets (Table II).
/// Each takes a seed so experiments can average over graph instances.
Dataset make_ppi(std::uint64_t seed = 1);       ///< dense biological modules
Dataset make_reddit(std::uint64_t seed = 1);    ///< heavy-tailed social graph
Dataset make_amazon2m(std::uint64_t seed = 1);  ///< strongly clustered co-purchase
Dataset make_ogbl(std::uint64_t seed = 1);      ///< citation-style growth

}  // namespace fare
