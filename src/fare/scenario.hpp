// Declarative fault-scenario description: one value type holding everything
// the paper's evaluation varies about the *chip* — pre-deployment stuck-at
// density and SA0:SA1 ratio, post-deployment fault arrival, phase
// restriction (Fig. 3), and non-ideality extensions — decoupled from the
// scheme under test and from the training configuration. FaultyHardware
// (fare/baselines.hpp) reads both structs directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fare/row_matcher.hpp"
#include "reram/online_tolerance.hpp"
#include "reram/wear_model.hpp"

namespace fare {

struct FaultScenario {
    /// Pre-deployment (manufacturing) stuck-at fault density in [0,1].
    double density = 0.0;
    /// Fraction of faults that are SA1 (0.1 => SA0:SA1 = 9:1, 0.5 => 1:1).
    double sa1_fraction = 0.1;
    /// Gamma–Poisson clustering shape of the fault centres (<= 0: none).
    double cluster_shape = 1.5;

    /// Post-deployment wear: total added density spread uniformly across
    /// `post_epochs` epoch boundaries (0 disables).
    double post_total_density = 0.0;
    /// Epoch boundaries the post-deployment arrival is spread over;
    /// 0 means "the full training run" (resolved against TrainConfig.epochs).
    std::size_t post_epochs = 0;
    /// SA1 share of every post-deployment arrival: the uniform stream, soft
    /// errors and worn-out cells alike.
    double post_sa1_fraction = 0.1;
    /// Whether the wear stream's SA1 ratio follows sa1_fraction (the paper's
    /// Fig. 6 setting). SweepBuilder sets each cell's post_sa1_fraction to
    /// its sa1_fraction while this is set; with_post_deployment() with an
    /// explicit ratio clears it.
    bool post_sa1_follows_pre = true;

    /// Fig. 3 knobs: restrict faults to one computation phase.
    bool faults_on_weights = true;
    bool faults_on_adjacency = true;

    /// Multiplicative Gaussian read noise sigma (extension E3; 0 disables).
    double read_noise_sigma = 0.0;

    /// Soft-error arrival (arXiv:2412.03089): added density of *re-formable*
    /// stuck-ats landing at each arrival checkpoint (0 disables). Online
    /// schemes can clear them with re-forming pulses; every other scheme
    /// sees them as ordinary permanent stuck-ats. Polarity follows
    /// post_sa1_fraction.
    double soft_error_rate = 0.0;

    /// Endurance-driven wear (Hamun, arXiv:2502.01502): per-cell Weibull
    /// write lifetimes with per-crossbar hot spots, disabled while
    /// wear.endurance_mean_writes == 0. Orthogonal to the uniform
    /// post-deployment stream above — both may be active.
    WearSpec wear;

    /// Online arrival cadence (arXiv:2412.03089): 0 = fault arrivals land
    /// only at epoch boundaries (the legacy schedule); k > 0 adds an
    /// arrival checkpoint after every k-th training step, so wear expiries
    /// and the uniform post-deployment stream can land *mid-epoch*. The
    /// per-epoch uniform quantum is split evenly across the epoch's
    /// checkpoints. Inert while no fault source is active.
    std::size_t arrival_period_batches = 0;

    /// No faults at all (the reference chip).
    static FaultScenario none();
    /// The common case: manufacturing faults only.
    static FaultScenario pre_deployment(double density, double sa1_fraction);

    /// Add post-deployment wear; `sa1` < 0 inherits the pre-deployment
    /// SA1 fraction (the paper's Fig. 6 setting).
    FaultScenario& with_post_deployment(double total_density, double sa1 = -1.0);
    FaultScenario& with_read_noise(double sigma);
    /// Enable endurance-driven wear-out (full spec, or the two headline
    /// knobs). The two-knob overload keeps every other field of the
    /// current wear block — including, when `hot_spot_fraction` is
    /// omitted (negative), a previously configured hot-spot fraction.
    FaultScenario& with_wear(const WearSpec& spec);
    FaultScenario& with_wear(double endurance_mean_writes,
                             double hot_spot_fraction = -1.0);
    /// Land arrivals every `batches` training steps instead of only at
    /// epoch boundaries (0 restores the epoch-boundary schedule).
    FaultScenario& with_arrival_period(std::size_t batches);
    /// Land `rate` added density of soft (re-formable) stuck-ats at every
    /// arrival checkpoint (0 disables).
    FaultScenario& with_soft_errors(double rate);
    FaultScenario& on_weights_only();
    FaultScenario& on_adjacency_only();

    /// True when the scenario injects nothing (no SAFs, no wear, no noise).
    bool fault_free() const;
    /// True when faults arrive during training: the uniform post-deployment
    /// stream, soft errors or wear.
    bool arrivals_live() const {
        return post_total_density > 0.0 || soft_error_rate > 0.0 || wear.enabled();
    }

    /// Canonical serialization — equal keys => behaviourally identical
    /// scenarios. Used for cell memoization.
    std::string key() const;
};

/// Chip-construction knobs orthogonal to the fault scenario: sizing and the
/// per-scheme hyperparameters the ablations sweep.
struct HardwareOverrides {
    /// Simulated chip size; 1 = one Table III tile (96 crossbars of 128x128).
    int num_tiles = 1;
    /// Clipping threshold tau (paper §IV-B), tuned once across all
    /// workloads: trained GNN weights rarely exceed ~0.5, so tau = 1 clamps
    /// explosions without touching healthy weights.
    float clip_threshold = 1.0f;
    /// FARe's SA1-criticality weighting for row matching.
    RowMatchWeights match_weights{};
    /// Redundant-columns baseline: spare columns per crossbar as a fraction
    /// of its width (they repair the worst-faulted columns).
    double spare_column_fraction = 0.15;
    /// Adjacency pool cap.
    std::size_t max_adjacency_pool = 48;
    /// Online detection/correction policy (reram/online_tolerance.hpp).
    /// Consulted only by the online schemes; appended to key() only when
    /// enabled so legacy keys stay byte-stable.
    OnlinePolicySpec online;
    /// Bias FARe's block-to-crossbar assignment toward each block's
    /// partition-derived home tile (fare/mapper.hpp TilePlacement). Appended
    /// to key() only when true so legacy keys stay byte-stable.
    bool partition_aware_mapping = false;
    /// Significance pruning: the fraction of smallest-|w| weights per
    /// parameter matrix forced to zero on the crossbars. Pruned cells carry
    /// no information, so faults under them are harmless — which relaxes the
    /// fault-matching objective for every scheme and model family (NR skips
    /// pruned positions in its mismatch costs). 0 disables; appended to
    /// key() only when non-zero so legacy keys stay byte-stable.
    double prune_fraction = 0.0;

    std::string key() const;
};

}  // namespace fare
