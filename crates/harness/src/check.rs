//! Expected-shape checks (`ehp check`): committed ranges for the
//! headline metric of each experiment, anchored to the paper's claims.
//! A metric drifting out of its range is a regression in the *model*,
//! not noise — every range is written around a deterministic default
//! scenario — so the CLI exits non-zero on any failure.

use std::collections::BTreeMap;

use crate::executor::Outcome;

/// One expected range for a named metric of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShapeRange {
    /// Experiment id the metric belongs to.
    pub experiment: &'static str,
    /// Metric key inside that experiment's result.
    pub metric: &'static str,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// The paper claim this range encodes.
    pub why: &'static str,
}

/// The committed expected-shape table.
///
/// Bounds are deliberately loose enough to survive benign model
/// refinements but tight enough to catch sign errors, unit slips, and
/// broken wiring.
#[must_use]
pub fn expected_shapes() -> &'static [ShapeRange] {
    &[
        ShapeRange {
            experiment: "table1",
            metric: "cdna3_fp16_matrix_ops_per_clock",
            min: 2048.0,
            max: 2048.0,
            why: "Table 1: CDNA 3 FP16 matrix is exactly 2048 ops/clock/CU",
        },
        ShapeRange {
            experiment: "table1",
            metric: "fp16_matrix_uplift_vs_cdna2",
            min: 1.9,
            max: 2.1,
            why: "Table 1: FP16 matrix doubled over CDNA 2",
        },
        ShapeRange {
            experiment: "figure7",
            metric: "usr_aggregate_tb_s",
            min: 2.0,
            max: 20.0,
            why: "Figure 7: USR aggregate is 'multiple TB/s'",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "compute_chiplet_power_fraction",
            min: 0.55,
            max: 0.75,
            why: "Figure 12(a): a compute-intensive load directs the \
                  majority of package power to the compute chiplets",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "compute_scenario_max_c",
            min: 40.0,
            max: 47.0,
            why: "Figure 12(b): the GPU-intensive thermal map peaks at an \
                  XCD hotspot ~13 °C above the 30 °C coolant; the band \
                  catches a solver drifting by more than a few degrees",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "memory_scenario_max_c",
            min: 39.0,
            max: 45.5,
            why: "Figure 12(c): the memory-intensive map peaks ~12 °C above \
                  the coolant, a little below (b); the band catches a \
                  solver drifting by more than a few degrees",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "energy_balance_rel_err",
            min: 0.0,
            max: 1e-3,
            why: "Figure 12(b)/(c) come from a converged thermal solve: the \
                  cold plate removes the power the grid injects to within \
                  0.1% (the residual-stopped solver sits orders below)",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "gpu_xcd_minus_hbm_phy_c",
            min: 1e-6,
            max: 10.0,
            why: "Figure 12(b): in the GPU-intensive scenario the XCDs run \
                  hotter than the HBM PHYs",
        },
        ShapeRange {
            experiment: "figure12",
            metric: "mem_usr_minus_xcd_c",
            min: 1e-6,
            max: 10.0,
            why: "Figure 12(c): in the memory-intensive scenario the USR PHYs \
                  run hotter than the XCDs",
        },
        ShapeRange {
            experiment: "figure13",
            metric: "sync_overhead_cycles",
            min: 1.0,
            max: 20_000.0,
            why: "Figure 13: multi-XCD sync costs cycles but stays small",
        },
        ShapeRange {
            experiment: "figure14",
            metric: "apu_vs_discrete_speedup",
            min: 1.0,
            max: 10.0,
            why: "Figure 14: unified memory beats copy-in/copy-out",
        },
        ShapeRange {
            experiment: "figure15",
            metric: "overlap_saving_ms",
            min: 3.4,
            max: 6.71,
            why: "Figure 15: eight completion-flag chunks let the CPU \
                  post-process while the GPU produces, hiding most of the \
                  6.71 ms post phase and never more than all of it",
        },
        ShapeRange {
            experiment: "figure16",
            metric: "all_iod_variants_accept",
            min: 1.0,
            max: 1.0,
            why: "Figure 16: every IOD variant hosts the unmirrored chiplet",
        },
        ShapeRange {
            experiment: "figure17",
            metric: "partition_modes",
            min: 10.0,
            max: 10.0,
            why: "Figure 17: MI300A runs SPX or TPX at NPS1 (2 modes); MI300X \
                  runs SPX/DPX/QPX/CPX at NPS1 or NPS4 (8 modes)",
        },
        ShapeRange {
            experiment: "figure17",
            metric: "max_sriov_vfs",
            min: 8.0,
            max: 8.0,
            why: "Figure 17: one SR-IOV VF per partition, up to 8 on MI300X CPX",
        },
        ShapeRange {
            experiment: "figure19",
            metric: "mi300a_mem_bw_uplift",
            min: 1.6,
            max: 1.8,
            why: "Figure 19: memory bandwidth 'improved by 70%'",
        },
        ShapeRange {
            experiment: "figure19",
            metric: "mi300a_io_bw_uplift",
            min: 1.9,
            max: 2.1,
            why: "Figure 19: I/O bandwidth 'doubled'",
        },
        ShapeRange {
            experiment: "figure20",
            metric: "openfoam_speedup",
            min: 2.5,
            max: 3.0,
            why: "Figure 20: OpenFOAM ~2.75x from zero-copy unified memory",
        },
        ShapeRange {
            experiment: "figure20",
            metric: "min_speedup",
            min: 1.0,
            max: 5.0,
            why: "Figure 20: every HPC workload speeds up on MI300A",
        },
        ShapeRange {
            experiment: "figure21",
            metric: "vllm_advantage",
            min: 2.0,
            max: 4.0,
            why: "Figure 21: 'more than 2x' vLLM-to-vLLM improvement",
        },
        ShapeRange {
            experiment: "figure21",
            metric: "decode_fraction",
            min: 0.5,
            max: 1.0,
            why: "Figure 21: decode (bandwidth-bound) dominates median latency",
        },
        ShapeRange {
            experiment: "ehpv3_audit",
            metric: "ehpv3_exceeds_cooling",
            min: 1.0,
            max: 1.0,
            why: "Section III.A: EHPv3's DRAM-topped stack 'would have \
                  exceeded contemporary cooling'",
        },
        ShapeRange {
            experiment: "ehpv3_audit",
            metric: "mi300a_coolable",
            min: 1.0,
            max: 1.0,
            why: "Section III.A: MI300A, with logic on top, stays coolable",
        },
        ShapeRange {
            experiment: "ehpv3_audit",
            metric: "complexity_ordering_holds",
            min: 1.0,
            max: 1.0,
            why: "Section III.A: assembly complexity orders V-Cache < MI300A \
                  < EHPv3",
        },
        ShapeRange {
            experiment: "ehpv3_audit",
            metric: "dies_vs_vcache",
            min: 5.0,
            max: 20.0,
            why: "Section III.A: EHPv3 handles and tests far more dies \
                  individually than V-Cache (18 vs 2)",
        },
        ShapeRange {
            experiment: "ehpv4_audit",
            metric: "usr_density_advantage",
            min: 10.0,
            max: 100.0,
            why: "Section V.A: USR density advantage over 2D SerDes '>10x'",
        },
        ShapeRange {
            experiment: "ehpv4_audit",
            metric: "streaming_advantage",
            min: 1.5,
            max: 3.0,
            why: "Figure 4: the USR mesh saturates the HBM under all-to-all \
                  streaming; the SerDes hub cannot (~2x aggregate)",
        },
        ShapeRange {
            experiment: "ehpv4_audit",
            metric: "cross_package_bw_advantage",
            min: 8.0,
            max: 14.0,
            why: "Figure 4 challenge 2: DDR-provisioned IF links hold \
                  cross-package HBM traffic ~10x below the USR path",
        },
        ShapeRange {
            experiment: "ehpv4_audit",
            metric: "cross_package_energy_advantage",
            min: 2.5,
            max: 4.5,
            why: "Section V.A: 2D SerDes costs ~5x the pJ/bit of USR; the \
                  far-HBM path mix nets ~3x transport energy",
        },
        ShapeRange {
            experiment: "packaging_audit",
            metric: "all_variants_accept_with_redundancy",
            min: 1.0,
            max: 1.0,
            why: "Figures 9/10: with redundant TSVs the unmirrored chiplets \
                  land on all four mirrored/rotated IOD variants",
        },
        ShapeRange {
            experiment: "packaging_audit",
            metric: "txrx_swap_fixes_pairing",
            min: 1.0,
            max: 1.0,
            why: "Figure 10: a mirrored IOD pairs USR TX with TX unless its \
                  TX/RX modules are swapped",
        },
        ShapeRange {
            experiment: "packaging_audit",
            metric: "pg_grid_current_density",
            min: 1.5,
            max: 2.0,
            why: "Section V.A: the P/G TSV grid delivers more than 1.5 A/mm²",
        },
        ShapeRange {
            experiment: "packaging_audit",
            metric: "partitioning_necessary_and_sufficient",
            min: 1.0,
            max: 1.0,
            why: "Section V.A: the beachfront for 8 HBM PHYs plus I/O exceeds \
                  one reticle-limit die; four IODs supply it",
        },
        ShapeRange {
            experiment: "figure18",
            metric: "quad_mi300a_bisection_gb_s",
            min: 900.0,
            max: 1100.0,
            why: "Figure 18a: 4x MI300A all-to-all with two x16 IF links \
                  per pair gives a ~1 TB/s bisection",
        },
        ShapeRange {
            experiment: "figure18",
            metric: "remote_stream_gb_s",
            min: 110.0,
            max: 130.0,
            why: "Figure 18a: remote load-store streams at the 128 GB/s \
                  inter-socket bundle, not at HBM rate",
        },
        ShapeRange {
            experiment: "frontier_node",
            metric: "cpu_gpu_stream_gb_s",
            min: 55.0,
            max: 70.0,
            why: "Figure 2: Frontier's CPU->GPU stream rides one x16-class \
                  IF bundle (~64 GB/s per direction)",
        },
        ShapeRange {
            experiment: "frontier_node",
            metric: "hpcg_speedup_4gpu",
            min: 3.0,
            max: 4.0,
            why: "Figure 2: HPCG strong-scales near-linearly across the \
                  node's four fully connected GPUs",
        },
        ShapeRange {
            experiment: "modular_platform",
            metric: "design_space_variants",
            min: 5.0,
            max: 5.0,
            why: "Section VII: the same IODs host five compute-stack \
                  assignments, from MI300X to a CPU-only part",
        },
        ShapeRange {
            experiment: "modular_platform",
            metric: "frontier_scale_efficiency",
            min: 0.9,
            max: 0.97,
            why: "Section I: at Frontier scale (9,408 nodes) Young-interval \
                  checkpointing keeps ~94% machine efficiency",
        },
        ShapeRange {
            experiment: "microarch_audit",
            metric: "l1_bandwidth_factor",
            min: 2.0,
            max: 2.0,
            why: "Section IV.B: CDNA 3 doubles the L1 data path",
        },
        ShapeRange {
            experiment: "ic_sweep",
            metric: "ic_peak_tb_s",
            min: 16.0,
            max: 18.0,
            why: "Section IV.C: ~17 TB/s Infinity Cache service rate",
        },
        ShapeRange {
            experiment: "ic_sweep",
            metric: "hbm_peak_tb_s",
            min: 5.0,
            max: 5.6,
            why: "Section IV.C: ~5.3 TB/s HBM3 behind the cache",
        },
        ShapeRange {
            experiment: "ic_sweep",
            metric: "achieved_gb_s",
            min: 1_800.0,
            max: 2_500.0,
            why: "DESIGN.md §14: the decorrelated interleave spreads the \
                  default hot trace across all 16 banks of every channel, \
                  roughly tripling achieved bandwidth over the correlated \
                  mapping (~0.7 TB/s on 4/16 banks)",
        },
        ShapeRange {
            experiment: "mem_bank_audit",
            metric: "banks_per_channel",
            min: 16.0,
            max: 16.0,
            why: "Section IV.C: HBM3 pseudo-channels expose 16 independent \
                  banks each (DESIGN.md §13 decomposes channels to them)",
        },
        ShapeRange {
            experiment: "mem_bank_audit",
            metric: "bank_coverage_min",
            min: 16.0,
            max: 16.0,
            why: "DESIGN.md §14: channel and bank selection draw from \
                  disjoint address bits, so a dense socket scan must \
                  populate every bank of every channel (the correlated \
                  mapping reached only 4/16)",
        },
        ShapeRange {
            experiment: "mem_bank_audit",
            metric: "bank_parallel_speedup",
            min: 10.0,
            max: 20.0,
            why: "DESIGN.md §13: striping a row-miss stream across a \
                  channel's 16 banks must run their activate pipelines in \
                  parallel (~16x vs one bank, less startup/refresh)",
        },
        ShapeRange {
            experiment: "mem_bank_audit",
            metric: "hot_hit_rate",
            min: 0.4,
            max: 0.7,
            why: "Section IV.C: a 1 MiB hot set re-read under 90/10 \
                  locality must be served mostly from Infinity Cache \
                  slices after compulsory misses",
        },
        ShapeRange {
            experiment: "power_management",
            metric: "tight_limit_thermally_safe",
            min: 1.0,
            max: 1.0,
            why: "Section V.E: the power/thermal closed loop converges — a \
                  tightened Tj limit sheds compute power until safe",
        },
        ShapeRange {
            experiment: "power_management",
            metric: "mi300_bond_drop_fraction",
            min: 0.0,
            max: 0.0199,
            why: "Section V.D: MI300's BPV-to-aluminium-RDL landing feeds a \
                  compute chiplet within the 2% supply-droop budget",
        },
        ShapeRange {
            experiment: "power_management",
            metric: "vcache_bond_drop_fraction",
            min: 0.0201,
            max: 0.05,
            why: "Section V.D: a V-Cache-style BPV-to-top-metal landing \
                  exceeds the 2% droop budget and cannot feed a compute chiplet",
        },
        ShapeRange {
            experiment: "power_management",
            metric: "clock_gain_from_shift",
            min: 1e-6,
            max: 0.2,
            why: "Section V.E: shifting power from the IOD to the compute \
                  chiplets raises their DVFS point, TDP conserved",
        },
    ]
}

/// One range evaluated against a batch.
#[derive(Debug, Clone)]
pub struct CheckFinding {
    /// The range that was evaluated.
    pub range: ShapeRange,
    /// The observed value, if the experiment ran and emitted the metric.
    pub observed: Option<f64>,
    /// Whether the observation exists and lies inside the range.
    pub pass: bool,
}

/// Evaluates the committed ranges against completed outcomes (keyed by
/// experiment id; the default-scenario run of each experiment).
#[must_use]
pub fn evaluate(outcomes: &[Outcome]) -> Vec<CheckFinding> {
    let by_exp: BTreeMap<&str, &Outcome> = outcomes
        .iter()
        .filter(|o| o.is_ok())
        .map(|o| (o.scenario.experiment.as_str(), o))
        .collect();
    expected_shapes()
        .iter()
        .map(|range| {
            let observed = by_exp
                .get(range.experiment)
                .and_then(|o| o.metrics.get(range.metric))
                .copied();
            let pass = observed.is_some_and(|v| v >= range.min && v <= range.max && v.is_finite());
            CheckFinding {
                range: *range,
                observed,
                pass,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_table_is_well_formed() {
        let shapes = expected_shapes();
        // The acceptance bar: ranges for at least 8 distinct experiments.
        let mut exps: Vec<&str> = shapes.iter().map(|s| s.experiment).collect();
        exps.sort_unstable();
        exps.dedup();
        assert!(exps.len() >= 8, "only {} experiments covered", exps.len());
        for s in shapes {
            assert!(s.min <= s.max, "{}/{} inverted", s.experiment, s.metric);
            assert!(
                crate::registry::find(s.experiment).is_some(),
                "{} not in registry",
                s.experiment
            );
            assert!(!s.why.is_empty());
        }
    }

    #[test]
    fn every_experiment_is_gated() {
        for id in crate::registry::ids() {
            assert!(
                expected_shapes().iter().any(|s| s.experiment == id),
                "{id} has no `ehp check` range"
            );
        }
    }

    #[test]
    fn evaluate_flags_missing_outcomes() {
        let findings = evaluate(&[]);
        assert_eq!(findings.len(), expected_shapes().len());
        assert!(findings.iter().all(|f| !f.pass && f.observed.is_none()));
    }
}
