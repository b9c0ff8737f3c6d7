//! The experiment registry: every paper artefact the repo reproduces,
//! addressable by a stable id, with each experiment's declared scenario
//! parameters (the S1 schemas `ehp lint` validates specs against).

use ehp_lint::{ExperimentSchema, ParamKind, ParamSpec};

use crate::experiment::Experiment;
use crate::experiments;

/// Shorthand for an unbounded positive integer parameter.
const fn u64_pos(name: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::U64 {
            min: 1,
            max: u64::MAX,
        },
    }
}

/// Shorthand for a non-negative number parameter.
const fn num_pos(name: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::Num {
            min: 0.0,
            max: f64::MAX,
        },
    }
}

/// Every registered experiment, in paper order.
static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: CDNA 2 vs CDNA 3 peak ops/clock/CU",
        params: &[],
        runner: experiments::table1::run,
    },
    Experiment {
        id: "figure7",
        title: "Figure 7: MI300A IOD interface bandwidths",
        params: &[ParamSpec {
            name: "product",
            kind: ParamKind::EnumStr(&["mi250x", "mi300a", "mi300x", "ehpv4"]),
        }],
        runner: experiments::figure7::run,
    },
    Experiment {
        id: "figure12",
        title: "Figure 12: power distributions and thermal maps",
        params: &[num_pos("socket_power_w")],
        runner: experiments::figure12::run,
    },
    Experiment {
        id: "figure13",
        title: "Figure 13: cooperative multi-XCD dispatch flow",
        params: &[u64_pos("workgroups"), u64_pos("workgroup_size")],
        runner: experiments::figure13::run,
    },
    Experiment {
        id: "figure14",
        title: "Figure 14: CPU-only vs discrete GPU vs APU data movement",
        params: &[u64_pos("elements")],
        runner: experiments::figure14::run,
    },
    Experiment {
        id: "figure15",
        title: "Figure 15: fine-grained CPU/GPU overlap via chunk flags",
        params: &[u64_pos("elements"), u64_pos("chunks")],
        runner: experiments::figure15::run,
    },
    Experiment {
        id: "figure16",
        title: "Figure 16: CCD->XCD modular swap (MI300A -> MI300X)",
        params: &[],
        runner: experiments::figure16::run,
    },
    Experiment {
        id: "figure17",
        title: "Figure 17: compute/memory partitioning modes",
        params: &[],
        runner: experiments::figure17::run,
    },
    Experiment {
        id: "figure18",
        title: "Figure 18: exemplary MI300A/MI300X node architectures",
        params: &[],
        runner: experiments::figure18::run,
    },
    Experiment {
        id: "figure19",
        title: "Figure 19: generational uplift over MI250X",
        params: &[],
        runner: experiments::figure19::run,
    },
    Experiment {
        id: "figure20",
        title: "Figure 20: HPC speedups of MI300A over MI250X",
        params: &[],
        runner: experiments::figure20::run,
    },
    Experiment {
        id: "figure21",
        title: "Figure 21: Llama-2 70B inference latency on MI300X",
        params: &[],
        runner: experiments::figure21::run,
    },
    Experiment {
        id: "frontier_node",
        title: "Figure 2: the Frontier node as four conjoined EHPs",
        params: &[],
        runner: experiments::frontier_node::run,
    },
    Experiment {
        id: "modular_platform",
        title: "Section VII: modular platform design space + exascale RAS",
        params: &[num_pos("checkpoint_write_s")],
        runner: experiments::modular_platform::run,
    },
    Experiment {
        id: "power_management",
        title: "Section V.D/V.E: power/thermal/DVFS management loop",
        params: &[num_pos("socket_power_w"), num_pos("shift_w")],
        runner: experiments::power_management::run,
    },
    Experiment {
        id: "ehpv3_audit",
        title: "Section III.A: why EHPv3 3D stacking was not productised",
        params: &[],
        runner: experiments::ehpv3_audit::run,
    },
    Experiment {
        id: "ehpv4_audit",
        title: "Figure 4: remaining EHPv4 challenges vs MI300A",
        params: &[],
        runner: experiments::ehpv4_audit::run,
    },
    Experiment {
        id: "microarch_audit",
        title: "Section IV.B: icache sharing, occupancy, L1 data path",
        params: &[],
        runner: experiments::microarch_audit::run,
    },
    Experiment {
        id: "packaging_audit",
        title: "Figures 9/10 + Section V.A: mirroring, TSVs, beachfront",
        params: &[],
        runner: experiments::packaging_audit::run,
    },
    Experiment {
        id: "ic_sweep",
        title: "Section IV.C: Infinity Cache / interleave trace sweep",
        params: &[
            ParamSpec {
                name: "ic_mib",
                // 0 disables the cache.
                kind: ParamKind::U64 { min: 0, max: 4096 },
            },
            ParamSpec {
                name: "stack_granule",
                kind: ParamKind::U64 {
                    min: 256,
                    max: 1 << 30,
                },
            },
            ParamSpec {
                name: "channel_granule",
                kind: ParamKind::U64 {
                    min: 128,
                    max: 1 << 30,
                },
            },
            ParamSpec {
                name: "hashed",
                kind: ParamKind::Bool,
            },
            ParamSpec {
                name: "pattern",
                kind: ParamKind::EnumStr(&["sequential", "strided", "random", "chase", "hot"]),
            },
            u64_pos("accesses"),
            u64_pos("footprint_mib"),
            ParamSpec {
                name: "write_fraction",
                kind: ParamKind::Num { min: 0.0, max: 1.0 },
            },
            ParamSpec {
                name: "jobs",
                kind: ParamKind::U64 { min: 1, max: 64 },
            },
        ],
        runner: experiments::ic_sweep::run,
    },
    Experiment {
        id: "mem_bank_audit",
        title: "Section IV.C: bank-level channel decomposition audit",
        params: &[
            u64_pos("accesses"),
            ParamSpec {
                name: "jobs",
                kind: ParamKind::U64 { min: 1, max: 64 },
            },
        ],
        runner: experiments::mem_bank_audit::run,
    },
];

/// The S1 schema of every registered experiment, in paper order.
#[must_use]
pub fn schemas() -> Vec<ExperimentSchema> {
    REGISTRY
        .iter()
        .map(|e| ExperimentSchema {
            id: e.id,
            params: e.params,
        })
        .collect()
}

/// All experiments, in paper order.
#[must_use]
pub fn all() -> &'static [Experiment] {
    REGISTRY
}

/// All experiment ids, in paper order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        let ids = ids();
        for (i, id) in ids.iter().enumerate() {
            assert!(find(id).is_some(), "{id} must resolve");
            assert!(!ids[i + 1..].contains(id), "{id} duplicated");
        }
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn registry_covers_all_paper_artefacts() {
        assert!(ids().len() >= 20);
        for required in ["table1", "figure20", "figure21", "ic_sweep"] {
            assert!(find(required).is_some());
        }
    }
}
