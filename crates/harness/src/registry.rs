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

/// Largest `figure13` workgroup: the HSA limit of 1024 workitems.
const FIGURE13_MAX_WORKGROUP_SIZE: u64 = 1024;
/// Most `figure13` workgroups whose grid still fits an AQL `u32`.
const FIGURE13_MAX_WORKGROUPS: u64 = u32::MAX as u64 / FIGURE13_MAX_WORKGROUP_SIZE;

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
        params: &[],
        runner: experiments::figure7::run,
    },
    Experiment {
        id: "figure12",
        title: "Figure 12: power distributions and thermal maps",
        params: &[],
        runner: experiments::figure12::run,
    },
    Experiment {
        id: "figure13",
        title: "Figure 13: cooperative multi-XCD dispatch flow",
        params: &[
            ParamSpec {
                name: "workgroups",
                kind: ParamKind::U64 {
                    min: 1,
                    max: FIGURE13_MAX_WORKGROUPS,
                },
            },
            ParamSpec {
                name: "workgroup_size",
                kind: ParamKind::U64 {
                    min: 1,
                    max: FIGURE13_MAX_WORKGROUP_SIZE,
                },
            },
        ],
        runner: experiments::figure13::run,
    },
    Experiment {
        id: "figure14",
        title: "Figure 14: CPU-only vs discrete GPU vs APU data movement",
        params: &[],
        runner: experiments::figure14::run,
    },
    Experiment {
        id: "figure15",
        title: "Figure 15: fine-grained CPU/GPU overlap via chunk flags",
        params: &[],
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
        params: &[],
        runner: experiments::modular_platform::run,
    },
    Experiment {
        id: "power_management",
        title: "Section V.D/V.E: power/thermal/DVFS management loop",
        params: &[],
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
                // 0 disables the cache; a slice splits into a power of
                // two of sets.
                kind: ParamKind::PowerOfTwo {
                    min: 0,
                    max: 4096,
                    at_most: None,
                },
            },
            ParamSpec {
                name: "stack_granule",
                kind: ParamKind::PowerOfTwo {
                    min: 256,
                    max: 1 << 30,
                    at_most: None,
                },
            },
            ParamSpec {
                name: "channel_granule",
                // A stack granule holds whole channel granules. The
                // default channel granule, 256, is no larger than the
                // smallest stack granule, so leaving it unset never
                // breaks the order.
                kind: ParamKind::PowerOfTwo {
                    min: 128,
                    max: 1 << 30,
                    at_most: Some(("stack_granule", experiments::ic_sweep::STACK_GRANULE)),
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
        params: &[ParamSpec {
            name: "jobs",
            kind: ParamKind::U64 { min: 1, max: 64 },
        }],
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
pub(crate) fn all() -> &'static [Experiment] {
    REGISTRY
}

/// All experiment ids, in paper order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Looks up an experiment by id.
#[must_use]
pub(crate) fn find(id: &str) -> Option<&'static Experiment> {
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

    fn figure13_findings(params: &str) -> usize {
        let spec = format!(r#"{{"experiment": "figure13", "params": {params}}}"#);
        ehp_lint::schema::validate_scenario("t.json", &spec, &schemas()).len()
    }

    #[test]
    fn figure13_schema_bounds_the_aql_grid() {
        assert_eq!(figure13_findings(r#"{"workgroup_size": 1024}"#), 0);
        assert_eq!(figure13_findings(r#"{"workgroup_size": 1025}"#), 1);
        assert_eq!(figure13_findings(r#"{"workgroups": 4194303}"#), 0);
        assert_eq!(figure13_findings(r#"{"workgroups": 4194304}"#), 1);
        assert_eq!(figure13_findings(r#"{"workgroups": 0}"#), 1);
        // The largest grid the schema admits still fits a u32.
        let grid = FIGURE13_MAX_WORKGROUPS * FIGURE13_MAX_WORKGROUP_SIZE;
        assert!(u32::try_from(grid).is_ok());
    }
}
