//! The [`Experiment`] registry entry and its structured result type.

use std::collections::BTreeMap;

use ehp_lint::ParamSpec;
use ehp_sim_core::json::Json;

use crate::report::Report;
use crate::scenario::Scenario;

/// What an experiment produces: a human-readable report, named numeric
/// metrics (what `ehp check` and regression gates consume), and an
/// optional JSON payload (the figure's data series).
#[derive(Debug)]
pub struct ExperimentResult {
    /// The rendered text report.
    pub(crate) report: Report,
    /// Named scalar metrics, sorted for deterministic output.
    pub(crate) metrics: BTreeMap<String, f64>,
    /// Figure data rows, written to `target/figures/<name>.json`.
    pub(crate) payload: Option<Json>,
}

impl ExperimentResult {
    /// Starts a result around a report.
    #[must_use]
    pub(crate) fn new(report: Report) -> ExperimentResult {
        ExperimentResult {
            report,
            metrics: BTreeMap::new(),
            payload: None,
        }
    }

    /// Records a named metric (non-finite values are stored as-is and
    /// serialised as `null`; `ehp check` treats them as failures).
    pub(crate) fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Attaches the figure payload.
    pub(crate) fn set_payload(&mut self, payload: Json) {
        self.payload = Some(payload);
    }
}

/// One paper experiment: a pure function from a [`Scenario`] to an
/// [`ExperimentResult`], registered under a stable id.
///
/// The runner must be deterministic given the scenario (including its
/// seed) — the batch runner relies on this for reproducible summaries
/// and the result cache for replaying them — and panic-free for the
/// default scenario (the runner isolates panics, but a panicking
/// default is a bug).
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable registry id (e.g. `"figure20"`).
    pub(crate) id: &'static str,
    /// One-line human description.
    pub(crate) title: &'static str,
    /// The scenario parameters this experiment reads. `ehp lint` (S1)
    /// rejects scenario specs naming anything else.
    pub(crate) params: &'static [ParamSpec],
    /// The experiment body.
    pub(crate) runner: fn(&Scenario) -> ExperimentResult,
}

impl Experiment {
    /// Runs the experiment.
    #[must_use]
    pub(crate) fn run(&self, scenario: &Scenario) -> ExperimentResult {
        (self.runner)(scenario)
    }
}
