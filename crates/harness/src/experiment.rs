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
    pub report: Report,
    /// Named scalar metrics, sorted for deterministic output.
    pub metrics: BTreeMap<String, f64>,
    /// Figure data rows, written to `target/figures/<name>.json`.
    pub payload: Option<Json>,
}

impl ExperimentResult {
    /// Starts a result around a report.
    #[must_use]
    pub fn new(report: Report) -> ExperimentResult {
        ExperimentResult {
            report,
            metrics: BTreeMap::new(),
            payload: None,
        }
    }

    /// Records a named metric (non-finite values are stored as-is and
    /// serialised as `null`; `ehp check` treats them as failures).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Attaches the figure payload.
    pub fn set_payload(&mut self, payload: Json) {
        self.payload = Some(payload);
    }

    /// Metrics as a JSON object.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
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
    pub id: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// The scenario parameters this experiment reads. `ehp lint` (S1)
    /// rejects scenario specs naming anything else.
    pub params: &'static [ParamSpec],
    /// The experiment body.
    pub runner: fn(&Scenario) -> ExperimentResult,
}

impl Experiment {
    /// Runs the experiment.
    #[must_use]
    pub fn run(&self, scenario: &Scenario) -> ExperimentResult {
        (self.runner)(scenario)
    }
}
