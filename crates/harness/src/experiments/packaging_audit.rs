//! The Section V packaging analyses: **Figure 9** (IOD mirroring + TSV
//! redundancy + USR TX/RX swap), **Figure 10** (P/G TSV grid and
//! Infinity-Cache macro pitch matching), and the Section V.A beachfront
//! argument for four IODs.

use ehp_package::beachfront::{self, BeachfrontDemand, BeachfrontSupply};
use ehp_package::chiplet::{reticle_limit, ChipletKind, Footprint};
use ehp_package::floorplan::Floorplan;
use ehp_package::mirror::{mi300_base_interface, IodInstance, IodVariant, UsrEdge};
use ehp_package::tsv;
use ehp_sim_core::json::Json;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);

    rep.section("Figure 9: TSV redundancy across IOD variants");
    let base = mi300_base_interface();
    let mut rows = Vec::new();
    let mut all_with_redundancy = true;
    for v in IodVariant::ALL {
        let without = base.alignment(v).is_some();
        let with = IodInstance::production(v).accepts_chiplet();
        all_with_redundancy &= with;
        rep.row(format!(
            "  {v:?}: without redundancy: {without:<5}  with redundant TSVs: {with}"
        ));
        rows.push(Json::object([
            ("variant", Json::from(format!("{v:?}"))),
            ("without_redundancy", Json::from(without)),
            ("with_redundancy", Json::from(with)),
        ]));
    }
    let red = base.with_mirror_redundancy();
    rep.kv(
        "signal TSV sites (base -> redundant)",
        format!("{} -> {}", base.iod_pins.len(), red.iod_pins.len()),
    );

    rep.section("Figure 9: USR TX/RX pairing on the mirrored IOD");
    let a_edge = UsrEdge::base_pattern();
    let naive = a_edge.as_mirrored_facing();
    let fixed = naive.with_swapped_polarity();
    let naive_pairs = a_edge.pairs_with(&naive).is_ok();
    let fixed_pairs = a_edge.pairs_with(&fixed).is_ok();
    rep.kv("naive mirrored tapeout pairs", naive_pairs);
    rep.kv("after TX/RX swap pairs", fixed_pairs);

    rep.section("Section V.D / Figure 10: power delivery");
    rep.kv(
        "P/G TSV grid current density",
        format!("{:.2} A/mm^2 (paper: >1.5)", tsv::current_density()),
    );
    let iod = Footprint::of(ChipletKind::Iod);
    let grid_symmetric = tsv::check_symmetry(iod.w, iod.h).is_ok();
    rep.kv(
        "grid symmetric under all mirror/rotate permutations",
        grid_symmetric,
    );
    rep.kv(
        "Infinity Cache macro pitch-matched to TSV stripes",
        tsv::is_pitch_matched(),
    );
    rep.kv(
        "inter-stripe channel utilisation",
        format!("{:.0}%", tsv::channel_utilization() * 100.0),
    );

    rep.section("Section V.A: beachfront accounting");
    rep.kv(
        "edge demand (8 HBM PHYs + 8 x16)",
        format!("{:.0} mm", BeachfrontDemand::mi300().required_mm()),
    );
    rep.kv(
        "single reticle-limit die supplies",
        format!(
            "{:.0} mm usable of {:.0} mm perimeter",
            BeachfrontSupply::single_die().available_mm(),
            reticle_limit().perimeter()
        ),
    );
    rep.kv(
        "four IODs supply",
        format!(
            "{:.0} mm usable",
            BeachfrontSupply::four_iods().available_mm()
        ),
    );
    let partitioning_ok = beachfront::partitioning_is_necessary_and_sufficient();
    rep.kv("partitioning necessary and sufficient", partitioning_ok);

    rep.section("MI300A plan view (I=IOD X=XCD C=CCD H=HBM u/p=PHYs)");
    for line in Floorplan::mi300a().ascii_render().lines() {
        rep.row(format!("  {line}"));
    }
    rep.section("EHPv4 plan view (note the empty regions)");
    for line in Floorplan::ehpv4().ascii_render().lines() {
        rep.row(format!("  {line}"));
    }

    let mut res = ExperimentResult::new(rep);
    res.metric(
        "all_variants_accept_with_redundancy",
        f64::from(all_with_redundancy),
    );
    res.metric(
        "txrx_swap_fixes_pairing",
        f64::from(!naive_pairs && fixed_pairs),
    );
    res.metric("pg_grid_current_density", tsv::current_density());
    res.metric(
        "partitioning_necessary_and_sufficient",
        f64::from(partitioning_ok),
    );
    res.set_payload(Json::Arr(rows));
    res
}
