//! Integration: product specs, partitioning, node topologies and the
//! packaging audits must tell one consistent story across crates.

use ehp_compute::dtype::{DataType, ExecUnit};
use ehp_core::audit::Ehpv4Audit;
use ehp_core::node::NodeTopology;
use ehp_core::partition::PartitionConfig;
use ehp_core::products::{Product, HBM_STACKS};
use ehp_mem::subsystem::MemConfig;
use ehp_package::beachfront;
use ehp_package::floorplan::Floorplan;
use ehp_package::mirror::{IodInstance, IodVariant};
use ehp_workloads::hpc::figure20;
use ehp_workloads::llm::figure21;

#[test]
fn floorplans_match_product_specs() {
    // The physical floorplan and the logical spec must agree on chiplet
    // counts.
    let fp = Floorplan::mi300a();
    let spec = Product::Mi300a.spec();
    assert_eq!(fp.regions_matching("xcd").count() as u32, spec.gpu_chiplets);
    assert_eq!(fp.regions_matching("ccd").count() as u32, spec.ccds);
    assert_eq!(fp.regions_matching("hbm_stack").count() as u32, HBM_STACKS);
    fp.check().unwrap();
}

#[test]
fn apu_socket_matches_spec_numbers() {
    let spec = Product::Mi300a.spec();
    // 128 channels in the MI300 memory system = 8 stacks x 16 channels.
    assert_eq!(MemConfig::mi300_hbm3().total_channels(), 128);
    assert_eq!(HBM_STACKS * 16, 128);
    // Aggregate HBM in the Figure 7 audit equals the spec's bandwidth.
    let hbm = spec
        .interface_bandwidths()
        .into_iter()
        .find(|i| i.name.contains("HBM"))
        .expect("HBM row");
    assert!((hbm.aggregate().as_tb_s() - spec.memory_bandwidth().as_tb_s()).abs() < 1e-9);
}

#[test]
fn partition_dispatchers_cover_all_cus() {
    for product in [Product::Mi300a, Product::Mi300x] {
        let spec = product.spec();
        for cfg in PartitionConfig::enumerate(product) {
            let d = cfg.dispatcher_config();
            assert_eq!(
                d.xcds * cfg.mode().count(),
                spec.gpu_chiplets,
                "{:?}: partitions x width == device",
                product
            );
            assert_eq!(d.cus_per_xcd, spec.cus_per_chiplet);
        }
    }
}

#[test]
fn node_io_budgets_respect_product_links() {
    for node in [NodeTopology::quad_mi300a(), NodeTopology::eight_mi300x()] {
        node.audit().expect("within per-socket link budgets");
    }
}

#[test]
fn modular_swap_works_geometrically_and_logically() {
    // Logical: same IOD count, different compute stacks (Figure 16).
    let a = Product::Mi300a.spec();
    let x = Product::Mi300x.spec();
    assert_eq!(a.gpu_chiplets + a.ccds, 9);
    assert_eq!(x.gpu_chiplets + x.ccds, 8);
    // Geometric: the production IOD accepts chiplets in all variants.
    for v in IodVariant::ALL {
        assert!(IodInstance::production(v).accepts_chiplet());
    }
    // Performance: the swap buys FLOPS.
    let f = |s: &ehp_core::products::ProductSpec| {
        s.peak_tflops(ExecUnit::Matrix, DataType::Fp16)
            .expect("fp16")
    };
    assert!(f(&x) > f(&a));
}

#[test]
fn headline_results_hold_together() {
    // Figure 20: every workload speeds up; OpenFOAM leads.
    let f20 = figure20();
    assert!(f20.iter().all(|r| r.speedup > 1.0));
    assert_eq!(
        f20.iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("rows")
            .workload,
        "OpenFOAM"
    );
    // Figure 21: MI300X leads all three scenarios.
    let f21 = figure21();
    assert!(f21
        .iter()
        .all(|r| r.mi300x_advantage.is_some_and(|a| a > 1.0)));
    // Figure 4 audit: MI300A beats EHPv4 on every challenge.
    let audit = Ehpv4Audit::run();
    assert!(audit.cross_package_bw_advantage() > 1.0);
    assert!(audit.cross_package_energy_advantage() > 1.0);
    assert!(audit.mi300a.package_utilization > audit.ehpv4.package_utilization);
    // Section V.A: the four-IOD partitioning is necessary & sufficient.
    assert!(beachfront::partitioning_is_necessary_and_sufficient());
}

#[test]
fn uplift_is_internally_consistent() {
    let m = Product::Mi250x.spec();
    for p in [Product::Mi300a, Product::Mi300x] {
        let s = p.spec();
        let u = s.uplift_over_mi250x();
        // Recompute one ratio by hand.
        let fp64 = s
            .peak_tflops(ExecUnit::Matrix, DataType::Fp64)
            .expect("fp64")
            / m.peak_tflops(ExecUnit::Matrix, DataType::Fp64)
                .expect("fp64");
        assert!((u.fp64_matrix.expect("both support fp64") - fp64).abs() < 1e-12);
        let io = s.io_bandwidth().as_bytes_per_sec() / m.io_bandwidth().as_bytes_per_sec();
        assert!((u.io_bandwidth - io).abs() < 1e-12);
    }
}
