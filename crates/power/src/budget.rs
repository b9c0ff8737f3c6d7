//! The socket power budget and its dynamic reallocation (Figure 12a).

use std::collections::BTreeMap;

use ehp_sim_core::units::Power;

/// A power domain of the MI300-class socket — the bars of Figure 12a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PowerDomain {
    /// The stacked compute chiplets (XCDs, and CCDs on MI300A).
    ComputeChiplets,
    /// Infinity Cache SRAM arrays in the IODs.
    InfinityCache,
    /// The data fabric / NoC routers in the IODs.
    DataFabric,
    /// The die-to-die USR PHYs.
    UsrPhys,
    /// The HBM PHYs on the IOD periphery.
    HbmPhys,
    /// The HBM DRAM stacks themselves.
    HbmDram,
    /// Off-package I/O (x16 IF/PCIe).
    Io,
}

impl PowerDomain {
    /// All domains, in display order.
    pub(crate) const ALL: [PowerDomain; 7] = [
        PowerDomain::ComputeChiplets,
        PowerDomain::InfinityCache,
        PowerDomain::DataFabric,
        PowerDomain::UsrPhys,
        PowerDomain::HbmPhys,
        PowerDomain::HbmDram,
        PowerDomain::Io,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PowerDomain::ComputeChiplets => "compute chiplets",
            PowerDomain::InfinityCache => "infinity cache",
            PowerDomain::DataFabric => "data fabric",
            PowerDomain::UsrPhys => "USR PHYs",
            PowerDomain::HbmPhys => "HBM PHYs",
            PowerDomain::HbmDram => "HBM DRAM",
            PowerDomain::Io => "I/O",
        }
    }
}

/// A power assignment across domains.
#[derive(Debug, Clone)]
pub struct PowerDistribution {
    watts: BTreeMap<PowerDomain, Power>,
}

impl PowerDistribution {
    /// Creates a distribution from explicit per-domain powers.
    #[must_use]
    pub(crate) fn new(
        entries: impl IntoIterator<Item = (PowerDomain, Power)>,
    ) -> PowerDistribution {
        PowerDistribution {
            watts: entries.into_iter().collect(),
        }
    }

    /// Power assigned to a domain (zero if absent).
    #[must_use]
    pub fn get(&self, d: PowerDomain) -> Power {
        self.watts.get(&d).copied().unwrap_or(Power::ZERO)
    }

    /// Total across all domains.
    #[must_use]
    pub fn total(&self) -> Power {
        self.watts.values().copied().sum()
    }

    /// Normalised fraction per domain (the y-axis of Figure 12a).
    ///
    /// # Panics
    ///
    /// Panics if the total is zero.
    #[must_use]
    pub fn normalized(&self) -> Vec<(PowerDomain, f64)> {
        let total = self.total().as_watts();
        assert!(total > 0.0, "cannot normalise a zero distribution");
        PowerDomain::ALL
            .iter()
            .map(|&d| (d, self.get(d).as_watts() / total))
            .collect()
    }
}

/// Named workload scenarios with representative power shapes.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadProfile {
    /// GPU compute-dominated (dense GEMM-like): "the majority of the
    /// power can be directed to the compute chiplets."
    ComputeIntensive,
    /// Memory/bandwidth-dominated (STREAM/HPCG-like): "more of the power
    /// can be shifted to the memory system, data fabric, and USR links."
    MemoryIntensive,
    /// Mostly idle housekeeping.
    Idle,
}

impl WorkloadProfile {
    /// The profile's fractional split across domains (sums to 1).
    #[must_use]
    pub(crate) fn fractions(self) -> [(PowerDomain, f64); 7] {
        use PowerDomain::*;
        match self {
            WorkloadProfile::ComputeIntensive => [
                (ComputeChiplets, 0.62),
                (InfinityCache, 0.04),
                (DataFabric, 0.08),
                (UsrPhys, 0.04),
                (HbmPhys, 0.05),
                (HbmDram, 0.13),
                (Io, 0.04),
            ],
            WorkloadProfile::MemoryIntensive => [
                (ComputeChiplets, 0.33),
                (InfinityCache, 0.08),
                (DataFabric, 0.14),
                (UsrPhys, 0.11),
                (HbmPhys, 0.10),
                (HbmDram, 0.20),
                (Io, 0.04),
            ],
            WorkloadProfile::Idle => [
                (ComputeChiplets, 0.30),
                (InfinityCache, 0.10),
                (DataFabric, 0.20),
                (UsrPhys, 0.05),
                (HbmPhys, 0.10),
                (HbmDram, 0.20),
                (Io, 0.05),
            ],
        }
    }
}

/// Manages a socket's TDP budget with dynamic vertical reallocation.
///
/// # Example
///
/// ```
/// use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
/// use ehp_sim_core::units::Power;
///
/// let mut pm = SocketPowerManager::new(Power::from_watts(550.0)); // MI300A TDP
/// let dist = pm.apply_profile(WorkloadProfile::ComputeIntensive);
/// assert!(dist.get(PowerDomain::ComputeChiplets).as_watts() > 300.0);
/// assert!(dist.total() <= Power::from_watts(550.0));
/// ```
#[derive(Debug, Clone)]
pub struct SocketPowerManager {
    tdp: Power,
    current: PowerDistribution,
}

/// The idle profile's envelope, as a fraction of TDP.
const IDLE_FRACTION: f64 = 0.25;

impl SocketPowerManager {
    /// Creates a manager with the given TDP, starting in the idle
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is zero.
    #[must_use]
    pub fn new(tdp: Power) -> SocketPowerManager {
        assert!(tdp.as_watts() > 0.0, "TDP must be positive");
        let mut pm = SocketPowerManager {
            tdp,
            current: PowerDistribution::new([]),
        };
        pm.apply_profile(WorkloadProfile::Idle);
        pm
    }

    /// The current distribution.
    #[must_use]
    pub fn current(&self) -> &PowerDistribution {
        &self.current
    }

    /// Applies a named workload profile and returns the new distribution.
    /// Idle runs at a fraction of TDP; active profiles use the full TDP.
    pub fn apply_profile(&mut self, profile: WorkloadProfile) -> PowerDistribution {
        let envelope = match profile {
            WorkloadProfile::Idle => self.tdp.scale(IDLE_FRACTION),
            _ => self.tdp,
        };
        self.current = PowerDistribution::new(
            profile
                .fractions()
                .into_iter()
                .map(|(d, f)| (d, envelope.scale(f))),
        );
        self.current.clone()
    }

    /// Shifts up to `amount` of power from one domain to another
    /// (the vertical IOD↔chiplet reallocation of Section V.D). Returns
    /// the amount actually moved (limited by the source's allocation).
    pub fn shift(&mut self, from: PowerDomain, to: PowerDomain, amount: Power) -> Power {
        let available = self.current.get(from);
        let moved = amount.min(available);
        let mut watts = self.current.watts.clone();
        watts.insert(from, available - moved);
        watts.insert(to, self.current.get(to) + moved);
        self.current = PowerDistribution { watts };
        moved
    }

    /// Verifies the budget invariant: the distribution never exceeds TDP.
    ///
    /// # Errors
    ///
    /// Returns the excess wattage if over budget.
    pub fn check_budget(&self) -> Result<(), f64> {
        let total = self.current.total().as_watts();
        let tdp = self.tdp.as_watts();
        // Tolerate floating-point dust.
        if total > tdp * (1.0 + 1e-9) {
            Err(total - tdp)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi300a() -> SocketPowerManager {
        SocketPowerManager::new(Power::from_watts(550.0))
    }

    #[test]
    fn profiles_sum_to_one() {
        for p in [
            WorkloadProfile::ComputeIntensive,
            WorkloadProfile::MemoryIntensive,
            WorkloadProfile::Idle,
        ] {
            let sum: f64 = p.fractions().iter().map(|(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{p:?} sums to {sum}");
        }
    }

    #[test]
    fn compute_profile_majority_to_compute() {
        let mut pm = mi300a();
        let d = pm.apply_profile(WorkloadProfile::ComputeIntensive);
        let frac = d.get(PowerDomain::ComputeChiplets).as_watts() / d.total().as_watts();
        assert!(frac > 0.5, "majority of power to compute, got {frac}");
    }

    #[test]
    fn memory_profile_shifts_to_memory_fabric_usr() {
        let mut pm = mi300a();
        let c = pm.apply_profile(WorkloadProfile::ComputeIntensive);
        let m = pm.apply_profile(WorkloadProfile::MemoryIntensive);
        for d in [
            PowerDomain::HbmDram,
            PowerDomain::DataFabric,
            PowerDomain::UsrPhys,
            PowerDomain::InfinityCache,
            PowerDomain::HbmPhys,
        ] {
            assert!(
                m.get(d) > c.get(d),
                "{} should get more power in memory-intensive mode",
                d.name()
            );
        }
        assert!(m.get(PowerDomain::ComputeChiplets) < c.get(PowerDomain::ComputeChiplets));
    }

    #[test]
    fn budget_never_exceeded() {
        let mut pm = mi300a();
        for p in [
            WorkloadProfile::ComputeIntensive,
            WorkloadProfile::MemoryIntensive,
            WorkloadProfile::Idle,
        ] {
            pm.apply_profile(p);
            pm.check_budget().unwrap();
        }
    }

    #[test]
    fn idle_uses_reduced_envelope() {
        let mut pm = mi300a();
        let d = pm.apply_profile(WorkloadProfile::Idle);
        assert!(d.total().as_watts() < 0.5 * pm.tdp.as_watts());
    }

    #[test]
    fn shift_conserves_total() {
        let mut pm = mi300a();
        pm.apply_profile(WorkloadProfile::ComputeIntensive);
        let before = pm.current().total();
        let moved = pm.shift(
            PowerDomain::ComputeChiplets,
            PowerDomain::HbmDram,
            Power::from_watts(50.0),
        );
        assert_eq!(moved.as_watts(), 50.0);
        let after = pm.current().total();
        assert!((before.as_watts() - after.as_watts()).abs() < 1e-9);
        pm.check_budget().unwrap();
    }

    #[test]
    fn shift_is_limited_by_source() {
        let mut pm = mi300a();
        pm.apply_profile(WorkloadProfile::ComputeIntensive);
        let io = pm.current().get(PowerDomain::Io);
        let moved = pm.shift(
            PowerDomain::Io,
            PowerDomain::HbmDram,
            Power::from_watts(1e6),
        );
        assert_eq!(moved, io, "cannot move more than the source has");
        assert_eq!(pm.current().get(PowerDomain::Io), Power::ZERO);
    }

    #[test]
    fn normalized_fractions() {
        let mut pm = mi300a();
        let d = pm.apply_profile(WorkloadProfile::MemoryIntensive);
        let sum: f64 = d.normalized().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "TDP must be positive")]
    fn zero_tdp_panics() {
        let _ = SocketPowerManager::new(Power::ZERO);
    }
}
