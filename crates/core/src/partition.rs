//! Compute and memory partitioning modes (Figure 17, Section VIII).
//!
//! MI300A's six XCDs run as one compute device (SPX) or three partitions
//! of two (TPX), always with a single uniformly-interleaved NUMA domain
//! (NPS1). The XCD-only MI300X partitions in powers of two from one
//! partition down to eight (one XCD each), with NPS1 or NPS4 memory —
//! the latter mapping each quadrant's domain to its IOD pair, which
//! "lends itself to PCIe SR-IOV where each virtual function can be
//! mapped to a separate partition".

use ehp_dispatch::dispatcher::DispatcherConfig;

use crate::products::{Product, ProductSpec};

/// NUMA-nodes-per-socket memory mode (Figure 17): a label of the
/// partitioning table. The memory model itself interleaves NPS1 only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaMode {
    /// One NUMA domain: addresses interleave over all 8 stacks.
    Nps1,
    /// Four NUMA domains: the address space is split into quadrants, each
    /// interleaving over the 2 stacks owned by one IOD.
    Nps4,
}

/// A compute-partitioning mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputePartitioning {
    /// Single partition: the whole device as one logical GPU (SPX).
    Single,
    /// Triple partition (MI300A TPX): three partitions of two XCDs.
    Triple,
    /// Power-of-two partitions (MI300X): 2, 4 or 8 partitions.
    PowerOfTwo(u32),
}

impl ComputePartitioning {
    /// Number of compute partitions.
    #[must_use]
    pub fn count(self) -> u32 {
        match self {
            ComputePartitioning::Single => 1,
            ComputePartitioning::Triple => 3,
            ComputePartitioning::PowerOfTwo(n) => n,
        }
    }
}

/// Errors from partition validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PartitionError {
    /// The mode is not offered on this product.
    UnsupportedMode(Product),
    /// The partition count does not divide the XCD count.
    Indivisible {
        /// XCDs on the device.
        xcds: u32,
        /// Requested partitions.
        partitions: u32,
    },
    /// The NUMA mode is not offered on this product.
    UnsupportedNuma(Product),
}

/// A validated partition configuration for a product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    spec: ProductSpec,
    mode: ComputePartitioning,
    numa: NumaMode,
}

impl PartitionConfig {
    /// Validates and creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] if the product does not offer the
    /// requested compute or memory mode.
    pub(crate) fn new(
        product: Product,
        mode: ComputePartitioning,
        numa: NumaMode,
    ) -> Result<PartitionConfig, PartitionError> {
        let spec = product.spec();
        match product {
            Product::Mi300a => {
                if !matches!(
                    mode,
                    ComputePartitioning::Single | ComputePartitioning::Triple
                ) {
                    return Err(PartitionError::UnsupportedMode(product));
                }
                // "In both partitioning modes, the entire HBM address
                // space is uniformly interleaved ... (NPS1)."
                if numa != NumaMode::Nps1 {
                    return Err(PartitionError::UnsupportedNuma(product));
                }
            }
            Product::Mi300x => match mode {
                ComputePartitioning::Single => {}
                ComputePartitioning::PowerOfTwo(n) if [2, 4, 8].contains(&n) => {}
                _ => return Err(PartitionError::UnsupportedMode(product)),
            },
            _ => {
                // MI250X exposes each GCD separately and EHPv4 never
                // shipped; neither offers the MI300 partitioning modes.
                if mode != ComputePartitioning::Single {
                    return Err(PartitionError::UnsupportedMode(product));
                }
                if numa != NumaMode::Nps1 {
                    return Err(PartitionError::UnsupportedNuma(product));
                }
            }
        }
        let n = mode.count();
        if !spec.gpu_chiplets.is_multiple_of(n) {
            return Err(PartitionError::Indivisible {
                xcds: spec.gpu_chiplets,
                partitions: n,
            });
        }
        Ok(PartitionConfig { spec, mode, numa })
    }

    /// All valid configurations for a product (the rows of Figure 17).
    #[must_use]
    pub fn enumerate(product: Product) -> Vec<PartitionConfig> {
        let modes = [
            ComputePartitioning::Single,
            ComputePartitioning::Triple,
            ComputePartitioning::PowerOfTwo(2),
            ComputePartitioning::PowerOfTwo(4),
            ComputePartitioning::PowerOfTwo(8),
        ];
        let numas = [NumaMode::Nps1, NumaMode::Nps4];
        let mut out = Vec::new();
        for m in modes {
            for n in numas {
                if let Ok(c) = PartitionConfig::new(product, m, n) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// The compute mode.
    #[must_use]
    pub fn mode(&self) -> ComputePartitioning {
        self.mode
    }

    /// The NUMA mode.
    #[must_use]
    pub fn numa(&self) -> NumaMode {
        self.numa
    }

    /// XCDs per partition.
    #[must_use]
    pub fn xcds_per_partition(&self) -> u32 {
        self.spec.gpu_chiplets / self.mode.count()
    }

    /// The dispatcher configuration for one partition.
    #[must_use]
    pub fn dispatcher_config(&self) -> DispatcherConfig {
        DispatcherConfig {
            xcds: self.xcds_per_partition(),
            cus_per_xcd: self.spec.cus_per_chiplet,
        }
    }

    /// SR-IOV virtual-function count this mode supports (one VF per
    /// partition).
    #[must_use]
    pub fn sriov_vfs(&self) -> u32 {
        self.mode.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi300a_offers_spx_and_tpx_only() {
        let modes = PartitionConfig::enumerate(Product::Mi300a);
        assert_eq!(modes.len(), 2);
        assert!(modes.iter().all(|c| c.numa() == NumaMode::Nps1));
        let counts: Vec<u32> = modes.iter().map(|c| c.mode().count()).collect();
        assert_eq!(counts, vec![1, 3]);
    }

    #[test]
    fn mi300a_rejects_nps4() {
        assert_eq!(
            PartitionConfig::new(Product::Mi300a, ComputePartitioning::Single, NumaMode::Nps4),
            Err(PartitionError::UnsupportedNuma(Product::Mi300a))
        );
    }

    #[test]
    fn mi300x_offers_powers_of_two_and_both_numa_modes() {
        let modes = PartitionConfig::enumerate(Product::Mi300x);
        // {1,2,4,8} partitions x {NPS1, NPS4} = 8 rows.
        assert_eq!(modes.len(), 8);
        let mut counts: Vec<u32> = modes.iter().map(|c| c.mode().count()).collect();
        counts.dedup();
        assert_eq!(counts, vec![1, 2, 4, 8]);
    }

    #[test]
    fn mi300x_rejects_triple() {
        assert_eq!(
            PartitionConfig::new(Product::Mi300x, ComputePartitioning::Triple, NumaMode::Nps1),
            Err(PartitionError::UnsupportedMode(Product::Mi300x))
        );
    }

    #[test]
    fn tpx_gives_two_xcds_per_partition() {
        let c = PartitionConfig::new(Product::Mi300a, ComputePartitioning::Triple, NumaMode::Nps1)
            .unwrap();
        assert_eq!(c.xcds_per_partition(), 2);
        assert_eq!(c.sriov_vfs(), 3);
    }

    #[test]
    fn xcd_assignment_covers_all_disjointly() {
        for cfg in PartitionConfig::enumerate(Product::Mi300x) {
            assert_eq!(
                cfg.mode().count() * cfg.xcds_per_partition(),
                8,
                "all XCDs covered"
            );
        }
    }

    #[test]
    fn eight_way_partition_is_one_xcd_each() {
        let c = PartitionConfig::new(
            Product::Mi300x,
            ComputePartitioning::PowerOfTwo(8),
            NumaMode::Nps4,
        )
        .unwrap();
        assert_eq!(c.xcds_per_partition(), 1);
        assert_eq!(c.dispatcher_config().xcds, 1);
    }

    #[test]
    fn dispatcher_config_reflects_partition() {
        let c = PartitionConfig::new(Product::Mi300a, ComputePartitioning::Single, NumaMode::Nps1)
            .unwrap();
        let d = c.dispatcher_config();
        assert_eq!(d.xcds, 6);
        assert_eq!(d.cus_per_xcd, 38);
    }

    #[test]
    fn mi250x_has_no_partitioning() {
        let modes = PartitionConfig::enumerate(Product::Mi250x);
        assert_eq!(modes.len(), 1);
        assert_eq!(modes[0].mode().count(), 1);
    }
}
