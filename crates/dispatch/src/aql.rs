//! Architected Queueing Language (AQL) kernel-dispatch packets.
//!
//! AQL is the HSA standard's packet format for user-mode kernel launch:
//! "in contrast to lower-level packet formats that describe what values
//! to put into which hardware registers ... AQL packets describe a
//! higher-level goal such as 'launch kernel X with Y workgroups, each
//! with Z threads'" (Section VI.A). This module keeps the part of the
//! kernel-dispatch packet the cooperative dispatcher reads: the grid and
//! workgroup dimensions.

/// The dispatch dimensions of a kernel-dispatch AQL packet. Every
/// dispatch is one-dimensional: the y and z grid and workgroup sizes are
/// 1.
///
/// # Example
///
/// ```
/// use ehp_dispatch::aql::AqlPacket;
///
/// let pkt = AqlPacket::dispatch_1d(4096, 256);
/// assert_eq!(pkt.total_workgroups(), 16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AqlPacket {
    /// Workitems per workgroup.
    workgroup_size: u16,
    /// Total workitems.
    grid_size: u32,
}

impl AqlPacket {
    /// Convenience constructor: a 1-D dispatch of `grid` workitems in
    /// groups of `workgroup`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn dispatch_1d(grid: u32, workgroup: u16) -> AqlPacket {
        assert!(
            grid > 0 && workgroup > 0,
            "dispatch dimensions must be non-zero"
        );
        AqlPacket {
            workgroup_size: workgroup,
            grid_size: grid,
        }
    }

    /// Total workgroups in the dispatch ("launch kernel X with Y
    /// workgroups"): the grid over the workgroup size, rounded up.
    #[must_use]
    pub fn total_workgroups(&self) -> u64 {
        u64::from(self.grid_size.div_ceil(u32::from(self.workgroup_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_1d_counts() {
        let p = AqlPacket::dispatch_1d(1000, 64);
        assert_eq!(p.total_workgroups(), 16, "ceil(1000/64)");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dispatch_1d_rejects_zero() {
        let _ = AqlPacket::dispatch_1d(0, 64);
    }
}
