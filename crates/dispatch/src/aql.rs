//! Architected Queueing Language (AQL) kernel-dispatch packets.
//!
//! AQL is the HSA standard's packet format for user-mode kernel launch:
//! "in contrast to lower-level packet formats that describe what values
//! to put into which hardware registers ... AQL packets describe a
//! higher-level goal such as 'launch kernel X with Y workgroups, each
//! with Z threads'" (Section VI.A). This module keeps the part of the
//! kernel-dispatch packet the cooperative dispatcher reads: the grid and
//! workgroup dimensions.

/// Errors from packet validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AqlError {
    /// A workgroup dimension is zero.
    ZeroWorkgroupDim,
    /// A grid dimension is zero.
    ZeroGridDim,
}

/// The dispatch dimensions of a kernel-dispatch AQL packet.
///
/// # Example
///
/// ```
/// use ehp_dispatch::aql::AqlPacket;
///
/// let pkt = AqlPacket::dispatch_1d(4096, 256);
/// assert_eq!(pkt.total_workgroups(), 16);
/// assert_eq!(pkt.validate(), Ok(()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AqlPacket {
    /// Number of dimensions used (1-3).
    pub(crate) setup_dims: u16,
    /// Workitems per workgroup in x/y/z.
    pub(crate) workgroup_size: [u16; 3],
    /// Total workitems in x/y/z.
    pub(crate) grid_size: [u32; 3],
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
            setup_dims: 1,
            workgroup_size: [workgroup, 1, 1],
            grid_size: [grid, 1, 1],
        }
    }

    /// Workgroups along each dimension (ceiling division).
    #[must_use]
    pub(crate) fn workgroups_per_dim(&self) -> [u32; 3] {
        let mut out = [0u32; 3];
        for (o, (&grid, &wg)) in out
            .iter_mut()
            .zip(self.grid_size.iter().zip(self.workgroup_size.iter()))
        {
            *o = grid.max(1).div_ceil(u32::from(wg.max(1)));
        }
        out
    }

    /// Total workgroups in the dispatch ("launch kernel X with Y
    /// workgroups").
    #[must_use]
    pub fn total_workgroups(&self) -> u64 {
        self.workgroups_per_dim()
            .iter()
            .map(|&d| u64::from(d))
            .product()
    }

    /// Validates the packet's semantic constraints.
    ///
    /// # Errors
    ///
    /// Returns [`AqlError::ZeroWorkgroupDim`] / [`AqlError::ZeroGridDim`]
    /// for zero-sized dispatch dimensions (within `setup_dims`).
    pub fn validate(&self) -> Result<(), AqlError> {
        for i in 0..(self.setup_dims.min(3) as usize) {
            if self.workgroup_size[i] == 0 {
                return Err(AqlError::ZeroWorkgroupDim);
            }
            if self.grid_size[i] == 0 {
                return Err(AqlError::ZeroGridDim);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_1d_counts() {
        let p = AqlPacket::dispatch_1d(1000, 64);
        assert_eq!(p.workgroups_per_dim(), [16, 1, 1], "ceil(1000/64)");
        assert_eq!(p.total_workgroups(), 16);
    }

    #[test]
    fn three_d_workgroup_math() {
        let mut p = AqlPacket::dispatch_1d(1, 1);
        p.setup_dims = 3;
        p.workgroup_size = [8, 8, 4];
        p.grid_size = [64, 64, 16];
        assert_eq!(p.workgroups_per_dim(), [8, 8, 4]);
        assert_eq!(p.total_workgroups(), 256);
    }

    #[test]
    fn validate_catches_zero_dims() {
        let mut p = AqlPacket::dispatch_1d(64, 8);
        p.workgroup_size[0] = 0;
        assert_eq!(p.validate(), Err(AqlError::ZeroWorkgroupDim));
        let mut p = AqlPacket::dispatch_1d(64, 8);
        p.grid_size[0] = 0;
        assert_eq!(p.validate(), Err(AqlError::ZeroGridDim));
        // Unused dims are not validated.
        let mut p = AqlPacket::dispatch_1d(64, 8);
        p.grid_size[2] = 0;
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dispatch_1d_rejects_zero() {
        let _ = AqlPacket::dispatch_1d(0, 64);
    }
}
