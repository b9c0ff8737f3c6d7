//! Memory request/response types shared across the memory subsystem.

use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AccessKind {
    /// A load; the requester waits for data.
    Read,
    /// A store; completion means globally visible.
    Write,
}

/// A single memory request as seen by the memory subsystem (post-L2,
/// post-coherence): a physical address and a size.
///
/// # Example
///
/// ```
/// use ehp_mem::request::MemRequest;
/// let r = MemRequest::read(0x1000, 128);
/// assert!(r.is_read());
/// assert_eq!(r.size.as_u64(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical byte address.
    pub addr: u64,
    /// Access size in bytes (usually one 128 B cache line).
    pub size: Bytes,
    /// Load or store.
    pub(crate) kind: AccessKind,
}

impl MemRequest {
    /// Constructs a read request.
    #[must_use]
    pub fn read(addr: u64, size: u64) -> MemRequest {
        MemRequest {
            addr,
            size: Bytes(size),
            kind: AccessKind::Read,
        }
    }

    /// `true` for loads.
    #[must_use]
    pub fn is_read(&self) -> bool {
        self.kind == AccessKind::Read
    }

    /// `true` for stores.
    #[must_use]
    pub(crate) fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

/// The outcome of a memory access.
#[derive(Debug, Clone, Copy)]
pub struct MemResponse {
    /// Absolute time at which the access completes.
    pub completes_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(MemRequest::read(0, 64).is_read());
        let write = MemRequest {
            kind: AccessKind::Write,
            ..MemRequest::read(0, 64)
        };
        assert!(write.is_write());
        assert!(!write.is_read());
    }
}
