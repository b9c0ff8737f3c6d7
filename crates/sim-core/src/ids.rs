//! Component identifiers used across the simulator.
//!
//! An identifier is a newtype over a small integer ([C-NEWTYPE]) so that
//! it can never be confused with a count or an address.

/// An agent that can own cache lines in the coherence protocol (a CCD
/// core-complex or an XCD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        for i in 0..128u32 {
            set.insert(AgentId(i));
        }
        assert_eq!(set.len(), 128);
        assert!(AgentId(3) < AgentId(4));
    }
}
