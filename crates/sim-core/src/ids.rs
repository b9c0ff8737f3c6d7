//! Component identifiers used across the simulator.
//!
//! Each identifier is a newtype over a small integer ([C-NEWTYPE]) so that
//! a channel index can never be confused with a chiplet index. The MI300
//! design has a deep component hierarchy — node → socket → IOD → chiplet →
//! CU — and these ids mirror it.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index value.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

define_id!(
    /// A node in a multi-socket system topology (Figure 18).
    NodeId
);
define_id!(
    /// A processor socket (one MI300A/MI300X module, or one EPYC host).
    SocketId
);
define_id!(
    /// One of the four I/O dies within a socket.
    IodId
);
define_id!(
    /// A compute chiplet (XCD or CCD) stacked on an IOD.
    ChipletId
);
define_id!(
    /// A compute unit within an XCD.
    CuId
);
define_id!(
    /// An HBM memory channel (0..128 on MI300).
    ChannelId
);
define_id!(
    /// A user-mode HSA queue.
    QueueId
);
define_id!(
    /// A kernel dispatch (one AQL dispatch packet).
    DispatchId
);
define_id!(
    /// A workgroup within a kernel dispatch.
    WorkgroupId
);
define_id!(
    /// A compute/memory partition exposed to software (Figure 17).
    PartitionId
);
define_id!(
    /// An agent that can own cache lines in the coherence protocol
    /// (a CCD core-complex or an XCD).
    AgentId
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; just exercise the accessor.
        assert_eq!(ChannelId(5).index(), ChipletId(5).index());
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        for i in 0..128u32 {
            set.insert(ChannelId(i));
        }
        assert_eq!(set.len(), 128);
        assert!(ChannelId(3) < ChannelId(4));
    }
}
