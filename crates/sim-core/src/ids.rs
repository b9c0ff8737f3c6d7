//! Component identifiers used across the simulator.
//!
//! Each identifier is a newtype over a small integer ([C-NEWTYPE]) so that
//! a channel index can never be confused with a chiplet index. The MI300
//! design has a deep component hierarchy — node → socket → IOD → chiplet →
//! CU — and these ids mirror it.

use core::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $label:literal) => {
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

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(u32::try_from(v).expect("id out of range"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A node in a multi-socket system topology (Figure 18).
    NodeId,
    "node"
);
define_id!(
    /// A processor socket (one MI300A/MI300X module, or one EPYC host).
    SocketId,
    "skt"
);
define_id!(
    /// One of the four I/O dies within a socket.
    IodId,
    "iod"
);
define_id!(
    /// A compute chiplet (XCD or CCD) stacked on an IOD.
    ChipletId,
    "chiplet"
);
define_id!(
    /// A compute unit within an XCD.
    CuId,
    "cu"
);
define_id!(
    /// An HBM memory channel (0..128 on MI300).
    ChannelId,
    "ch"
);
define_id!(
    /// A user-mode HSA queue.
    QueueId,
    "queue"
);
define_id!(
    /// A kernel dispatch (one AQL dispatch packet).
    DispatchId,
    "disp"
);
define_id!(
    /// A workgroup within a kernel dispatch.
    WorkgroupId,
    "wg"
);
define_id!(
    /// A compute/memory partition exposed to software (Figure 17).
    PartitionId,
    "part"
);
define_id!(
    /// An agent that can own cache lines in the coherence protocol
    /// (a CCD core-complex or an XCD).
    AgentId,
    "agent"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; just exercise the conversions.
        let c = ChannelId::from(5u32);
        let x = ChipletId::from(5usize);
        assert_eq!(c.index(), x.index());
        assert_eq!(format!("{c}"), "ch5");
        assert_eq!(format!("{x}"), "chiplet5");
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

    #[test]
    #[should_panic(expected = "id out of range")]
    fn oversized_id_panics() {
        let _ = CuId::from(usize::MAX);
    }
}
