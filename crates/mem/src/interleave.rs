//! Physical address interleaving across HBM stacks and channels.
//!
//! The paper (Section IV.D): *"Every 4 KB of sequential physical addresses
//! map to the same HBM stack before moving on to another HBM stack chosen
//! based on a physical address hashing scheme."* Within a stack, finer
//! interleaving spreads lines across the stack's channels. This is the
//! NPS1 mode of Figure 17: one NUMA domain interleaving over every
//! stack of the socket.

use ehp_sim_core::ids::ChannelId;

/// Static description of the interleaving scheme.
#[derive(Debug, Clone, Copy)]
pub struct InterleaveConfig {
    /// Number of HBM stacks on the socket (8 on MI300).
    pub stacks: u32,
    /// Channels per stack (16 pseudo-channels on MI300-class HBM3).
    pub channels_per_stack: u32,
    /// Contiguous bytes mapped to one stack before hashing to the next
    /// (4 KB on MI300).
    pub stack_granule: u64,
    /// Contiguous bytes mapped to one channel within a stack (256 B here,
    /// two 128 B lines, matching fine channel interleave).
    pub channel_granule: u64,
    /// Whether the stack selector XOR-hashes upper address bits (the
    /// paper's "physical address hashing scheme") or uses plain modulo.
    pub hashed: bool,
}

impl InterleaveConfig {
    /// MI300-style interleave: 8 stacks × 16 channels, 4 KB stack granule,
    /// hashed stack selection.
    #[must_use]
    pub fn mi300() -> InterleaveConfig {
        InterleaveConfig {
            stacks: 8,
            channels_per_stack: 16,
            stack_granule: 4096,
            channel_granule: 256,
            hashed: true,
        }
    }

    /// Total channels on the socket.
    #[must_use]
    pub(crate) fn total_channels(&self) -> u32 {
        self.stacks * self.channels_per_stack
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: counts must
    /// be non-zero, granules must be powers of two, the stack granule must
    /// be a multiple of the channel granule.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.stacks == 0 || self.channels_per_stack == 0 {
            return Err("stack/channel counts must be non-zero".into());
        }
        if !self.stack_granule.is_power_of_two() || !self.channel_granule.is_power_of_two() {
            return Err("granules must be powers of two".into());
        }
        if !self.stack_granule.is_multiple_of(self.channel_granule) {
            return Err("stack granule must be a multiple of channel granule".into());
        }
        Ok(())
    }
}

/// The location a physical address decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// HBM stack index (`0..stacks`).
    pub stack: u32,
    /// Channel within the stack (`0..channels_per_stack`).
    pub channel_in_stack: u32,
    /// Flat channel id across the socket.
    pub channel: ChannelId,
}

/// Reduces `x` modulo `n`, using a mask when `n` is a power of two. The
/// trace-decode hot paths call this millions of times per replay with
/// `n` a runtime value (stack/channel/bank counts), where a full 64-bit
/// division costs an order of magnitude more than the predicted branch.
#[inline]
#[must_use]
pub(crate) fn fast_mod(x: u64, n: u64) -> u64 {
    if n.is_power_of_two() {
        x & (n - 1)
    } else {
        x % n
    }
}

/// Maps physical addresses to (stack, channel) placements.
///
/// Construction precomputes the shift/mask decode for the (validated,
/// power-of-two) granules so [`Interleaver::place`] performs no 64-bit
/// division on the replay bucketing hot path.
///
/// # Example
///
/// ```
/// use ehp_mem::interleave::{InterleaveConfig, Interleaver};
///
/// let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
/// let a = il.place(0x0000);
/// let b = il.place(0x0100); // next 256 B granule, same 4 KB stack granule
/// assert_eq!(a.stack, b.stack);
/// assert_ne!(a.channel, b.channel);
/// ```
#[derive(Debug, Clone)]
pub struct Interleaver {
    cfg: InterleaveConfig,
    /// `log2(stack_granule)`.
    granule_shift: u32,
    /// `stack_granule - 1`.
    granule_mask: u64,
    /// `log2(channel_granule)`.
    chan_shift: u32,
}

impl Interleaver {
    /// Creates an interleaver after validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates `InterleaveConfig::validate` failures.
    pub fn new(cfg: InterleaveConfig) -> Result<Interleaver, String> {
        cfg.validate()?;
        Ok(Interleaver {
            cfg,
            granule_shift: cfg.stack_granule.trailing_zeros(),
            granule_mask: cfg.stack_granule - 1,
            chan_shift: cfg.channel_granule.trailing_zeros(),
        })
    }

    /// XOR-fold the granule index to pick a stack. This mimics the
    /// hardware's address hash: consecutive granules still rotate through
    /// all stacks (the low bits participate), while large power-of-two
    /// strides — pathological for plain modulo — are decorrelated by the
    /// folded upper bits.
    ///
    /// Bank selection inside a channel folds a *different* window of the
    /// address (see [`crate::channel::bank_mix`]), so the channel hash
    /// and the bank index draw from decorrelated bits: the global
    /// address space populates all banks of every channel instead of the
    /// 4/16 aliased subset the pre-decorrelation scheme reached.
    fn hash_stack(&self, granule_idx: u64) -> u32 {
        let stacks = u64::from(self.cfg.stacks);
        if !self.cfg.hashed {
            return fast_mod(granule_idx, stacks) as u32;
        }
        // Fold three higher windows of the granule index onto the low bits.
        let g = granule_idx;
        let folded = g ^ (g >> 7) ^ (g >> 13) ^ (g >> 21);
        fast_mod(folded, stacks) as u32
    }

    /// Decodes a physical address into its placement.
    #[must_use]
    pub fn place(&self, addr: u64) -> Placement {
        // lint:hot-path
        let cfg = &self.cfg;
        let stack = self.hash_stack(addr >> self.granule_shift);

        // Within the stack granule, rotate channel every channel_granule.
        let within_stack = (addr & self.granule_mask) >> self.chan_shift;
        let channel_in_stack = fast_mod(within_stack, u64::from(cfg.channels_per_stack)) as u32;
        let channel = ChannelId(stack * cfg.channels_per_stack + channel_in_stack);
        // lint:hot-path-end

        Placement {
            stack,
            channel_in_stack,
            channel,
        }
    }

    /// Returns the flat channel for an address (the common fast path).
    #[must_use]
    pub(crate) fn channel_of(&self, addr: u64) -> ChannelId {
        self.place(addr).channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn mi300_config_validates() {
        assert!(InterleaveConfig::mi300().validate().is_ok());
        assert_eq!(InterleaveConfig::mi300().total_channels(), 128);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = InterleaveConfig::mi300();
        c.stack_granule = 3000;
        assert!(c.validate().is_err());

        let mut c = InterleaveConfig::mi300();
        c.channel_granule = 512;
        c.stack_granule = 256;
        assert!(c.validate().is_err());

        let mut c = InterleaveConfig::mi300();
        c.stacks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn same_4k_granule_same_stack() {
        let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        let base = 0x1234_5000_u64 & !0xFFF;
        let s0 = il.place(base).stack;
        for off in (0..4096).step_by(64) {
            assert_eq!(il.place(base + off).stack, s0);
        }
    }

    #[test]
    fn channels_rotate_within_granule() {
        let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        let base = 0u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            seen.insert(il.place(base + i * 256).channel_in_stack);
        }
        assert_eq!(seen.len(), 16, "all 16 channels touched within 4 KB");
    }

    #[test]
    fn sequential_stream_balances_across_stacks() {
        let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        let granules = 8_000u64;
        for g in 0..granules {
            *counts.entry(il.place(g * 4096).stack).or_default() += 1;
        }
        assert_eq!(counts.len(), 8);
        for (&stack, &n) in &counts {
            let frac = n as f64 / granules as f64;
            assert!(
                (frac - 0.125).abs() < 0.03,
                "stack {stack} got fraction {frac}"
            );
        }
    }

    #[test]
    fn hashed_beats_modulo_on_power_of_two_stride() {
        // Stride of exactly stacks*granule: modulo maps everything to one
        // stack; the hash must spread it.
        let hashed = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        let linear = Interleaver::new(InterleaveConfig {
            hashed: false,
            ..InterleaveConfig::mi300()
        })
        .unwrap();

        let stride = 8 * 4096u64;
        let mut hashed_stacks = std::collections::HashSet::new();
        let mut linear_stacks = std::collections::HashSet::new();
        for i in 0..1024u64 {
            hashed_stacks.insert(hashed.place(i * stride).stack);
            linear_stacks.insert(linear.place(i * stride).stack);
        }
        assert_eq!(linear_stacks.len(), 1, "modulo collapses to one stack");
        assert!(
            hashed_stacks.len() >= 6,
            "hash spreads strided stream, got {} stacks",
            hashed_stacks.len()
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        for addr in [0u64, 0x1234, 0xDEAD_BEEF, u64::MAX / 2] {
            assert_eq!(il.place(addr), il.place(addr));
        }
    }

    #[test]
    fn flat_channel_id_is_consistent() {
        let il = Interleaver::new(InterleaveConfig::mi300()).unwrap();
        let p = il.place(0x8_0000);
        assert_eq!(p.channel.0, p.stack * 16 + p.channel_in_stack);
        assert_eq!(il.channel_of(0x8_0000), p.channel);
    }
}
