//! Physical address decode: HBM stack, channel and bank.
//!
//! The paper (Section IV.D): *"Every 4 KB of sequential physical addresses
//! map to the same HBM stack before moving on to another HBM stack chosen
//! based on a physical address hashing scheme."* Within a stack, finer
//! interleaving spreads lines across the stack's channels. This is the
//! NPS1 mode of Figure 17: one NUMA domain interleaving over every
//! stack of the socket. Within a channel, the DRAM row picks one of the
//! channel's banks, rotated by a fold of the row's higher bits (see
//! [`crate::channel::bank_mix`]).
//!
//! [`Interleaver::decode`] does the whole walk in one pass: an address
//! goes to its flat bank (`channel x banks_per_channel + bank`) and its
//! bank-local address. Every stack, channel and bank count and both
//! granules are powers of two (`InterleaveConfig::validate` rejects
//! anything else), so each step is a shift and a mask fixed at
//! construction, with no division and no branch per address.

use crate::channel::bank_mix;
use crate::hbm::ROW_BYTES;

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
    /// Returns a description of the first violated constraint: counts and
    /// granules must be powers of two, the stack granule must be a
    /// multiple of the channel granule.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.stacks.is_power_of_two() || !self.channels_per_stack.is_power_of_two() {
            return Err("stack/channel counts must be powers of two".into());
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

/// Decodes physical addresses to flat banks and bank-local addresses.
///
/// Construction turns the (validated, power-of-two) geometry into the
/// shifts and masks [`Interleaver::decode`] applies, so the replay
/// bucketing hot path performs no division.
///
/// # Example
///
/// ```
/// use ehp_mem::interleave::{InterleaveConfig, Interleaver};
///
/// // 8 stacks x 16 channels x 16 banks: flat bank / 16 is the channel,
/// // channel / 16 the stack.
/// let il = Interleaver::new(InterleaveConfig::mi300(), 16).unwrap();
/// let (a, _) = il.decode(0x0000);
/// let (b, _) = il.decode(0x0100); // next 256 B granule, same 4 KB stack granule
/// assert_eq!(a / 16 / 16, b / 16 / 16);
/// assert_ne!(a / 16, b / 16);
/// ```
#[derive(Debug, Clone)]
pub struct Interleaver {
    /// `log2(stack_granule)`.
    granule_shift: u32,
    /// All ones when the stack selector folds the granule index's upper
    /// windows in, zero for plain modulo.
    hash_mask: u64,
    /// `stacks - 1`.
    stack_mask: u64,
    /// `log2(channel_granule)`.
    chan_shift: u32,
    /// Selects the channel within a stack from the channel granule
    /// index: `channels_per_stack - 1`, narrowed to the channel granules
    /// one stack granule holds.
    chan_mask: u64,
    /// `log2(channels_per_stack)`.
    chan_bits: u32,
    /// Banks per channel.
    banks: u64,
    /// `log2(banks)`.
    bank_bits: u32,
}

impl Interleaver {
    /// Creates the decode for `cfg` over channels of `banks` banks,
    /// after validating both.
    ///
    /// # Errors
    ///
    /// Propagates `InterleaveConfig::validate` failures, and rejects a
    /// bank count that is not a power of two.
    pub fn new(cfg: InterleaveConfig, banks: u32) -> Result<Interleaver, String> {
        cfg.validate()?;
        if !banks.is_power_of_two() {
            return Err("bank count must be a power of two".into());
        }
        let granules_per_stack_granule = cfg.stack_granule >> cfg.channel_granule.trailing_zeros();
        Ok(Interleaver {
            granule_shift: cfg.stack_granule.trailing_zeros(),
            hash_mask: if cfg.hashed { u64::MAX } else { 0 },
            stack_mask: u64::from(cfg.stacks) - 1,
            chan_shift: cfg.channel_granule.trailing_zeros(),
            chan_mask: (u64::from(cfg.channels_per_stack) - 1) & (granules_per_stack_granule - 1),
            chan_bits: cfg.channels_per_stack.trailing_zeros(),
            banks: u64::from(banks),
            bank_bits: banks.trailing_zeros(),
        })
    }

    /// Decodes `addr` into its flat bank (`channel x banks + bank`, the
    /// channel being `stack x channels_per_stack + channel_in_stack`)
    /// and its bank-local address.
    ///
    /// - Stack: the stack granule index, XOR-folded with three higher
    ///   windows of itself when hashed. This mimics the hardware's
    ///   address hash: consecutive granules still rotate through all
    ///   stacks (the low bits participate), while large power-of-two
    ///   strides, pathological for plain modulo, are decorrelated by the
    ///   folded upper bits.
    /// - Channel within the stack: the channel granule index, rotating
    ///   every channel granule inside the stack granule.
    /// - Bank: the DRAM row (`addr / ROW_BYTES`) modulo the bank count,
    ///   rotated by [`bank_mix`] of the row's block index
    ///   (`row / banks`). The channel and stack selectors read address
    ///   bits 8 to 11 plus the granule hash; the fold draws on a
    ///   different window, so every bank of every channel sees traffic
    ///   from the global address space.
    /// - Bank-local address: the bank's rows renumbered densely (row
    ///   `r` becomes row `r / banks`), byte offset kept. Given
    ///   `(bank, local)`, `block = local / ROW_BYTES`, `lane = (bank +
    ///   banks - bank_mix(block, banks)) % banks` and
    ///   `row = block * banks + lane` invert it, so each bank sees a
    ///   dense, self-contained address space: channel-sequential streams
    ///   stay bank-locally sequential (the prefetcher still trains) and
    ///   every slice victim or prefetch target a bank generates is
    ///   bank-local by construction.
    #[inline]
    #[must_use]
    pub fn decode(&self, addr: u64) -> (usize, u64) {
        // lint:hot-path
        let g = addr >> self.granule_shift;
        let fold = (g >> 7) ^ (g >> 13) ^ (g >> 21);
        let stack = (g ^ (fold & self.hash_mask)) & self.stack_mask;
        let channel = (stack << self.chan_bits) | ((addr >> self.chan_shift) & self.chan_mask);

        let row = addr / ROW_BYTES;
        let block = row >> self.bank_bits;
        let bank = (row + bank_mix(block, self.banks)) & (self.banks - 1);
        let local = block * ROW_BYTES + addr % ROW_BYTES;
        // lint:hot-path-end
        (((channel << self.bank_bits) | bank) as usize, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::decode;
    use ehp_sim_core::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Banks per channel in every modelled HBM3 channel.
    const BANKS: u32 = 16;

    fn mi300() -> Interleaver {
        Interleaver::new(InterleaveConfig::mi300(), BANKS).unwrap()
    }

    /// The (stack, channel within the stack, flat channel) of `addr` on
    /// the MI300 interleave, read off its flat bank.
    fn place(il: &Interleaver, addr: u64) -> (usize, usize, usize) {
        let channel = il.decode(addr).0 / BANKS as usize;
        (channel / 16, channel % 16, channel)
    }

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

        for (stacks, channels) in [(6, 16), (8, 12)] {
            let c = InterleaveConfig {
                stacks,
                channels_per_stack: channels,
                ..InterleaveConfig::mi300()
            };
            assert!(c.validate().is_err(), "{stacks} x {channels}");
        }
        assert!(Interleaver::new(InterleaveConfig::mi300(), 12).is_err());
    }

    #[test]
    fn same_4k_granule_same_stack() {
        let il = mi300();
        let base = 0x1234_5000_u64 & !0xFFF;
        let s0 = place(&il, base).0;
        for off in (0..4096).step_by(64) {
            assert_eq!(place(&il, base + off).0, s0);
        }
    }

    #[test]
    fn channels_rotate_within_granule() {
        let il = mi300();
        let base = 0u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            seen.insert(place(&il, base + i * 256).1);
        }
        assert_eq!(seen.len(), 16, "all 16 channels touched within 4 KB");
    }

    #[test]
    fn sequential_stream_balances_across_stacks() {
        let il = mi300();
        let mut counts: BTreeMap<usize, u64> = BTreeMap::new();
        let granules = 8_000u64;
        for g in 0..granules {
            *counts.entry(place(&il, g * 4096).0).or_default() += 1;
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
        let hashed = mi300();
        let linear = Interleaver::new(
            InterleaveConfig {
                hashed: false,
                ..InterleaveConfig::mi300()
            },
            BANKS,
        )
        .unwrap();

        let stride = 8 * 4096u64;
        let mut hashed_stacks = std::collections::HashSet::new();
        let mut linear_stacks = std::collections::HashSet::new();
        for i in 0..1024u64 {
            hashed_stacks.insert(place(&hashed, i * stride).0);
            linear_stacks.insert(place(&linear, i * stride).0);
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
        let il = mi300();
        for addr in [0u64, 0x1234, 0xDEAD_BEEF, u64::MAX / 2] {
            assert_eq!(il.decode(addr), il.decode(addr));
        }
    }

    #[test]
    fn flat_channel_id_is_consistent() {
        // The flat bank is channel-major: its channel is
        // `stack x 16 + channel_in_stack`, below the socket's 128, and its
        // bank is below the channel's 16.
        let il = mi300();
        let (flat, _) = il.decode(0x8_0000);
        let (stack, in_stack, channel) = place(&il, 0x8_0000);
        assert_eq!(channel, stack * 16 + in_stack);
        assert!(channel < 128);
        assert_eq!(flat, channel * 16 + flat % 16);
    }

    /// This property's seed: the FNV-1a hash of `"fused_decode"`.
    const DECODE_SEED: u64 = 0x25D0_A7A3_2DC6_515B;

    /// The fused decode against the two-step oracle on `n` seeded
    /// addresses, the low ones and some near the top of the space.
    fn check_decode(cfg: InterleaveConfig, banks: u32, n: usize) {
        let il = Interleaver::new(cfg, banks).unwrap();
        let mut rng =
            SplitMix64::new(DECODE_SEED ^ cfg.stack_granule ^ (cfg.channel_granule << 32));
        let addrs = (0..n as u64)
            .map(|i| i * 64)
            .chain((0..2 * n).map(|i| rng.next_u64() >> (8 + 8 * (i % 2))));
        for addr in addrs {
            assert_eq!(
                il.decode(addr),
                decode::decode(&cfg, u64::from(banks), addr),
                "{cfg:?} banks={banks} addr={addr:#x}"
            );
        }
    }

    #[test]
    fn decode_matches_the_two_step_oracle() {
        // The MI300 interleave, hashed and not; every granule pair the
        // `ic_sweep` schema admits (powers of two, the channel granule
        // from 128 B and at most the stack granule, the stack granule
        // from 256 B, both up to 1 GiB), which covers the checked-in
        // specs' 1 KiB and 4 KiB stack granules; and the one-stack
        // interleaves of one and two channels the tests build.
        for hashed in [true, false] {
            let mi300 = InterleaveConfig {
                hashed,
                ..InterleaveConfig::mi300()
            };
            check_decode(mi300, BANKS, 20_000);
            for stack_shift in 8..=30 {
                for chan_shift in 7..=stack_shift {
                    let cfg = InterleaveConfig {
                        stack_granule: 1 << stack_shift,
                        channel_granule: 1 << chan_shift,
                        ..mi300
                    };
                    check_decode(cfg, BANKS, 200);
                }
            }
        }
        for channels_per_stack in [1, 2] {
            let cfg = InterleaveConfig {
                stacks: 1,
                channels_per_stack,
                ..InterleaveConfig::mi300()
            };
            check_decode(cfg, BANKS, 20_000);
        }
    }
}
