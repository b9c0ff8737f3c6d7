//! The two-step address decode `interleave::Interleaver::decode` fused:
//! a stack and channel placement with a runtime modulus
//! (`Interleaver::place`), then the channel's bank and bank-local
//! address (`bank_slot`), each reduction through `fast_mod`, which
//! falls back to `%` for counts that are not powers of two.

use crate::hbm::ROW_BYTES;
use crate::interleave::InterleaveConfig;

/// Reduces `x` modulo `n`, with a mask when `n` is a power of two.
fn fast_mod(x: u64, n: u64) -> u64 {
    if n.is_power_of_two() {
        x & (n - 1)
    } else {
        x % n
    }
}

/// The stack of granule index `granule_idx`: XOR-folded with three
/// higher windows of itself when `hashed`, then reduced modulo `stacks`.
fn hash_stack(cfg: &InterleaveConfig, granule_idx: u64) -> u64 {
    let stacks = u64::from(cfg.stacks);
    if !cfg.hashed {
        return fast_mod(granule_idx, stacks);
    }
    let g = granule_idx;
    fast_mod(g ^ (g >> 7) ^ (g >> 13) ^ (g >> 21), stacks)
}

/// The flat channel (`stack x channels_per_stack + channel_in_stack`)
/// of `addr`.
fn place(cfg: &InterleaveConfig, addr: u64) -> u64 {
    let stack = hash_stack(cfg, addr / cfg.stack_granule);
    let within_stack = (addr % cfg.stack_granule) / cfg.channel_granule;
    let channel_in_stack = fast_mod(within_stack, u64::from(cfg.channels_per_stack));
    stack * u64::from(cfg.channels_per_stack) + channel_in_stack
}

/// The bank-decorrelation fold of block index `block`, modulo `banks`.
fn bank_mix(block: u64, banks: u64) -> u64 {
    fast_mod(block ^ (block >> 5) ^ (block >> 9) ^ (block >> 13), banks)
}

/// Maps a channel-local address to `(bank, bank-local address)`: row
/// `r` of the channel becomes row `r / banks` of bank
/// `(r % banks + bank_mix(r / banks)) % banks`, byte offset kept.
pub fn bank_slot(addr: u64, banks: u64) -> (usize, u64) {
    let row = addr / ROW_BYTES;
    let block = row / banks;
    let lane = row - block * banks;
    let bank = fast_mod(lane + bank_mix(block, banks), banks) as usize;
    let local = block * ROW_BYTES + (addr % ROW_BYTES);
    (bank, local)
}

/// The flat bank (`channel x banks + bank`) and bank-local address of
/// `addr`: [`place`], then [`bank_slot`].
pub fn decode(cfg: &InterleaveConfig, banks: u64, addr: u64) -> (usize, u64) {
    let channel = place(cfg, addr) as usize;
    let (bank, local) = bank_slot(addr, banks);
    (channel * banks as usize + bank, local)
}
