//! Shared-resource timing models: serialised bandwidth pipes and
//! fixed-capacity servers.
//!
//! These are the workhorses of the bandwidth-contention modelling in
//! `ehp-mem` and `ehp-fabric`: a request arriving at time *t* for *n*
//! bytes on a pipe of rate *r* completes at `max(t, pipe_free) + n/r`, and
//! the pipe's free time advances accordingly.

use crate::time::{Cycle, SimTime};
use crate::units::{Bandwidth, Bytes, Energy};

/// A serialised bandwidth resource (one link direction, one DRAM channel
/// data bus, one PCIe lane group).
///
/// Requests are served first-come-first-served at the pipe's rate; the
/// model captures queueing delay under contention without simulating
/// individual flits.
///
/// # Example
///
/// ```
/// use ehp_sim_core::resource::BandwidthPipe;
/// use ehp_sim_core::time::SimTime;
/// use ehp_sim_core::units::{Bandwidth, Bytes};
///
/// let mut pipe = BandwidthPipe::new(Bandwidth::from_gb_s(1000.0));
/// let done1 = pipe.request(SimTime::ZERO, Bytes::from_kib(1));
/// let done2 = pipe.request(SimTime::ZERO, Bytes::from_kib(1));
/// assert!(done2 > done1); // second transfer queues behind the first
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthPipe {
    rate: Bandwidth,
    free_at: SimTime,
    bytes_moved: Bytes,
    energy_per_byte: Energy,
    energy_used: Energy,
    /// Memoized `rate.transfer_time(last_size)`: request streams almost
    /// always repeat one size (line-granular replay), and the memo
    /// turns a per-request f64 division into a compare. Purely a cache
    /// of a pure function — completion times are bit-identical.
    last_size: Bytes,
    last_time: SimTime,
}

impl BandwidthPipe {
    /// Creates a pipe with the given peak rate and zero transport energy.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero — a zero-rate pipe can never serve a
    /// request.
    #[must_use]
    pub fn new(rate: Bandwidth) -> BandwidthPipe {
        assert!(
            rate.as_bytes_per_sec() > 0.0,
            "bandwidth pipe must have positive rate"
        );
        BandwidthPipe {
            rate,
            free_at: SimTime::ZERO,
            bytes_moved: Bytes::ZERO,
            energy_per_byte: Energy::ZERO,
            energy_used: Energy::ZERO,
            last_size: Bytes::ZERO,
            last_time: SimTime::ZERO,
        }
    }

    /// Creates a pipe that also accounts transport energy per byte.
    #[must_use]
    pub fn with_energy(rate: Bandwidth, energy_per_byte: Energy) -> BandwidthPipe {
        let mut p = BandwidthPipe::new(rate);
        p.energy_per_byte = energy_per_byte;
        p
    }

    /// Submits a transfer of `size` arriving at `at`; returns its
    /// completion time and advances the pipe.
    pub fn request(&mut self, at: SimTime, size: Bytes) -> SimTime {
        let start = if at > self.free_at { at } else { self.free_at };
        // lint:hot-path
        if size != self.last_size {
            self.last_size = size;
            self.last_time = self.rate.transfer_time(size);
        }
        // lint:hot-path-end
        let done = start + self.last_time;
        self.free_at = done;
        self.bytes_moved += size;
        self.energy_used += self.energy_per_byte.scale(size.as_f64());
        done
    }

    /// Total bytes moved so far.
    #[must_use]
    pub fn bytes_moved(&self) -> Bytes {
        self.bytes_moved
    }

    /// Total transport energy consumed so far.
    #[must_use]
    pub fn energy_used(&self) -> Energy {
        self.energy_used
    }
}

/// A server with `k` identical slots, each serving one job at a time
/// (models a bank group, a set of DRAM banks, or an ACE's dispatch slots).
///
/// Jobs go to the earliest-free slot; this is an M/G/k-style availability
/// model without preemption.
#[derive(Debug, Clone)]
pub struct SlotServer {
    slots: Vec<Cycle>,
}

impl SlotServer {
    /// Creates a server with `k` slots, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn new(k: usize) -> SlotServer {
        assert!(k > 0, "slot server needs at least one slot");
        SlotServer {
            slots: vec![Cycle::ZERO; k],
        }
    }

    /// Submits a job arriving at `at` with the given `service` time;
    /// returns `(start, completion)`.
    pub fn submit(&mut self, at: Cycle, service: Cycle) -> (Cycle, Cycle) {
        let (idx, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &free)| free)
            .expect("non-empty slots");
        let start = self.slots[idx].max(at);
        let done = start + service;
        self.slots[idx] = done;
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_serialises_back_to_back_requests() {
        let mut p = BandwidthPipe::new(Bandwidth::from_gb_s(1.0));
        // 1 GB/s => 1000 bytes take 1 us.
        let d1 = p.request(SimTime::ZERO, Bytes(1_000));
        let d2 = p.request(SimTime::ZERO, Bytes(1_000));
        assert_eq!(d1.as_micros_f64().round() as u64, 1);
        assert_eq!(d2.as_micros_f64().round() as u64, 2);
        assert_eq!(p.bytes_moved(), Bytes(2_000));
    }

    #[test]
    fn pipe_idle_gap_is_not_charged() {
        let mut p = BandwidthPipe::new(Bandwidth::from_gb_s(1.0));
        let _ = p.request(SimTime::ZERO, Bytes(1_000));
        // Arrives long after the pipe drained: starts immediately.
        let d = p.request(SimTime::from_micros(100), Bytes(1_000));
        assert_eq!(d.as_micros_f64().round() as u64, 101);
    }

    #[test]
    fn pipe_energy_accounting() {
        let e = Energy::from_picojoules(1.0);
        let mut p = BandwidthPipe::with_energy(Bandwidth::from_gb_s(10.0), e);
        p.request(SimTime::ZERO, Bytes(1_000_000));
        assert!((p.energy_used().as_joules() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn pipe_achieved_bandwidth() {
        let mut p = BandwidthPipe::new(Bandwidth::from_gb_s(2.0));
        let done = p.request(SimTime::ZERO, Bytes(2_000_000));
        let achieved = p.bytes_moved().as_f64() / done.as_secs();
        assert!((achieved / 1e9 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn slot_server_parallel_then_queued() {
        let mut s = SlotServer::new(2);
        let (_, d1) = s.submit(Cycle(0), Cycle(10));
        let (_, d2) = s.submit(Cycle(0), Cycle(10));
        let (start3, d3) = s.submit(Cycle(0), Cycle(10));
        assert_eq!(d1, Cycle(10));
        assert_eq!(d2, Cycle(10));
        assert_eq!(start3, Cycle(10)); // queued behind the first pair
        assert_eq!(d3, Cycle(20));
    }

    #[test]
    fn slot_server_free_times() {
        let mut s = SlotServer::new(2);
        s.submit(Cycle(0), Cycle(5));
        s.submit(Cycle(0), Cycle(9));
        // Each later job goes to whichever slot frees first.
        assert_eq!(s.submit(Cycle(0), Cycle(1)), (Cycle(5), Cycle(6)));
        assert_eq!(s.submit(Cycle(0), Cycle(1)), (Cycle(6), Cycle(7)));
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_pipe_panics() {
        let _ = BandwidthPipe::new(Bandwidth::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_server_panics() {
        let _ = SlotServer::new(0);
    }
}
