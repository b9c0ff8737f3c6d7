//! HSA completion signals.
//!
//! A completion signal is a 64-bit value in shared memory; the dispatcher
//! initialises it and the hardware decrements it when the kernel's last
//! workgroup retires. Waiters poll or block until it reaches zero. On
//! MI300A the CPU can spin on such a flag directly thanks to the
//! cache-coherent unified memory (Figure 15).

/// A completion signal.
///
/// # Example
///
/// ```
/// use ehp_dispatch::signal::CompletionSignal;
///
/// let mut s = CompletionSignal::new(2);
/// s.decrement();
/// assert!(!s.is_complete());
/// s.decrement();
/// assert!(s.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct CompletionSignal {
    value: i64,
}

impl CompletionSignal {
    /// Creates a signal with the given initial value (e.g. the number of
    /// cooperating XCDs or outstanding sub-completions).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative.
    #[must_use]
    pub fn new(initial: i64) -> CompletionSignal {
        assert!(initial >= 0, "signal initial value must be non-negative");
        CompletionSignal { value: initial }
    }

    /// Decrements the value by one.
    ///
    /// # Panics
    ///
    /// Panics if the signal is already at zero (double completion is a
    /// protocol bug worth failing loudly on).
    pub fn decrement(&mut self) {
        assert!(self.value > 0, "signal decremented below zero");
        self.value -= 1;
    }

    /// `true` once the value reaches zero.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.value == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initial_is_immediately_complete() {
        let s = CompletionSignal::new(0);
        assert!(s.is_complete());
    }

    #[test]
    fn counts_down_and_records_time() {
        let mut s = CompletionSignal::new(3);
        s.decrement();
        s.decrement();
        assert!(!s.is_complete());
        s.decrement();
        assert!(s.is_complete());
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn double_completion_panics() {
        let mut s = CompletionSignal::new(1);
        s.decrement();
        s.decrement();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_panics() {
        let _ = CompletionSignal::new(-1);
    }
}
