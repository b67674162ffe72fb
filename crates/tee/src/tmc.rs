//! Trusted monotonic counters (TMC).
//!
//! The baseline LCM is compared against in §6.5 of the paper: an
//! SGX-secured service that increments a hardware monotonic counter on
//! every request to detect rollbacks immediately. The defining property
//! of real TMCs (TPM or Intel ME backed) is their cost — the paper
//! measures **60 ms per increment** on Windows SGX and cites 35–95 ms
//! across platforms — plus non-volatility and wear-out limits.
//!
//! [`Tmc`] emulates a counter bound to one platform. Increments return
//! the configured latency as data, for the caller to charge (the
//! discrete-event simulator does so in virtual time); nothing here
//! sleeps. Like the hardware, the counter value
//! survives enclave restarts (it lives on the platform, not in enclave
//! memory) but is *not* transferable between platforms — the
//! location-transparency drawback §3.1 highlights.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{Result, TeeError};

/// Default per-increment latency, matching the paper's measurement of
/// the Intel ME counter on Windows (§6.5).
pub const DEFAULT_INCREMENT_LATENCY: Duration = Duration::from_millis(60);

/// Default wear-out budget. TPM NV memory is typically rated for a few
/// hundred thousand write cycles; the paper cites wear-out as a real
/// limitation of frequently-used TMCs (§7).
pub const DEFAULT_WEAR_OUT_LIMIT: u64 = 1_000_000;

/// Configuration for an emulated trusted monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmcConfig {
    /// Simulated latency of one increment.
    pub increment_latency: Duration,
    /// Simulated latency of one read (fast relative to increments).
    pub read_latency: Duration,
    /// Number of increments before the counter wears out; `u64::MAX`
    /// disables wear-out.
    pub wear_out_limit: u64,
}

impl Default for TmcConfig {
    fn default() -> Self {
        TmcConfig {
            increment_latency: DEFAULT_INCREMENT_LATENCY,
            read_latency: Duration::from_micros(100),
            wear_out_limit: DEFAULT_WEAR_OUT_LIMIT,
        }
    }
}

struct TmcState {
    value: u64,
    increments: u64,
}

/// An emulated trusted monotonic counter.
///
/// Clone handles share the same underlying counter (the counter lives in
/// platform hardware; every enclave epoch sees the same value).
///
/// # Example
///
/// ```
/// use lcm_tee::tmc::{Tmc, TmcConfig};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), lcm_tee::TeeError> {
/// let tmc = Tmc::new(TmcConfig {
///     increment_latency: Duration::from_millis(60),
///     ..TmcConfig::default()
/// });
/// let (value, cost) = tmc.increment()?;
/// assert_eq!(value, 1);
/// assert_eq!(cost, Duration::from_millis(60));
/// assert_eq!(tmc.read().0, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Tmc {
    config: TmcConfig,
    state: Arc<Mutex<TmcState>>,
}

impl fmt::Debug for Tmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tmc")
            .field("value", &crate::lock(&self.state).value)
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Tmc {
    fn default() -> Self {
        Self::new(TmcConfig::default())
    }
}

impl Tmc {
    /// Creates a counter at zero with the given cost configuration.
    pub fn new(config: TmcConfig) -> Self {
        Tmc {
            config,
            state: Arc::new(Mutex::new(TmcState {
                value: 0,
                increments: 0,
            })),
        }
    }

    /// Increments the counter, returning the new value and the simulated
    /// latency the increment costs.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::CounterOverflow`] once the wear-out limit is
    /// reached (the hardware refuses further writes) or the value would
    /// wrap.
    pub fn increment(&self) -> Result<(u64, Duration)> {
        let mut state = crate::lock(&self.state);
        if state.increments >= self.config.wear_out_limit || state.value == u64::MAX {
            return Err(TeeError::CounterOverflow);
        }
        state.value += 1;
        state.increments += 1;
        Ok((state.value, self.config.increment_latency))
    }

    /// Reads the current value and the simulated read latency.
    pub fn read(&self) -> (u64, Duration) {
        (crate::lock(&self.state).value, self.config.read_latency)
    }

    /// Number of increments performed (wear tracking).
    pub fn wear(&self) -> u64 {
        crate::lock(&self.state).increments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_are_monotonic() {
        let tmc = Tmc::default();
        let mut last = 0;
        for _ in 0..10 {
            let (v, _) = tmc.increment().unwrap();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn read_does_not_advance() {
        let tmc = Tmc::default();
        tmc.increment().unwrap();
        assert_eq!(tmc.read().0, 1);
        assert_eq!(tmc.read().0, 1);
    }

    #[test]
    fn clones_share_state() {
        let tmc = Tmc::default();
        let other = tmc.clone();
        tmc.increment().unwrap();
        assert_eq!(other.read().0, 1);
    }

    #[test]
    fn increment_reports_configured_latency() {
        let config = TmcConfig {
            increment_latency: Duration::from_millis(95),
            ..TmcConfig::default()
        };
        let tmc = Tmc::new(config);
        assert_eq!(tmc.increment().unwrap().1, Duration::from_millis(95));
    }

    #[test]
    fn wear_out_enforced() {
        let config = TmcConfig {
            wear_out_limit: 3,
            ..TmcConfig::default()
        };
        let tmc = Tmc::new(config);
        for _ in 0..3 {
            tmc.increment().unwrap();
        }
        assert_eq!(tmc.increment(), Err(TeeError::CounterOverflow));
        assert_eq!(tmc.wear(), 3);
    }
}
