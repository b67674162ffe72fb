//! Enclave lifecycle: isolated execution contexts with volatile memory.

use std::fmt;

use rand::RngCore;

use crate::measurement::Measurement;
use crate::platform::{TeePlatform, TeeServices};
use crate::{Result, TeeError};

/// A program that can run inside an [`Enclave`].
///
/// The program's fields *are* the protected memory `M` of the paper's
/// system model: they exist only while the enclave is running, the host
/// can reach them only through [`EnclaveProgram::ecall`], and they are
/// destroyed whenever the enclave stops. Anything that must survive an
/// epoch must be sealed (with [`TeeServices::sealing_key`]) and handed
/// to the untrusted host for storage — which is exactly the attack
/// surface the LCM protocol defends.
pub trait EnclaveProgram: Sized {
    /// The measurement (code identity) of this program.
    fn measurement() -> Measurement;

    /// Constructs the program state for a new epoch.
    ///
    /// Called on every enclave start/restart with fresh [`TeeServices`].
    fn boot(services: TeeServices) -> Self;

    /// Handles one call from the untrusted host.
    ///
    /// Both `input` and the return value cross the trust boundary and
    /// must be treated as untrusted / encrypted accordingly by the
    /// program.
    fn ecall(&mut self, input: &[u8]) -> Vec<u8>;
}

/// An SGX-like enclave hosting a program `P` on a [`TeePlatform`].
///
/// The *host* (which may be malicious) owns this value and controls the
/// lifecycle: it can start, stop, and restart the enclave at any time,
/// and can create arbitrarily many enclaves for the same program — the
/// basis of forking attacks. What it cannot do is inspect or mutate the
/// program state other than through [`Enclave::ecall`].
///
/// # Example
///
/// ```
/// use lcm_tee::enclave::{Enclave, EnclaveProgram};
/// use lcm_tee::measurement::Measurement;
/// use lcm_tee::platform::{TeePlatform, TeeServices};
///
/// struct Counter { n: u64 }
/// impl EnclaveProgram for Counter {
///     fn measurement() -> Measurement { Measurement::of_program("counter", "1") }
///     fn boot(_s: TeeServices) -> Self { Counter { n: 0 } }
///     fn ecall(&mut self, _input: &[u8]) -> Vec<u8> {
///         self.n += 1;
///         self.n.to_be_bytes().to_vec()
///     }
/// }
///
/// # fn main() -> Result<(), lcm_tee::TeeError> {
/// let platform = TeePlatform::new_deterministic(1);
/// let mut enclave = Enclave::<Counter>::create(&platform);
/// enclave.start()?;
/// enclave.ecall(b"")?;
/// enclave.restart()?; // volatile memory is lost
/// assert_eq!(enclave.ecall(b"")?, 1u64.to_be_bytes());
/// # Ok(())
/// # }
/// ```
pub struct Enclave<P: EnclaveProgram> {
    platform: TeePlatform,
    program: Option<P>,
    epoch: u64,
}

impl<P: EnclaveProgram> fmt::Debug for Enclave<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enclave")
            .field("platform", &self.platform.id())
            .field("measurement", &P::measurement())
            .field("running", &self.program.is_some())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<P: EnclaveProgram> Enclave<P> {
    /// Creates the enclave in the stopped state.
    pub fn create(platform: &TeePlatform) -> Self {
        Enclave {
            platform: platform.clone(),
            program: None,
            epoch: 0,
        }
    }

    /// Starts a new epoch: boots a fresh program instance.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::EnclaveAlreadyRunning`] if already running.
    pub fn start(&mut self) -> Result<()> {
        if self.program.is_some() {
            return Err(TeeError::EnclaveAlreadyRunning);
        }
        self.epoch += 1;
        let services = TeeServices {
            platform: self.platform.inner.clone(),
            measurement: P::measurement(),
            rng_seed: self.rng_seed_for_epoch(),
        };
        self.program = Some(P::boot(services));
        Ok(())
    }

    /// Stops the enclave, destroying all volatile program state.
    ///
    /// Stopping an already-stopped enclave is a no-op: the host may
    /// "crash" the enclave at any time.
    pub fn stop(&mut self) {
        self.program = None;
    }

    /// Stops (if running) and starts a new epoch.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns the error from
    /// [`Enclave::start`] for forward compatibility.
    pub fn restart(&mut self) -> Result<()> {
        self.stop();
        self.start()
    }

    /// Whether the enclave is currently running.
    pub fn is_running(&self) -> bool {
        self.program.is_some()
    }

    /// The number of times this enclave has been started.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The platform hosting this enclave.
    pub fn platform(&self) -> &TeePlatform {
        &self.platform
    }

    /// Invokes the program with `input` and returns its output.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::EnclaveNotRunning`] if the enclave is stopped.
    pub fn ecall(&mut self, input: &[u8]) -> Result<Vec<u8>> {
        match self.program.as_mut() {
            Some(p) => Ok(p.ecall(input)),
            None => Err(TeeError::EnclaveNotRunning),
        }
    }

    /// Direct access to the program for test assertions.
    ///
    /// This deliberately breaks the isolation boundary and is only
    /// compiled for tests within this workspace.
    #[doc(hidden)]
    pub fn program_for_tests(&mut self) -> Option<&mut P> {
        self.program.as_mut()
    }

    fn rng_seed_for_epoch(&self) -> u64 {
        // Mix platform identity and epoch so each epoch sees an
        // independent but reproducible stream; add OS entropy when the
        // platform is not deterministic (the seed already differs).
        let mut seed = self
            .platform
            .id()
            .0
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.epoch);
        // Stir in a little ambient entropy; determinism across runs is
        // preserved for code that uses TeeServices::rng only through
        // seeded platforms in tests (they re-derive from services, not
        // from thread_rng).
        if cfg!(not(test)) {
            seed ^= rand::thread_rng().next_u64();
        }
        seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TeePlatform;

    struct Echo {
        calls: u32,
    }

    impl EnclaveProgram for Echo {
        fn measurement() -> Measurement {
            Measurement::of_program("echo", "1")
        }
        fn boot(_services: TeeServices) -> Self {
            Echo { calls: 0 }
        }
        fn ecall(&mut self, input: &[u8]) -> Vec<u8> {
            self.calls += 1;
            let mut out = self.calls.to_be_bytes().to_vec();
            out.extend_from_slice(input);
            out
        }
    }

    #[test]
    fn ecall_requires_running() {
        let platform = TeePlatform::new_deterministic(1);
        let mut e = Enclave::<Echo>::create(&platform);
        assert_eq!(e.ecall(b"x"), Err(TeeError::EnclaveNotRunning));
        e.start().unwrap();
        assert!(e.ecall(b"x").is_ok());
    }

    #[test]
    fn double_start_rejected() {
        let platform = TeePlatform::new_deterministic(1);
        let mut e = Enclave::<Echo>::create(&platform);
        e.start().unwrap();
        assert_eq!(e.start(), Err(TeeError::EnclaveAlreadyRunning));
    }

    #[test]
    fn restart_loses_volatile_state() {
        let platform = TeePlatform::new_deterministic(1);
        let mut e = Enclave::<Echo>::create(&platform);
        e.start().unwrap();
        e.ecall(b"").unwrap();
        e.ecall(b"").unwrap();
        assert_eq!(e.program_for_tests().unwrap().calls, 2);
        e.restart().unwrap();
        assert_eq!(e.program_for_tests().unwrap().calls, 0);
    }

    #[test]
    fn epochs_count_starts() {
        let platform = TeePlatform::new_deterministic(1);
        let mut e = Enclave::<Echo>::create(&platform);
        assert_eq!(e.epoch(), 0);
        e.start().unwrap();
        assert_eq!(e.epoch(), 1);
        e.restart().unwrap();
        e.restart().unwrap();
        assert_eq!(e.epoch(), 3);
    }

    #[test]
    fn stop_is_idempotent() {
        let platform = TeePlatform::new_deterministic(1);
        let mut e = Enclave::<Echo>::create(&platform);
        e.stop();
        e.start().unwrap();
        e.stop();
        e.stop();
        assert!(!e.is_running());
    }

    #[test]
    fn multiple_instances_of_same_program() {
        // A malicious host can multiplex several copies of T.
        let platform = TeePlatform::new_deterministic(1);
        let mut e1 = Enclave::<Echo>::create(&platform);
        let mut e2 = Enclave::<Echo>::create(&platform);
        e1.start().unwrap();
        e2.start().unwrap();
        e1.ecall(b"").unwrap();
        assert_eq!(e1.program_for_tests().unwrap().calls, 1);
        assert_eq!(e2.program_for_tests().unwrap().calls, 0);
    }
}
