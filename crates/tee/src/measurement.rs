//! Enclave program measurements (MRENCLAVE analogue).

use std::fmt;

use lcm_crypto::sha256::{self, Digest};

/// A cryptographic identity of enclave program code.
///
/// In SGX this is the MRENCLAVE value: a hash over the enclave's initial
/// code and data. In this simulator, programs declare their measurement
/// as the hash of a stable name and version string via
/// [`Measurement::of_program`]. Two enclaves report the same measurement
/// exactly when they run the same program, which is all the LCM protocol
/// needs: sealing keys and attestation verdicts are keyed by this value.
///
/// # Example
///
/// ```
/// use lcm_tee::measurement::Measurement;
///
/// let m1 = Measurement::of_program("lcm", "1");
/// let m2 = Measurement::of_program("lcm", "1");
/// let other = Measurement::of_program("lcm", "2");
/// assert_eq!(m1, m2);
/// assert_ne!(m1, other);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(Digest);

impl Measurement {
    /// Computes the measurement of a program identified by `name` and
    /// `version`.
    pub fn of_program(name: &str, version: &str) -> Self {
        Measurement(sha256::digest_parts(&[
            b"lcm-tee.measurement",
            &[0x00],
            name.as_bytes(),
            &[0x00],
            version.as_bytes(),
        ]))
    }

    /// Wraps a raw digest as a measurement (used when deserializing
    /// reports/quotes; carries no authenticity by itself).
    pub fn from_digest(d: Digest) -> Self {
        Measurement(d)
    }

    /// Returns the raw digest backing this measurement.
    pub fn digest(&self) -> &Digest {
        &self.0
    }

    /// Returns the measurement as bytes (for key-derivation labels).
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

impl fmt::Debug for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Measurement({:.16}…)", self.0.to_hex())
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.16}", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            Measurement::of_program("kvs", "1.0"),
            Measurement::of_program("kvs", "1.0")
        );
    }

    #[test]
    fn distinct_programs_distinct_measurements() {
        assert_ne!(
            Measurement::of_program("kvs", "1.0"),
            Measurement::of_program("kvs", "1.1")
        );
        assert_ne!(
            Measurement::of_program("kvs", "1.0"),
            Measurement::of_program("other", "1.0")
        );
    }

    #[test]
    fn name_version_framing_unambiguous() {
        // ("ab","c") must differ from ("a","bc") despite equal concatenation.
        assert_ne!(
            Measurement::of_program("ab", "c"),
            Measurement::of_program("a", "bc")
        );
    }

    #[test]
    fn display_is_short_hex() {
        let m = Measurement::of_program("kvs", "1.0");
        assert_eq!(format!("{m}").len(), 16);
    }
}
