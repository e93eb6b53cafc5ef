//! The header a kill(1) image's control region carries: what the driver
//! writes when it formats the image, and what its worker processes and
//! the `pstack-dump` inspector read back. It is the root record at
//! [`ROOT_OFF`]: `[magic, workload tag, stripe files, region length]`.

use pstack_core::PError;
use pstack_nvram::PMem;

use crate::campaign::Object;
use crate::cycle::{self, ROOT_OFF};

/// Magic word opening the header.
const MAGIC: u64 = 0x4B49_4C4C_524F_4F54; // "KILLROOT"

/// A kill(1) image's header: the row's object, and the stripe files that
/// hold it beside the control file (`<image>.0`, `<image>.1`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillHeader {
    /// What the image's descriptor tasks run against.
    pub object: Object,
    /// Stripe files beside the control file.
    pub stripe_files: usize,
    /// Length of each stripe file, in bytes.
    pub region_len: u64,
}

impl KillHeader {
    /// Persists the header into `control`.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn write(&self, control: &PMem) -> Result<(), PError> {
        let words = [
            MAGIC,
            self.object as u64,
            self.stripe_files as u64,
            self.region_len,
        ];
        cycle::write_root(control, ROOT_OFF, &words)
    }

    /// Reads the header of `control`; `None` if it carries none.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for an unknown workload tag, NVRAM
    /// errors.
    pub fn read(control: &PMem) -> Result<Option<KillHeader>, PError> {
        let word = |i| cycle::read_root(control, ROOT_OFF, i);
        if word(0)? != MAGIC {
            return Ok(None);
        }
        let object = match word(1)? {
            0 => Object::Cas,
            1 => Object::Queue,
            tag => return Err(PError::InvalidConfig(format!("unknown workload tag {tag}"))),
        };
        Ok(Some(KillHeader {
            object,
            stripe_files: word(2)? as usize,
            region_len: word(3)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use pstack_nvram::PMemBuilder;

    use super::*;

    #[test]
    fn header_round_trips_and_rejects_unknown_tags() {
        let control = PMemBuilder::new().len(4096).build_in_memory();
        assert_eq!(KillHeader::read(&control).unwrap(), None);
        let header = KillHeader {
            object: Object::Queue,
            stripe_files: 3,
            region_len: 1 << 20,
        };
        header.write(&control).unwrap();
        assert_eq!(KillHeader::read(&control).unwrap(), Some(header));
        cycle::write_root(&control, ROOT_OFF + 8, &[7]).unwrap();
        let err = KillHeader::read(&control).unwrap_err();
        assert!(matches!(err, PError::InvalidConfig(_)), "{err:?}");
    }
}
