//! The header a kill(1) image's control region carries: what the driver
//! writes when it formats the image, and what its worker processes and
//! the `pstack-dump` inspector read back. It is the root record at
//! [`ROOT_OFF`]: `[magic, workload tag, stripe files, region length]`.
//! From it the image's descriptor table is found: in stripe file 0, at
//! the row's own root record ([`KillHeader::descriptor_table`]).

use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use pstack_core::PError;
use pstack_nvram::{PMem, PMemBuilder};
use pstack_recoverable::TaskTable;

use crate::campaign::{self, stripe_file, CampaignConfig, Object, Workload, OBJECT_REGION_LEN};
use crate::cycle::{self, Striped, ROOT_OFF};

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

    /// Formats `cfg`'s §5 row as a kill(1) image at `cfg.image`: the
    /// control file with the runtime and this header, and stripe file 0
    /// with the row's object and its descriptor table, every descriptor
    /// pending — the image a kill(1) driver hands its first child.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for a row with no image or a KV or
    /// served workload; setup errors.
    pub fn format(cfg: &CampaignConfig) -> Result<KillHeader, PError> {
        if cfg.image.is_none() || !matches!(cfg.workload, Workload::Cas { .. } | Workload::Queue(_))
        {
            let msg = "a kill(1) image holds a CAS or queue row on image files";
            return Err(PError::InvalidConfig(msg.into()));
        }
        let (control, stripe) = cfg.regions(1, OBJECT_REGION_LEN)?;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let object = Object::format(cfg, stripe.region(0), &mut rng)?;
        let machine = Striped::format(control, stripe, cfg.workers, cfg.stack_kind)?;
        let header = KillHeader {
            object,
            stripe_files: 1,
            region_len: OBJECT_REGION_LEN as u64,
        };
        header.write(&machine.control)?;
        Ok(header)
    }

    /// The descriptor table of `image`, the control file this header
    /// was read from: in stripe file 0, at the row's root record. Reads
    /// only.
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for a stripe file missing or shorter
    /// than the header's region length; the table's open errors.
    pub fn descriptor_table(&self, image: &Path) -> Result<TaskTable, PError> {
        let region = open_file(PMemBuilder::new(), &stripe_file(image, 0), self.region_len)?;
        campaign::open_table(&region)
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

/// Opens one file of an image, at its own length, which must be at least
/// `min_len` bytes.
pub(crate) fn open_file(builder: PMemBuilder, path: &Path, min_len: u64) -> Result<PMem, PError> {
    let invalid =
        |what: String| PError::InvalidConfig(format!("image file {}: {what}", path.display()));
    let len = std::fs::metadata(path)
        .map_err(|e| invalid(e.to_string()))?
        .len();
    if len < min_len.max(1) {
        return Err(invalid(format!("{len} bytes, expected {min_len}")));
    }
    Ok(builder.len(len as usize).build_file(path)?)
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
