//! Sealed files and the filesystem seam shared by every durable artifact
//! of the driver: the queue journal and snapshot, and the result cache.
//!
//! # Crash consistency
//!
//! Atomic rename protects against *our* crashes, but not against
//! filesystems that reorder data and metadata, partial copies, or stray
//! editors: a file read back may be torn anyway. Every sealed document
//! therefore ends with a checksum trailer line
//! (`#checksum fnv1a <16 hex digits>` over everything before it), and
//! [`unseal`] classifies what it finds with a typed [`ManifestError`]: a
//! document cut at *any* byte offset loses trailer bytes and surfaces as
//! [`ManifestError::Truncated`]; a flipped byte as
//! [`ManifestError::ChecksumMismatch`]. Callers add
//! [`ManifestError::Malformed`] for intact-but-bogus JSON. A damaged file
//! is moved to a `<file name>.corrupt` sibling (evidence preserved) and the
//! [`Quarantine`] notice is reported instead of a panic or a silent loss.
//!
//! Writes go through the [`ManifestIo`] seam so tests can inject short
//! writes, failed renames, refused truncations, and out-of-space errors
//! ([`FaultyIo`]) and prove that no committed result is lost to any of
//! them.

use crate::fnv::fnv1a;
use std::fmt;
use std::path::{Path, PathBuf};

/// Prefix of the checksum trailer line terminating every sealed document
/// (each queue-journal record, the snapshot, each cache entry).
pub(crate) const CHECKSUM_PREFIX: &str = "#checksum fnv1a ";

/// Why a sealed file could not be used. Everything but [`ManifestError::Io`]
/// means the file's *contents* are damaged and quarantining applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestError {
    /// Reading, writing, or renaming failed at the filesystem level.
    Io(String),
    /// The file ends before a complete checksum trailer — a torn or
    /// short write (every truncation lands here).
    Truncated(String),
    /// The trailer is present but disagrees with the body — bit rot or a
    /// concurrent writer.
    ChecksumMismatch(String),
    /// Checksum intact but the JSON body is not a valid manifest.
    Malformed(String),
}

impl ManifestError {
    /// Whether the error describes damaged contents (quarantinable), as
    /// opposed to an environment failure worth retrying or surfacing.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        !matches!(self, ManifestError::Io(_))
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(m) => write!(f, "i/o error: {m}"),
            ManifestError::Truncated(m) => write!(f, "truncated: {m}"),
            ManifestError::ChecksumMismatch(m) => write!(f, "checksum mismatch: {m}"),
            ManifestError::Malformed(m) => write!(f, "malformed: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// A damaged file moved aside at startup (see [`JobQueue::open`]
/// (crate::JobQueue::open)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quarantine {
    /// The typed diagnosis of the damage.
    pub error: ManifestError,
    /// Where the damaged file was moved (sibling `.corrupt` path).
    pub quarantined_to: PathBuf,
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; quarantined to {}",
            self.error,
            self.quarantined_to.display()
        )
    }
}

/// Appends the checksum trailer to a serialized document body. The body
/// must end with a newline (every serializer here emits one); [`unseal`]
/// verifies and strips the trailer again. This is the crash-consistency
/// primitive shared by the queue journal, its snapshot, and the result
/// cache: anything that does not round-trip through `seal`/`unseal` is
/// treated as damaged, never trusted.
#[must_use]
pub fn seal(body: &str) -> String {
    format!("{body}{CHECKSUM_PREFIX}{:016x}\n", fnv1a(body.as_bytes()))
}

/// Verifies the checksum trailer of a sealed document and returns the
/// body.
///
/// # Errors
///
/// [`ManifestError::Truncated`] when the trailer is absent or incomplete
/// (any proper prefix of a sealed document lands here) and
/// [`ManifestError::ChecksumMismatch`] when the body hash disagrees.
pub fn unseal(text: &str) -> Result<&str, ManifestError> {
    let Some(without_final_newline) = text.strip_suffix('\n') else {
        return Err(ManifestError::Truncated(
            "file does not end with a newline".into(),
        ));
    };
    // A single line is the trailer of an empty body.
    let body_len = without_final_newline.rfind('\n').map_or(0, |p| p + 1);
    let trailer = &without_final_newline[body_len..];
    let Some(hex) = trailer.strip_prefix(CHECKSUM_PREFIX) else {
        return Err(ManifestError::Truncated(
            "final line is not a checksum trailer".into(),
        ));
    };
    let expected = u64::from_str_radix(hex, 16)
        .map_err(|_| ManifestError::Truncated(format!("unparseable checksum `{hex}`")))?;
    let body = &text[..body_len];
    let actual = fnv1a(body.as_bytes());
    if actual != expected {
        return Err(ManifestError::ChecksumMismatch(format!(
            "trailer says {expected:016x}, body hashes to {actual:016x}"
        )));
    }
    Ok(body)
}

impl ManifestError {
    /// Prefixes the error message with `context`, keeping the variant.
    pub(crate) fn with_context(self, context: &str) -> ManifestError {
        match self {
            ManifestError::Io(m) => ManifestError::Io(format!("{context}: {m}")),
            ManifestError::Truncated(m) => ManifestError::Truncated(format!("{context}: {m}")),
            ManifestError::ChecksumMismatch(m) => {
                ManifestError::ChecksumMismatch(format!("{context}: {m}"))
            }
            ManifestError::Malformed(m) => ManifestError::Malformed(format!("{context}: {m}")),
        }
    }
}

/// Moves a damaged file to its sibling `<file name>.corrupt` path, preserving
/// the evidence, and returns the [`Quarantine`] notice. The queue journal
/// and snapshot quarantine this way.
///
/// # Errors
///
/// [`ManifestError::Io`] when the rename itself fails (the damaged file is
/// then left in place).
pub(crate) fn quarantine_file(
    path: &Path,
    error: ManifestError,
) -> Result<Quarantine, ManifestError> {
    // The whole file name is kept (`queue.journal.corrupt`), so the
    // journal's and the snapshot's evidence never overwrite each other.
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    let quarantined_to = path.with_file_name(name);
    std::fs::rename(path, &quarantined_to).map_err(|e| {
        ManifestError::Io(format!(
            "quarantining {} to {}: {e}",
            path.display(),
            quarantined_to.display()
        ))
    })?;
    Ok(Quarantine {
        error,
        quarantined_to,
    })
}

/// Reads a checksum-sealed document and returns its verified body, or
/// `None` for a missing file (an empty artifact, not an error).
///
/// # Errors
///
/// [`ManifestError::Io`] for filesystem failures other than not-found, and
/// the [`unseal`] verification errors for damaged contents.
pub(crate) fn read_sealed(path: &Path) -> Result<Option<String>, ManifestError> {
    match std::fs::read_to_string(path) {
        Ok(mut text) => {
            let body_len = unseal(&text)
                .map_err(|e| e.with_context(&format!("sealed file {}", path.display())))?
                .len();
            text.truncate(body_len);
            Ok(Some(text))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ManifestError::Io(format!(
            "reading {}: {e}",
            path.display()
        ))),
    }
}

/// Atomically installs a checksum-sealed document at `path` through `io`
/// (temp file + rename): the previous generation stays intact whatever
/// `io` does. `body` must end with a newline.
///
/// # Errors
///
/// [`ManifestError::Io`] for failures writing the temp file or renaming it
/// into place.
pub(crate) fn save_sealed_with(
    io: &mut dyn ManifestIo,
    path: &Path,
    body: &str,
) -> Result<(), ManifestError> {
    let tmp = path.with_extension("tmp");
    io.write(&tmp, seal(body).as_bytes())
        .map_err(|e| ManifestError::Io(format!("writing {}: {e}", tmp.display())))?;
    io.rename(&tmp, path)
        .map_err(|e| ManifestError::Io(format!("installing {}: {e}", path.display())))
}

/// The filesystem operations behind every durable write, as a seam for
/// fault injection. Production code uses [`RealIo`].
pub trait ManifestIo {
    /// Writes `bytes` to `path`, creating or replacing it.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Atomically renames `from` onto `to`.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Appends `bytes` to `path`, creating the file if absent. Used by the
    /// queue journal; unlike [`ManifestIo::write`] this is *not* atomic —
    /// a crash mid-append leaves a torn tail, which journal replay is
    /// designed to drop.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }

    /// Cuts `path` to its first `len` bytes in place. Used to drop a torn
    /// journal tail: unlike rewriting the valid prefix, a truncation never
    /// touches the bytes it keeps, so a crash or failure mid-repair cannot
    /// lose them.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem failure.
    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl ManifestIo for RealIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// Fault-injecting [`ManifestIo`]: simulates the failure modes a durable
/// write meets in the wild. Each knob fires on every matching call.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultyIo {
    /// Write only this many bytes, then fail — a crash or disk error
    /// mid-write leaving a torn temp file behind. A truncation under this
    /// knob is refused and leaves the file as it was: the crash landed
    /// before the repair took effect.
    pub short_write: Option<usize>,
    /// Report out-of-space without writing (or truncating) anything.
    pub enospc: bool,
    /// Fail the install rename (e.g. permissions yanked mid-campaign).
    pub fail_rename: bool,
}

impl ManifestIo for FaultyIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.enospc {
            return Err(std::io::Error::other("no space left on device (injected)"));
        }
        if let Some(n) = self.short_write {
            std::fs::write(path, &bytes[..n.min(bytes.len())])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short write: {n} of {} bytes (injected)", bytes.len()),
            ));
        }
        std::fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        if self.fail_rename {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "rename refused (injected)",
            ));
        }
        std::fs::rename(from, to)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.enospc {
            return Err(std::io::Error::other("no space left on device (injected)"));
        }
        if let Some(n) = self.short_write {
            // A torn append: only a prefix of the record reaches the disk.
            RealIo.append(path, &bytes[..n.min(bytes.len())])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short append: {n} of {} bytes (injected)", bytes.len()),
            ));
        }
        RealIo.append(path, bytes)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        if self.enospc || self.short_write.is_some() {
            return Err(std::io::Error::other("truncate interrupted (injected)"));
        }
        RealIo.truncate(path, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "{\n  \"id\": \"a\",\n  \"instructions\": 10\n}\n";

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffsim-driver-manifest-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_round_trips() {
        assert_eq!(unseal(&seal(BODY)).unwrap(), BODY);
        assert_eq!(unseal(&seal("")).unwrap(), "", "an empty body seals too");
    }

    #[test]
    fn truncation_at_every_byte_offset_is_a_typed_error() {
        // A half-written (or worse) document must never panic and never
        // verify: any proper prefix loses trailer bytes.
        let full = seal(BODY);
        for cut in 0..full.len() {
            let err = unseal(&full[..cut]).expect_err("proper prefix must not verify");
            assert!(
                matches!(err, ManifestError::Truncated(_)),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn flipped_byte_is_a_checksum_mismatch() {
        let full = seal(BODY);
        let corrupted = full.replacen("10", "19", 1);
        assert_ne!(full, corrupted, "corruption must change the body");
        let err = unseal(&corrupted).expect_err("bit flip must not verify");
        assert!(matches!(err, ManifestError::ChecksumMismatch(_)), "{err:?}");
    }

    #[test]
    fn missing_file_reads_as_none() {
        let dir = temp_dir("missing");
        assert_eq!(read_sealed(&dir.join("does-not-exist")).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_moves_the_damaged_file_aside() {
        let dir = temp_dir("quarantine");
        let path = dir.join("queue.snapshot");
        std::fs::write(&path, "not sealed at all").unwrap();
        let error = read_sealed(&path).expect_err("damage must surface");
        assert!(matches!(error, ManifestError::Truncated(_)), "{error:?}");
        let notice = quarantine_file(&path, error).unwrap();
        assert!(notice.quarantined_to.ends_with("queue.snapshot.corrupt"));
        assert!(!path.exists(), "damaged file must be moved away");
        assert!(notice.quarantined_to.exists(), "evidence must be preserved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_leave_the_previous_generation_intact() {
        let dir = temp_dir("faults");
        let path = dir.join("queue.snapshot");
        save_sealed_with(&mut RealIo, &path, BODY).unwrap();
        let newer = BODY.replace("10", "20");

        let faults = [
            FaultyIo {
                short_write: Some(17),
                ..FaultyIo::default()
            },
            FaultyIo {
                enospc: true,
                ..FaultyIo::default()
            },
            FaultyIo {
                fail_rename: true,
                ..FaultyIo::default()
            },
        ];
        for mut io in faults {
            let err = save_sealed_with(&mut io, &path, &newer).expect_err("fault must surface");
            assert!(matches!(err, ManifestError::Io(_)), "{err:?}");
            // The previous generation still verifies: atomicity held.
            let back = read_sealed(&path).unwrap_or_else(|e| panic!("{io:?}: {e}"));
            assert_eq!(back.as_deref(), Some(BODY), "{io:?} damaged the file");
        }
        // And once the faults clear, the install goes through.
        save_sealed_with(&mut RealIo, &path, &newer).unwrap();
        assert_eq!(read_sealed(&path).unwrap(), Some(newer));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_keeps_the_prefix_or_nothing_changes() {
        let dir = temp_dir("truncate");
        let path = dir.join("queue.journal");
        std::fs::write(&path, b"0123456789").unwrap();
        for mut io in [
            FaultyIo {
                short_write: Some(3),
                ..FaultyIo::default()
            },
            FaultyIo {
                enospc: true,
                ..FaultyIo::default()
            },
        ] {
            io.truncate(&path, 4).expect_err("fault must surface");
            assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        }
        RealIo.truncate(&path, 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        std::fs::remove_dir_all(&dir).ok();
    }
}
