//! Hand-rolled versioned binary codec for simulator snapshots.
//!
//! Every stateful crate serializes its live state through [`ByteWriter`]
//! and [`ByteReader`] — fixed-width little-endian primitives wrapped in
//! length-prefixed, individually versioned *sections*. The format is
//! deliberately tiny (no external dependencies; the build is offline)
//! and explicit: a snapshot is a magic string, a format version, and a
//! sequence of tagged sections, each of which can evolve independently
//! by bumping its section version.
//!
//! Versioning rules:
//!
//! * The top-level [`SNAPSHOT_MAGIC`] / [`SNAPSHOT_VERSION`] pair gates
//!   whole-file compatibility. The global version is bumped only for
//!   incompatible layout changes, so readers reject any file whose
//!   version differs from theirs — older or newer — with
//!   [`CodecError::UnsupportedVersion`] instead of misparsing it.
//! * Each section carries its own `u16` version. A reader that finds a
//!   section version above what it supports rejects the file the same
//!   way; older versions may be accepted by sections that know how to
//!   upgrade.
//! * Sections are length-prefixed so a reader can verify it consumed
//!   exactly the bytes the writer produced ([`SectionReader::finish`]) —
//!   a mismatch means a field was added on one side only and surfaces
//!   as [`CodecError::Corrupt`] rather than silent state skew.
//!
//! The [`Checkpoint`] trait is the seam each crate implements for its
//! live state: `save` appends to a writer, `restore` rebuilds in place
//! from a reader positioned at the matching bytes.

use core::error::Error;
use core::fmt;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NIMSNAP\0";

/// Current top-level snapshot format version. Version 1 images carried
/// a since-removed byte in the `CFG ` section and are rejected.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Error produced while decoding snapshot bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the expected bytes.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file was written by another global format version, or a
    /// section by a newer section version.
    UnsupportedVersion {
        /// Version found in the input.
        found: u16,
        /// The version this reader supports (the highest, for a
        /// section).
        supported: u16,
    },
    /// The bytes are structurally inconsistent (bad tag, bad enum
    /// discriminant, section length mismatch, ...).
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} is not supported (this build reads version {supported})"
                )
            }
            CodecError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl Error for CodecError {}

/// Append-only buffer of little-endian encoded state.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes the snapshot magic and top-level format version.
    pub fn header(&mut self) {
        self.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        self.u16(SNAPSHOT_VERSION);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.u32(u32::try_from(vs.len()).expect("slice too long for snapshot"));
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Opens a tagged, versioned, length-prefixed section. Returns a
    /// handle that must be passed to [`ByteWriter::end_section`] once
    /// the section body is written.
    pub fn begin_section(&mut self, tag: &str, version: u16) -> SectionHandle {
        self.str(tag);
        self.u16(version);
        let len_at = self.buf.len();
        self.u32(0); // patched by end_section
        SectionHandle { len_at }
    }

    /// Closes a section opened by [`ByteWriter::begin_section`],
    /// patching its length prefix.
    ///
    /// # Panics
    ///
    /// Panics if sections are closed out of order (the handle's length
    /// slot is not behind the current position).
    pub fn end_section(&mut self, handle: SectionHandle) {
        let body = self.buf.len() - handle.len_at - 4;
        let len = u32::try_from(body).expect("section too long for snapshot");
        self.buf[handle.len_at..handle.len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Handle returned by [`ByteWriter::begin_section`].
#[derive(Debug)]
#[must_use = "sections must be closed with end_section"]
pub struct SectionHandle {
    len_at: usize,
}

/// Cursor over encoded snapshot bytes.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks the snapshot magic and top-level version.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] if the magic does not match,
    /// [`CodecError::UnsupportedVersion`] if the file's version is not
    /// [`SNAPSHOT_VERSION`].
    pub fn header(&mut self) -> Result<u16, CodecError> {
        let magic = self.take(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = self.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(version)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is exhausted (as for
    /// all the primitive readers below).
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// See [`ByteReader::u8`].
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0 and 1.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("non-boolean byte")),
        }
    }

    /// Reads a `usize` (encoded as `u64`).
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if the value does not fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Corrupt("usize overflow"))
    }

    /// Reads an `Option<u64>` written by [`ByteWriter::opt_u64`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on a bad presence byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::Corrupt("bad option tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8"))
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if the input is shorter than the
    /// declared length.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.u32()? as usize;
        if self.remaining() < len.saturating_mul(8) {
            return Err(CodecError::UnexpectedEof {
                needed: len * 8,
                remaining: self.remaining(),
            });
        }
        (0..len).map(|_| self.u64()).collect()
    }

    /// Opens the next section, checking its tag and version ceiling.
    /// Returns a bounded reader over the section body; the outer
    /// reader's cursor advances past the whole section.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if the tag mismatches,
    /// [`CodecError::UnsupportedVersion`] if the section version
    /// exceeds `max_version`.
    pub fn section(
        &mut self,
        tag: &str,
        max_version: u16,
    ) -> Result<SectionReader<'a>, CodecError> {
        let found = self.str()?;
        if found != tag {
            return Err(CodecError::Corrupt("section tag mismatch"));
        }
        let version = self.u16()?;
        if version > max_version {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: max_version,
            });
        }
        let len = self.u32()? as usize;
        let body = self.take(len)?;
        Ok(SectionReader {
            version,
            reader: ByteReader::new(body),
        })
    }
}

/// A bounded reader over one section's body.
#[derive(Debug)]
pub struct SectionReader<'a> {
    /// The section version the writer recorded.
    pub version: u16,
    /// Reader over exactly the section body.
    pub reader: ByteReader<'a>,
}

impl SectionReader<'_> {
    /// Asserts the section body was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] if bytes remain — a writer/reader field
    /// mismatch.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.reader.remaining() != 0 {
            return Err(CodecError::Corrupt("section has trailing bytes"));
        }
        Ok(())
    }
}

/// The checkpoint seam every stateful component implements: `save`
/// appends the component's live state, `restore` rebuilds it in place
/// from the matching bytes on a freshly constructed component.
pub trait Checkpoint {
    /// Serializes live state into `w`.
    fn save(&self, w: &mut ByteWriter);

    /// Restores live state from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes are truncated, corrupt, or
    /// from an unsupported version.
    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i64(-5);
        w.f64(1.25);
        w.bool(true);
        w.bool(false);
        w.usize(99);
        w.opt_u64(Some(8));
        w.opt_u64(None);
        w.str("hello");
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), 1.25);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(r.opt_u64().unwrap(), Some(8));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn header_round_trips_and_rejects() {
        let mut w = ByteWriter::new();
        w.header();
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).header().unwrap(), SNAPSHOT_VERSION);

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(ByteReader::new(&bad).header(), Err(CodecError::BadMagic));

        let mut newer = bytes;
        newer[8] = 0xff; // version low byte
        assert!(matches!(
            ByteReader::new(&newer).header(),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn sections_frame_their_bodies() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 3);
        w.u64(42);
        w.end_section(s);
        let s = w.begin_section("l2", 1);
        w.str("after");
        w.end_section(s);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let mut sec = r.section("cores", 3).unwrap();
        assert_eq!(sec.version, 3);
        assert_eq!(sec.reader.u64().unwrap(), 42);
        sec.finish().unwrap();
        let mut sec = r.section("l2", 5).unwrap();
        assert_eq!(sec.reader.str().unwrap(), "after");
        sec.finish().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sections_reject_mismatches() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 2);
        w.u64(42);
        w.end_section(s);
        let bytes = w.into_bytes();

        assert_eq!(
            ByteReader::new(&bytes).section("caches", 2).unwrap_err(),
            CodecError::Corrupt("section tag mismatch")
        );
        assert!(matches!(
            ByteReader::new(&bytes).section("cores", 1).unwrap_err(),
            CodecError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        ));
        // Under-consumed section body.
        let sec = ByteReader::new(&bytes).section("cores", 2).unwrap();
        assert_eq!(
            sec.finish().unwrap_err(),
            CodecError::Corrupt("section has trailing bytes")
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = ByteWriter::new();
        let s = w.begin_section("cores", 1);
        w.u64_slice(&[1, 2, 3, 4]);
        w.end_section(s);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            match r.section("cores", 1) {
                Err(_) => {}
                Ok(mut sec) => {
                    // The section parsed but the body must fail.
                    assert!(sec.reader.u64_vec().is_err() || cut == bytes.len());
                }
            }
        }
    }

    #[test]
    fn bad_bytes_do_not_panic() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), Err(CodecError::Corrupt("non-boolean byte")));
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(r.str().is_err(), "declared length past the end");
        let mut r = ByteReader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert!(r.u64_vec().is_err(), "absurd length must not allocate");
    }
}
