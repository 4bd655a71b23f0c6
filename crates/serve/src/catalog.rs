//! Catalog of opened archives and registered emulators.
//!
//! The catalog is the server's name space: archives are opened once
//! (header + directory parse + structural validation) and then addressed
//! by name; emulators are registered directly or loaded out of snapshot
//! members embedded in an already-open archive. After construction the
//! catalog is immutable and shared read-only across worker threads.
//!
//! **Locking model.** Each archive is an [`exaclim_store::Archive`] over a
//! [`ChunkSource`], and every fetch goes through its `&self` read methods:
//!
//! * **zero-copy sources** (memory-mapped files, in-memory buffers) serve
//!   concurrent chunk fetches with *no lock and no copy* — each fetch is a
//!   borrowed view of stable storage, CRC-verified in place, and any
//!   number of workers read one archive simultaneously;
//! * **stream sources** (arbitrary `Read + Seek` handles) carry their
//!   mutex inside [`exaclim_store::LockedReader`], preserving the old
//!   seek+read discipline as the portable fallback.
//!
//! Decode always runs on the worker that requested the chunk, outside any
//! lock, whatever the backend.

use crate::error::ServeError;
use exaclim::TrainedEmulator;
use exaclim_store::{
    open_file_source, Archive, ChunkSource, LockedReader, MemberEntry, MemberKind, SharedBytes,
    Snapshot, SourceBytes,
};
use std::io::{Read, Seek};
use std::sync::Arc;

/// Byte stream an archive can be served from. Blanket-implemented for
/// every `Read + Seek + Send` type (files, in-memory cursors, …). Streams
/// serve through the mutex fallback; prefer
/// [`Catalog::open_archive_file`] / [`Catalog::open_archive_bytes`],
/// which pick a zero-copy source.
pub trait ByteSource: Read + Seek + Send {}
impl<T: Read + Seek + Send> ByteSource for T {}

/// One archive opened in the catalog.
pub struct ServedArchive {
    /// Catalog name of the archive (unique).
    name: String,
    /// The opened archive; all read methods take `&self`, so workers
    /// fetch chunks concurrently with no catalog-level locking.
    archive: Archive,
}

impl std::fmt::Debug for ServedArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedArchive")
            .field("name", &self.name)
            .field("members", &self.members().len())
            .field("total_len", &self.total_len())
            .field("backend", &self.backend())
            .finish()
    }
}

impl ServedArchive {
    /// Catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The archive's member directory, in write order.
    pub fn members(&self) -> &[MemberEntry] {
        self.archive.members()
    }

    /// Total container length in bytes.
    pub fn total_len(&self) -> u64 {
        self.archive.total_len()
    }

    /// Byte-source backend label ("mmap", "bytes", "stream").
    pub fn backend(&self) -> &'static str {
        self.archive.backend()
    }

    /// True when chunk fetches are lock-free borrowed views (mmap or
    /// in-memory source) rather than copies read under a mutex.
    pub fn is_zero_copy(&self) -> bool {
        self.archive.is_zero_copy()
    }

    /// Member index by name.
    pub fn member_index(&self, member: &str) -> Result<usize, ServeError> {
        Ok(self.archive.member_index(member)?)
    }

    /// Fetch and checksum-verify the stored bytes of one chunk. Over a
    /// zero-copy backend this borrows straight from the mapping — no
    /// lock, no copy; over a stream it reads under the source's internal
    /// mutex. Decode the result with [`exaclim_store::Codec::decode`]
    /// on the calling worker.
    pub fn fetch_chunk_stored(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<SourceBytes<'_>, ServeError> {
        Ok(self.archive.read_chunk_stored(member_idx, chunk_idx)?)
    }

    /// Read a snapshot member `(schema_version, payload)` (snapshot reads
    /// are rare: catalog/emulator loading, not the per-request path).
    pub fn read_snapshot(&self, member: &str) -> Result<(u32, Vec<u8>), ServeError> {
        Ok(self.archive.read_snapshot(member)?)
    }
}

/// A registered emulator with its catalog name.
#[derive(Debug, Clone)]
pub struct ServedEmulator {
    /// Catalog name (unique among emulators).
    pub name: String,
    /// The model, shared across worker threads.
    pub emulator: Arc<TrainedEmulator>,
    /// [`TrainedEmulator::parameter_bytes`], taken once at registration:
    /// it scans the whole factor, and the model does not change after.
    pub parameter_bytes: usize,
}

/// Name space of archives and emulators a [`crate::Server`] serves from.
///
/// ```
/// use exaclim_serve::Catalog;
/// use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
/// use std::io::Cursor;
///
/// let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
/// let data = vec![0.5; 6 * 8];
/// w.add_field("t2m", Codec::Raw64, FieldMeta::default(), 6, 4, &data).unwrap();
/// let (cursor, _) = w.finish().unwrap();
///
/// let mut catalog = Catalog::new();
/// catalog.open_archive_bytes("era5", cursor.into_inner()).unwrap();
/// assert_eq!(catalog.archives().len(), 1);
/// assert_eq!(catalog.archive("era5").unwrap().members()[0].name, "t2m");
/// // In-memory archives serve lock-free.
/// assert!(catalog.archive("era5").unwrap().is_zero_copy());
/// ```
#[derive(Debug, Default)]
pub struct Catalog {
    archives: Vec<ServedArchive>,
    emulators: Vec<ServedEmulator>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an archive over an explicit [`ChunkSource`] under catalog
    /// name `name`. The directory is parsed and validated here; chunk
    /// payloads are fetched lazily per request.
    pub fn open_archive_source(
        &mut self,
        name: impl Into<String>,
        source: Box<dyn ChunkSource + Send + Sync>,
    ) -> Result<&ServedArchive, ServeError> {
        let name = name.into();
        if self.archives.iter().any(|a| a.name == name) {
            return Err(ServeError::BadRequest(format!(
                "archive `{name}` is already open in the catalog"
            )));
        }
        let archive = Archive::from_source(source)?;
        self.archives.push(ServedArchive { name, archive });
        Ok(self.archives.last().expect("just pushed"))
    }

    /// Open an archive from any [`ByteSource`] stream under catalog name
    /// `name`. Streams cannot hand out stable views, so this archive
    /// serves through the mutex fallback.
    pub fn open_archive(
        &mut self,
        name: impl Into<String>,
        source: impl ByteSource + 'static,
    ) -> Result<&ServedArchive, ServeError> {
        let locked = LockedReader::new(source).map_err(ServeError::Archive)?;
        self.open_archive_source(name, Box::new(locked))
    }

    /// Open an archive file at `path` under catalog name `name`,
    /// memory-mapping it for lock-free zero-copy fetches where the
    /// platform supports it ([`exaclim_store::MMAP_SUPPORTED`]);
    /// elsewhere the file serves through a buffered reader behind a
    /// mutex. To serve a file through the buffered reader anywhere, pass
    /// a `BufReader<File>` to [`Catalog::open_archive`].
    pub fn open_archive_file(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<&ServedArchive, ServeError> {
        let source = open_file_source(path)?;
        self.open_archive_source(name, source)
    }

    /// Open an in-memory archive under catalog name `name` (zero-copy,
    /// lock-free fetches).
    pub fn open_archive_bytes(
        &mut self,
        name: impl Into<String>,
        bytes: Vec<u8>,
    ) -> Result<&ServedArchive, ServeError> {
        self.open_archive_source(name, Box::new(SharedBytes::from(bytes)))
    }

    /// Register an already-constructed emulator under `name`.
    pub fn register_emulator(
        &mut self,
        name: impl Into<String>,
        emulator: TrainedEmulator,
    ) -> Result<(), ServeError> {
        let name = name.into();
        if self.emulators.iter().any(|e| e.name == name) {
            return Err(ServeError::BadRequest(format!(
                "emulator `{name}` is already registered"
            )));
        }
        self.emulators.push(ServedEmulator {
            name,
            parameter_bytes: emulator.parameter_bytes(),
            emulator: Arc::new(emulator),
        });
        Ok(())
    }

    /// Load a [`TrainedEmulator`] out of snapshot member `member` of the
    /// open archive `archive` and register it under `name` — the path by
    /// which an archive that ships its own trained model becomes servable
    /// end to end.
    pub fn load_emulator_from_archive(
        &mut self,
        name: impl Into<String>,
        archive: &str,
        member: &str,
    ) -> Result<(), ServeError> {
        let (version, payload) = self.archive(archive)?.read_snapshot(member)?;
        let emulator = TrainedEmulator::from_snapshot(&Snapshot::new(member, version, payload))?;
        self.register_emulator(name, emulator)
    }

    /// All open archives, in open order.
    pub fn archives(&self) -> &[ServedArchive] {
        &self.archives
    }

    /// All registered emulators, in registration order.
    pub fn emulators(&self) -> &[ServedEmulator] {
        &self.emulators
    }

    /// Archive by catalog name.
    pub fn archive(&self, name: &str) -> Result<&ServedArchive, ServeError> {
        self.archives
            .iter()
            .find(|a| a.name == name)
            .ok_or_else(|| ServeError::UnknownArchive(name.to_string()))
    }

    /// Catalog index of archive `name` (used as the cache-key component).
    pub fn archive_index(&self, name: &str) -> Result<usize, ServeError> {
        self.archives
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| ServeError::UnknownArchive(name.to_string()))
    }

    /// Emulator by catalog name.
    pub fn emulator(&self, name: &str) -> Result<&ServedEmulator, ServeError> {
        self.emulators
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| ServeError::UnknownEmulator(name.to_string()))
    }

    /// Names of every field member of every archive, as
    /// `(archive, member)` pairs — convenience for building workloads.
    pub fn field_members(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for a in &self.archives {
            for m in a.members().iter() {
                if m.kind == MemberKind::Field {
                    out.push((a.name.clone(), m.name.clone()));
                }
            }
        }
        out
    }
}

/// The sequential baseline of the tests here and in `batch.rs`.
#[cfg(test)]
impl ServedArchive {
    /// Fetch **and decode** one field chunk; the serving hot path goes
    /// through [`ServedArchive::fetch_chunk_stored`] + cache +
    /// single-flight.
    pub(crate) fn fetch_field_chunk(
        &self,
        member_idx: usize,
        chunk_idx: usize,
    ) -> Result<Vec<f64>, ServeError> {
        Ok(self.archive.read_field_chunk(member_idx, chunk_idx)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_store::{Archive, ArchiveError, ArchiveWriter, ByteCodec, Codec, FieldMeta};
    use std::io::Cursor;

    fn tiny_archive() -> Vec<u8> {
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        let data: Vec<f64> = (0..4 * 9).map(|i| i as f64).collect();
        w.add_field("t2m", Codec::Raw64, FieldMeta::default(), 4, 3, &data)
            .unwrap();
        w.add_snapshot("blob", 5, ByteCodec::Rle, b"opaque", 16)
            .unwrap();
        w.finish().unwrap().0.into_inner()
    }

    #[test]
    fn opens_and_resolves_names() {
        let mut c = Catalog::new();
        c.open_archive_bytes("a", tiny_archive()).unwrap();
        assert_eq!(c.archive_index("a").unwrap(), 0);
        let a = c.archive("a").unwrap();
        assert_eq!(a.member_index("t2m").unwrap(), 0);
        assert_eq!(a.members().len(), 2);
        assert!(matches!(c.archive("b"), Err(ServeError::UnknownArchive(_))));
        assert!(matches!(
            a.member_index("nope"),
            Err(ServeError::Archive(ArchiveError::MemberNotFound(_)))
        ));
        assert_eq!(
            c.field_members(),
            vec![("a".to_string(), "t2m".to_string())]
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut c = Catalog::new();
        c.open_archive_bytes("a", tiny_archive()).unwrap();
        assert!(matches!(
            c.open_archive_bytes("a", tiny_archive()),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn chunk_fetches_match_reader() {
        let bytes = tiny_archive();
        let mut c = Catalog::new();
        c.open_archive_bytes("a", bytes.clone()).unwrap();
        let a = c.archive("a").unwrap();
        let r = Archive::from_reader(Cursor::new(bytes)).unwrap();
        for chunk in 0..a.members()[0].chunks.len() {
            assert_eq!(
                a.fetch_field_chunk(0, chunk).unwrap(),
                r.read_field_chunk(0, chunk).unwrap()
            );
            assert_eq!(
                &a.fetch_chunk_stored(0, chunk).unwrap()[..],
                &r.read_chunk_stored(0, chunk).unwrap()[..]
            );
        }
    }

    #[test]
    fn backend_is_visible_per_open_path() {
        let bytes = tiny_archive();
        let mut c = Catalog::new();
        c.open_archive_bytes("mem", bytes.clone()).unwrap();
        c.open_archive("stream", Cursor::new(bytes.clone()))
            .unwrap();
        assert_eq!(c.archive("mem").unwrap().backend(), "bytes");
        assert!(c.archive("mem").unwrap().is_zero_copy());
        assert!(c
            .archive("mem")
            .unwrap()
            .fetch_chunk_stored(0, 0)
            .unwrap()
            .is_borrowed());
        assert_eq!(c.archive("stream").unwrap().backend(), "stream");
        assert!(!c.archive("stream").unwrap().is_zero_copy());

        let path =
            std::env::temp_dir().join(format!("exaclim_catalog_file_{}.eca1", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        c.open_archive_file("file", &path).unwrap();
        let file = c.archive("file").unwrap();
        let want = if exaclim_store::MMAP_SUPPORTED {
            "mmap"
        } else {
            "stream"
        };
        assert_eq!(file.backend(), want);
        assert_eq!(
            file.fetch_field_chunk(0, 0).unwrap(),
            c.archive("mem").unwrap().fetch_field_chunk(0, 0).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_reads_and_bad_indices() {
        let mut c = Catalog::new();
        c.open_archive_bytes("a", tiny_archive()).unwrap();
        let a = c.archive("a").unwrap();
        let (version, payload) = a.read_snapshot("blob").unwrap();
        assert_eq!((version, payload.as_slice()), (5, b"opaque".as_slice()));
        assert!(matches!(
            a.fetch_field_chunk(9, 0),
            Err(ServeError::Archive(ArchiveError::BadRequest(_)))
        ));
    }
}
