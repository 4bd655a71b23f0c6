//! Memory-mapped archive bytes (64-bit unix).
//!
//! A mapped archive turns every chunk fetch into a borrowed `&[u8]` view
//! of the page cache: no seek, no read syscall, no copy, and — because
//! views are handed out from `&self` — no lock. This is the zero-copy
//! fast path the serving layer prefers for file-backed archives.
//!
//! The container has no registry access, so instead of `memmap2` this
//! module carries its own minimal FFI surface: `mmap`/`munmap` from the C
//! library (always linked by `std` on unix), wrapped in [`Mmap`], a safe
//! owner that unmaps on drop. The wrapper only ever creates read-only
//! private mappings, and the borrow checker ties every view's lifetime to
//! the mapping — reads after an unmap are impossible by construction, not
//! by discipline. The FFI declares the file offset as `i64`, which
//! matches `off_t` only where it is 64-bit, so the backend is gated to
//! `target_pointer_width = "64"` — 32-bit unix targets take the buffered
//! fallback rather than risk an ABI mismatch.
//!
//! **Mapped files must not change underneath the mapping.** A mapping
//! reflects the file's pages live: another process truncating or
//! rewriting the archive mid-serve can turn a chunk fetch into a fatal
//! `SIGBUS` instead of the clean [`ArchiveError`] the buffered path
//! returns. Treat served `.eca1` files as immutable while open (the
//! writer's create-then-finish discipline already produces
//! write-once artifacts); replace archives by renaming a new file into
//! place and reopening, never by editing in place.
//!
//! On other targets file-backed archives fall back to the buffered
//! [`crate::source::LockedReader`] path; [`open_file_source`] encapsulates
//! that policy. A caller that wants the buffered path on a mapping target
//! opens the file itself and hands a `BufReader` to
//! [`crate::Archive::from_reader`].

use crate::format::ArchiveError;
use crate::source::{ChunkSource, SourceBytes};
use std::path::Path;

/// True when this build target has the memory-mapped backend at all
/// (64-bit unix); other targets always serve files through the buffered
/// fallback.
pub const MMAP_SUPPORTED: bool = cfg!(all(unix, target_pointer_width = "64"));

/// Open the archive file at `path` as a boxed [`ChunkSource`]: a memory
/// map where [`MMAP_SUPPORTED`], a buffered reader behind a mutex
/// elsewhere.
pub fn open_file_source(
    path: impl AsRef<Path>,
) -> Result<Box<dyn ChunkSource + Send + Sync>, ArchiveError> {
    let file = std::fs::File::open(path.as_ref())?;
    #[cfg(all(unix, target_pointer_width = "64"))]
    let source = Mmap::map(&file)?;
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let source = crate::source::LockedReader::new(std::io::BufReader::new(file))?;
    Ok(Box::new(source))
}

#[cfg(all(unix, target_pointer_width = "64"))]
pub use unix::Mmap;

#[cfg(all(unix, target_pointer_width = "64"))]
mod unix {
    use super::*;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    // Minimal FFI surface of the C library's mapping calls. `std` links
    // libc on every unix target, so no external crate is needed. The
    // constant values below are shared by Linux and the BSDs/macOS for
    // the flags this module uses.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private memory mapping of one file, unmapped on drop.
    ///
    /// The mapping is immutable for its whole lifetime and owned uniquely
    /// by this value, so handing out `&[u8]` views from `&self` is sound;
    /// `Send + Sync` because concurrent reads of immutable pages race with
    /// nothing.
    pub struct Mmap {
        /// Mapping base; dangling (and never passed to `munmap`) for the
        /// zero-length mapping, which `mmap(2)` itself refuses to create.
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only and uniquely owned; views are tied
    // to `&self` borrows, so aliasing is the ordinary shared-read kind.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl std::fmt::Debug for Mmap {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mmap").field("len", &self.len).finish()
        }
    }

    impl Mmap {
        /// Map the whole of `file` read-only.
        pub fn map(file: &File) -> Result<Self, ArchiveError> {
            let len = file.metadata()?.len();
            if len > usize::MAX as u64 {
                return Err(ArchiveError::Corrupt(format!(
                    "file of {len} bytes cannot be mapped on this platform"
                )));
            }
            let len = len as usize;
            if len == 0 {
                // mmap(2) rejects zero-length mappings; an empty file is
                // simply an empty (and invalid) archive.
                return Ok(Self {
                    ptr: NonNull::dangling(),
                    len: 0,
                });
            }
            // SAFETY: requesting a fresh read-only private mapping of a
            // file descriptor we hold open; the kernel picks the address.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(ArchiveError::Io(format!(
                    "mmap failed: {}",
                    std::io::Error::last_os_error()
                )));
            }
            let ptr = NonNull::new(ptr.cast::<u8>())
                .ok_or_else(|| ArchiveError::Io("mmap returned a null mapping".to_string()))?;
            Ok(Self { ptr, len })
        }

        /// Map the archive file at `path` read-only.
        pub fn open(path: impl AsRef<Path>) -> Result<Self, ArchiveError> {
            Self::map(&File::open(path)?)
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` is a live read-only mapping of `len` bytes for
            // as long as `self` exists, and no mutable alias can exist.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: unmapping the exact region this value mapped;
                // all views borrowed from it have ended (borrow checker).
                unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            }
        }
    }

    impl ChunkSource for Mmap {
        fn len(&self) -> u64 {
            self.len as u64
        }
        fn read_at(&self, offset: u64, len: usize) -> Result<SourceBytes<'_>, ArchiveError> {
            let range = crate::source::checked_range(offset, len, self.len as u64)?;
            Ok(SourceBytes::Borrowed(&self.as_slice()[range]))
        }
        fn is_zero_copy(&self) -> bool {
            true
        }
        fn backend(&self) -> &'static str {
            "mmap"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mapped_file_reads_back_bit_identically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("exaclim_mmap_test_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.len(), 4096);
        assert!(map.is_zero_copy());
        assert_eq!(map.backend(), "mmap");
        assert_eq!(map.as_slice(), &payload[..]);
        let view = map.read_at(100, 32).unwrap();
        assert!(view.is_borrowed());
        assert_eq!(&view[..], &payload[100..132]);
        assert!(map.read_at(4090, 10).is_err());
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn empty_files_map_to_empty_slices() {
        let path =
            std::env::temp_dir().join(format!("exaclim_mmap_empty_{}.bin", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.len(), 0);
        assert!(map.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_maps_where_supported() {
        let path = std::env::temp_dir().join(format!("exaclim_srcsel_{}.bin", std::process::id()));
        std::fs::write(&path, b"0123456789").unwrap();
        let source = open_file_source(&path).unwrap();
        assert_eq!(
            source.backend(),
            if MMAP_SUPPORTED { "mmap" } else { "stream" }
        );
        assert_eq!(&source.read_at(2, 3).unwrap()[..], b"234");
        std::fs::remove_file(&path).ok();
    }
}
