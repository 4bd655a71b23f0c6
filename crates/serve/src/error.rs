//! Error types of the serving layer: per-request [`ServeError`]s (which
//! travel over the wire) and transport-level [`WireError`]s (which do
//! not — they describe the connection itself).

use exaclim::EmulationError;
use exaclim_store::ArchiveError;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The underlying archive rejected the operation (I/O, corruption,
    /// checksum failure, bad slice range, …).
    Archive(ArchiveError),
    /// An emulation run failed (message of the [`EmulationError`]).
    Emulation(String),
    /// No archive with this name is open in the catalog.
    UnknownArchive(String),
    /// No emulator with this name is registered in the catalog.
    UnknownEmulator(String),
    /// The request itself is inconsistent (duplicate catalog names,
    /// zero-length emulation, …).
    BadRequest(String),
    /// The server shed this request before executing it: the dispatch
    /// backlog was over [`crate::net::NetConfig::max_dispatch_backlog`].
    /// Retryable by construction — nothing was computed — and the server
    /// suggests waiting `retry_after_ms` before trying again (see
    /// [`crate::net::RetryPolicy`], which honors it).
    Overloaded {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u32,
    },
    /// The request carried a deadline
    /// ([`crate::server::Request::WithDeadline`]) that had already
    /// expired when the server was about to execute it, so the work was
    /// skipped. Fatal, not retryable: the client's budget is spent.
    DeadlineExpired,
    /// The server failed internally while executing this request (a
    /// worker panic, an injected fault). The request itself may be
    /// perfectly fine, so this is retryable.
    Internal(String),
}

impl ServeError {
    /// Whether a client may retry the request verbatim with a
    /// reasonable hope of success. Shedding and internal failures are
    /// transient ([`ServeError::Overloaded`], [`ServeError::Internal`]),
    /// as are archive I/O and corruption errors (a re-read re-decodes);
    /// everything describing the *request* (bad ranges, unknown names,
    /// expired deadlines) is fatal — retrying cannot change the answer.
    pub fn retryable(&self) -> bool {
        match self {
            ServeError::Overloaded { .. } | ServeError::Internal(_) => true,
            ServeError::Archive(e) => matches!(
                e,
                ArchiveError::Io(_)
                    | ArchiveError::ChecksumMismatch { .. }
                    | ArchiveError::TruncatedChunk { .. }
            ),
            ServeError::Emulation(_)
            | ServeError::UnknownArchive(_)
            | ServeError::UnknownEmulator(_)
            | ServeError::BadRequest(_)
            | ServeError::DeadlineExpired => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Archive(e) => write!(f, "archive error: {e}"),
            ServeError::Emulation(m) => write!(f, "emulation error: {m}"),
            ServeError::UnknownArchive(n) => write!(f, "no archive `{n}` in catalog"),
            ServeError::UnknownEmulator(n) => write!(f, "no emulator `{n}` in catalog"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            ServeError::DeadlineExpired => write!(f, "request deadline expired before execution"),
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ArchiveError> for ServeError {
    fn from(e: ArchiveError) -> Self {
        ServeError::Archive(e)
    }
}

impl From<EmulationError> for ServeError {
    fn from(e: EmulationError) -> Self {
        ServeError::Emulation(e.to_string())
    }
}

/// Transport-level errors of the framed-TCP wire protocol.
///
/// A [`WireError`] means the *connection* failed — framing, checksums,
/// version mismatch, socket I/O — as opposed to a [`ServeError`],
/// which is a per-request failure that travels inside a well-formed
/// response. Decode errors are typed so hostile input is rejected,
/// never trusted: the decoder checks every length against what is
/// actually present before allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with the `ECN1` magic.
    BadMagic([u8; 4]),
    /// The peer speaks an unsupported protocol version.
    Version {
        /// Version the peer sent.
        got: u8,
        /// Version this build speaks.
        want: u8,
    },
    /// The frame kind byte is not a known [`crate::wire::FrameKind`].
    BadFrameKind(u8),
    /// The header claims a payload larger than the decode cap.
    FrameTooLarge {
        /// Claimed payload length.
        len: u64,
        /// The cap ([`crate::wire::MAX_FRAME_PAYLOAD`]).
        max: u64,
    },
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The payload does not match the CRC32 recorded in the header.
    ChecksumMismatch {
        /// CRC32 recorded in the frame header.
        expected: u32,
        /// CRC32 of the payload actually received.
        actual: u32,
    },
    /// The payload is structurally invalid (unknown tag, length claim
    /// exceeding the payload, trailing bytes, …).
    Malformed(String),
    /// The peer reported a transport-level failure in an error frame.
    Remote(String),
    /// A response frame answered a different frame id than the one in
    /// flight (pipelining protocol violation).
    IdMismatch {
        /// Frame id we were waiting for.
        expected: u64,
        /// Frame id the peer sent.
        got: u64,
    },
    /// Socket-level I/O failure (message of the `std::io::Error`,
    /// prefixed with the peer's label once [`WireError::with_peer`] has
    /// attributed it).
    Io(String),
    /// The peer closed the connection cleanly between frames.
    ConnectionClosed {
        /// Which peer hung up — `None` until [`WireError::with_peer`]
        /// attributes the failure (a client labels it with the address
        /// it was talking to).
        peer: Option<String>,
    },
    /// A stream frame arrived out of order: duplicated, skipped, or not
    /// starting at sequence 0 (see [`crate::wire::StreamPos`]).
    StreamSequence {
        /// Sequence number the reassembler expected next.
        expected: u16,
        /// Sequence number the frame carried.
        got: u16,
    },
    /// A stream frame carried a different frame id than the stream it
    /// interrupted — fragments of two responses interleaved on one
    /// connection, which the protocol forbids.
    StreamInterleaved {
        /// Frame id of the stream being reassembled.
        expected: u64,
        /// Frame id the interloping frame carried.
        got: u64,
    },
    /// The stream ended (connection closed, or a non-stream frame
    /// arrived) before a frame with the `FIN` flag was seen.
    StreamTruncated,
}

impl WireError {
    /// Whether reconnecting and replaying the in-flight requests is a
    /// sound reaction. Transport interruptions — socket errors, resets,
    /// truncated frames or streams, payloads mangled in flight — are
    /// retryable because every serving operation is read-only: replaying
    /// a request cannot double-apply anything. Protocol disagreements
    /// (bad magic, version mismatch, malformed payloads, id confusion)
    /// are fatal — a retry would speak the same wrong language.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            WireError::Io(_)
                | WireError::ConnectionClosed { .. }
                | WireError::Truncated { .. }
                | WireError::StreamTruncated
                | WireError::ChecksumMismatch { .. }
        )
    }

    /// Attribute this error to a named peer: a transport failure is
    /// useless in logs unless it says *which* connection died (a
    /// [`crate::Client`] labels with the address it connected to).
    /// Labels [`WireError::Io`] (message prefix) and
    /// [`WireError::ConnectionClosed`]; idempotent — an
    /// already-attributed error keeps its first label. Protocol errors
    /// pass through untouched (they name frame contents, not peers).
    #[must_use]
    pub fn with_peer(self, peer: &str) -> WireError {
        match self {
            WireError::Io(m) if !m.starts_with('[') => WireError::Io(format!("[{peer}] {m}")),
            WireError::ConnectionClosed { peer: None } => WireError::ConnectionClosed {
                peer: Some(peer.to_string()),
            },
            other => other,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "not an ECN1 frame (magic {m:02x?})"),
            WireError::Version { got, want } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {want})"
                )
            }
            WireError::BadFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated { context } => write!(f, "stream ended inside {context}"),
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (header says {expected:#010x}, payload is {actual:#010x})"
            ),
            WireError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
            WireError::Remote(m) => write!(f, "peer reported: {m}"),
            WireError::IdMismatch { expected, got } => {
                write!(
                    f,
                    "response frame id {got} does not match request id {expected}"
                )
            }
            WireError::Io(m) => write!(f, "wire I/O error: {m}"),
            WireError::ConnectionClosed { peer: None } => write!(f, "connection closed by peer"),
            WireError::ConnectionClosed { peer: Some(p) } => {
                write!(f, "connection closed by peer [{p}]")
            }
            WireError::StreamSequence { expected, got } => {
                write!(
                    f,
                    "stream frame out of order: got seq {got}, expected {expected}"
                )
            }
            WireError::StreamInterleaved { expected, got } => {
                write!(
                    f,
                    "stream frame id {got} interleaved into stream {expected}"
                )
            }
            WireError::StreamTruncated => {
                write!(f, "stream ended before a FIN frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "frame" }
        } else {
            WireError::Io(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::WireError;

    #[test]
    fn with_peer_labels_transport_errors_once_and_passes_protocol_errors() {
        let io = WireError::Io("reset".to_string()).with_peer("a:1");
        assert_eq!(io, WireError::Io("[a:1] reset".to_string()));
        let closed = WireError::ConnectionClosed { peer: None }.with_peer("a:1");
        assert_eq!(
            closed,
            WireError::ConnectionClosed {
                peer: Some("a:1".to_string())
            }
        );
        assert_eq!(closed.to_string(), "connection closed by peer [a:1]");
        // A second label does not replace the first.
        assert_eq!(io.clone().with_peer("b:2"), io);
        assert_eq!(closed.clone().with_peer("b:2"), closed);
        let crc = WireError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert_eq!(crc.clone().with_peer("a:1"), crc);
    }
}
