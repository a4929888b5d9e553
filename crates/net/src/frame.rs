//! The length-prefixed frame layer.
//!
//! Every message on a `lbsp-net` connection is one frame:
//!
//! ```text
//! ┌───────────────┬───────┬───────────────────┐
//! │ u32 LE length │ u8 tag│ payload           │
//! └───────────────┴───────┴───────────────────┘
//!        │             └ one of `lbsp_core::wire::tag`
//!        └ length of (tag + payload), so length >= 1
//! ```
//!
//! The length counts the tag byte plus the payload, so a frame body is
//! never empty and a zero length is a protocol violation. Lengths above
//! the configured maximum are rejected *before* any allocation — a
//! hostile peer cannot make the server reserve gigabytes by sending five
//! bytes. Payload interpretation is entirely the caller's business; this
//! layer only restores message boundaries on top of the byte stream.

use std::io::{self, Read, Write};

/// Default ceiling on the frame body (tag + payload) in bytes: 1 MiB.
/// Generous for every codec in `lbsp_core::wire` (the largest legal
/// payload, a candidate list, stays far below this at sane result
/// sizes) while bounding per-connection memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Number of bytes a frame occupies on the wire beyond its payload:
/// 4-byte length prefix + 1 tag byte.
pub const FRAME_OVERHEAD: usize = 5;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message tag (see `lbsp_core::wire::tag`).
    pub tag: u8,
    /// Message payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }
}

/// Encodes one frame into a contiguous buffer (header + tag + payload).
///
/// # Errors
/// `InvalidInput` when the body would exceed `max_frame`.
pub fn frame_bytes(tag: u8, payload: &[u8], max_frame: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    append_frame(&mut out, tag, payload, max_frame)?;
    Ok(out)
}

/// Encodes one frame onto the end of `out`, so a window of frames is
/// one buffer and one `write`.
///
/// # Errors
/// `InvalidInput` when the body would exceed `max_frame`; `out` is then
/// unchanged.
pub fn append_frame(
    out: &mut Vec<u8>,
    tag: u8,
    payload: &[u8],
    max_frame: usize,
) -> io::Result<()> {
    let body_len = payload.len() + 1;
    if body_len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {body_len} exceeds max {max_frame}"),
        ));
    }
    let prefix = u32::try_from(body_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {body_len} exceeds the u32 length prefix"),
        )
    })?;
    out.reserve(4 + body_len);
    out.extend_from_slice(&prefix.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(payload);
    Ok(())
}

/// Writes one frame to `w` as a single `write_all` (one syscall in the
/// common case, so frames are never interleaved mid-message by
/// concurrent writers that each own their stream).
pub fn write_frame<W: Write>(
    w: &mut W,
    tag: u8,
    payload: &[u8],
    max_frame: usize,
) -> io::Result<()> {
    let bytes = frame_bytes(tag, payload, max_frame)?;
    w.write_all(&bytes)
}

/// What a [`FrameReader::poll`] call observed.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// A complete frame arrived.
    Frame(Frame),
    /// No data available right now (the underlying read timed out or
    /// would block); partial progress is retained for the next poll.
    Pending,
    /// No complete frame is buffered and the last read came back short
    /// — the source had no more to give — so it was not asked again.
    /// The next poll reads. A sweep over nonblocking sockets ends the
    /// connection's turn here; a caller that blocks polls again.
    Drained,
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
}

/// Bytes asked of the source per read: room for a sweep's worth of
/// small frames. A frame whose header promised more is read straight
/// into a buffer sized for it.
const READ_CHUNK: usize = 4096;

/// Incremental frame decoder over one connection's byte stream.
///
/// One growable buffer holds what has been read and not yet returned.
/// [`FrameReader::poll`] hands out complete frames from it and reads
/// only when none is left, so a burst of frames costs one `read`, and a
/// read that came back short answers the next frame-less poll with
/// [`Poll::Drained`] instead of a second `read`.
///
/// The reader is resumable at any byte: the server reads nonblocking
/// and the client with a socket timeout, so either can fire
/// *mid-frame*; the partial frame stays buffered across
/// [`Poll::Pending`] returns. An EOF mid-frame is `UnexpectedEof`,
/// distinct from a clean close between frames. A length prefix is
/// checked against `max_frame` as soon as its four bytes are buffered,
/// before anything is reserved for the body. An empty reader holds no
/// allocation.
#[derive(Debug)]
pub struct FrameReader {
    max_frame: usize,
    /// `buf[pos..end]` is what has been read and not yet returned.
    /// Past `end` there is only room: a large frame's buffer is sized
    /// (and zeroed) once, however many reads it takes to arrive.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The last read returned fewer bytes than it asked for.
    drained: bool,
}

impl FrameReader {
    /// Creates a reader enforcing `max_frame` as the body-length cap.
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            max_frame,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            drained: false,
        }
    }

    /// `true` when nothing is buffered (a clean close here is a
    /// graceful EOF, not a truncation).
    pub fn at_boundary(&self) -> bool {
        self.buffered() == 0
    }

    /// Bytes read and not yet returned in a frame: the in-progress
    /// frame's header and body so far, plus any complete frames still
    /// waiting their turn. Strictly increases while a frame is arriving
    /// and is 0 once everything read has been returned, so callers can
    /// distinguish "no data at all" from "a frame is trickling in"
    /// across [`Poll::Pending`] returns.
    pub fn buffered(&self) -> usize {
        self.end.saturating_sub(self.pos)
    }

    /// Returns the next complete frame, reading from `r` — once — only
    /// when the buffer holds none.
    ///
    /// # Errors
    /// * `InvalidData` — zero or oversized length prefix (protocol
    ///   violation; the stream can no longer be trusted to be in sync).
    /// * `UnexpectedEof` — the peer closed mid-frame.
    /// * Any other I/O error from `r` except `WouldBlock`/`TimedOut`
    ///   (reported as [`Poll::Pending`]) and `Interrupted` (retried).
    pub fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<Poll> {
        loop {
            if let Some(frame) = self.next_buffered()? {
                return Ok(Poll::Frame(frame));
            }
            if self.drained {
                self.drained = false;
                return Ok(Poll::Drained);
            }
            match self.fill(r) {
                Ok(0) => {
                    return if self.at_boundary() {
                        Ok(Poll::Eof)
                    } else {
                        Err(io::ErrorKind::UnexpectedEof.into())
                    };
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Pending);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Splits the first complete frame off the pending bytes, if there
    /// is one; a length prefix is checked as soon as it is the first
    /// thing pending.
    fn next_buffered(&mut self) -> io::Result<Option<Frame>> {
        let pending = self.buf.get(self.pos..self.end).unwrap_or_default();
        let Some((header, rest)) = pending.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len == 0 || len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside 1..={}", self.max_frame),
            ));
        }
        let Some((&tag, payload)) = rest.get(..len).and_then(<[u8]>::split_first) else {
            return Ok(None);
        };
        let frame = Frame {
            tag,
            payload: payload.to_vec(),
        };
        self.pos = self.pos.saturating_add(4 + len);
        if self.pos >= self.end {
            // Everything read has been returned: an idle connection
            // holds no read buffer.
            self.buf = Vec::new();
            self.pos = 0;
            self.end = 0;
        }
        Ok(Some(frame))
    }

    /// One `read` into the buffer; the count it returned. Only called
    /// when the pending bytes are an incomplete frame (or nothing),
    /// which is moved to the front of the buffer first.
    fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.pos > 0 {
            self.buf.drain(..self.pos.min(self.buf.len()));
            self.end = self.end.saturating_sub(self.pos);
            self.pos = 0;
        }
        // Where the in-progress frame ends, once its (already checked)
        // length prefix is in.
        let frame_end = self
            .buf
            .first_chunk::<4>()
            .filter(|_| self.end >= 4)
            .map_or(0, |header| 4 + u32::from_le_bytes(*header) as usize);
        let n = if frame_end > self.end.saturating_add(READ_CHUNK) || self.buf.len() > self.end {
            // A large frame: read the rest of it, and no further,
            // straight into place.
            if self.buf.len() < frame_end {
                self.buf.resize(frame_end, 0);
            }
            let dst = self
                .buf
                .get_mut(self.end..frame_end)
                .ok_or_else(corrupt_state)?;
            let want = dst.len();
            let n = r.read(dst)?.min(want);
            self.drained = n < want;
            n
        } else {
            let mut chunk = [0u8; READ_CHUNK];
            let n = r.read(&mut chunk)?.min(READ_CHUNK);
            self.drained = n < READ_CHUNK;
            self.buf
                .extend_from_slice(chunk.get(..n).unwrap_or_default());
            n
        };
        self.end = self.end.saturating_add(n);
        Ok(n)
    }
}

/// Internal invariant violation in the reader's buffer bookkeeping.
/// Reaching this is a bug, but the connection handler treats it like
/// any other protocol error: disconnect, never panic.
fn corrupt_state() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "frame reader state out of sync (internal error)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields its script one item at a time: `Ok(bytes)`
    /// chunks interleaved with `WouldBlock` stalls, then EOF.
    struct Script {
        items: Vec<Option<Vec<u8>>>,
        next: usize,
        pending: Vec<u8>,
    }

    impl Script {
        fn new(items: Vec<Option<Vec<u8>>>) -> Script {
            Script {
                items,
                next: 0,
                pending: Vec::new(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending.is_empty() {
                match self.items.get(self.next) {
                    None => return Ok(0),
                    Some(None) => {
                        self.next += 1;
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    Some(Some(bytes)) => {
                        self.pending = bytes.clone();
                        self.next += 1;
                    }
                }
            }
            let n = self.pending.len().min(buf.len());
            buf[..n].copy_from_slice(&self.pending[..n]);
            self.pending.drain(..n);
            Ok(n)
        }
    }

    /// A poll that asks the source: past the one `Drained` a short
    /// read leaves behind.
    fn poll_read<R: Read>(r: &mut FrameReader, src: &mut R) -> io::Result<Poll> {
        match r.poll(src)? {
            Poll::Drained => r.poll(src),
            other => Ok(other),
        }
    }

    #[test]
    fn roundtrip_single_frame() {
        let bytes = frame_bytes(0x42, b"hello", MAX_FRAME_LEN).unwrap();
        assert_eq!(bytes.len(), FRAME_OVERHEAD + 5);
        let mut r = FrameReader::new(MAX_FRAME_LEN);
        let mut cur = Cursor::new(bytes);
        match r.poll(&mut cur).unwrap() {
            Poll::Frame(f) => {
                assert_eq!(f.tag, 0x42);
                assert_eq!(f.payload, b"hello");
                assert_eq!(f.wire_len(), FRAME_OVERHEAD + 5);
            }
            other => panic!("expected frame, got {other:?}"),
        }
        assert_eq!(poll_read(&mut r, &mut cur).unwrap(), Poll::Eof);
    }

    #[test]
    fn empty_payload_is_legal() {
        let bytes = frame_bytes(0x01, b"", MAX_FRAME_LEN).unwrap();
        let mut r = FrameReader::new(MAX_FRAME_LEN);
        match r.poll(&mut Cursor::new(bytes)).unwrap() {
            Poll::Frame(f) => {
                assert_eq!(f.tag, 0x01);
                assert!(f.payload.is_empty());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn back_to_back_frames() {
        let mut bytes = frame_bytes(1, b"a", MAX_FRAME_LEN).unwrap();
        bytes.extend(frame_bytes(2, b"bb", MAX_FRAME_LEN).unwrap());
        let mut cur = Cursor::new(bytes);
        let mut r = FrameReader::new(MAX_FRAME_LEN);
        let tags: Vec<u8> = (0..2)
            .map(|_| match r.poll(&mut cur).unwrap() {
                Poll::Frame(f) => f.tag,
                other => panic!("expected frame, got {other:?}"),
            })
            .collect();
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(poll_read(&mut r, &mut cur).unwrap(), Poll::Eof);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // Header promises body one past the cap — rejected immediately.
        let cap = 1024;
        let mut bytes = ((cap + 1) as u32).to_le_bytes().to_vec();
        bytes.push(0x01);
        let mut r = FrameReader::new(cap);
        let err = r.poll(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_length_rejected() {
        let bytes = 0u32.to_le_bytes().to_vec();
        let mut r = FrameReader::new(MAX_FRAME_LEN);
        let err = r.poll(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_frame_is_unexpected() {
        let bytes = frame_bytes(7, b"payload", MAX_FRAME_LEN).unwrap();
        for cut in 1..bytes.len() {
            let mut r = FrameReader::new(MAX_FRAME_LEN);
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            let err = poll_read(&mut r, &mut cur).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn partial_reads_across_wouldblock_resume() {
        // One frame delivered byte-by-byte with a stall between every
        // chunk; the reader must report Pending and then resume.
        let bytes = frame_bytes(9, b"resume", MAX_FRAME_LEN).unwrap();
        let mut items = Vec::new();
        for b in &bytes {
            items.push(Some(vec![*b]));
            items.push(None);
        }
        let mut script = Script::new(items);
        let mut r = FrameReader::new(MAX_FRAME_LEN);
        let mut frames = 0;
        loop {
            match r.poll(&mut script).unwrap() {
                Poll::Frame(f) => {
                    assert_eq!(f.tag, 9);
                    assert_eq!(f.payload, b"resume");
                    frames += 1;
                }
                Poll::Pending | Poll::Drained => continue,
                Poll::Eof => break,
            }
        }
        assert_eq!(frames, 1);
    }

    #[test]
    fn writer_refuses_oversized_payload() {
        let payload = vec![0u8; 64];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, 1, &payload, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing written on refusal");
        write_frame(&mut sink, 1, &payload, 65).unwrap();
        assert_eq!(sink.len(), FRAME_OVERHEAD + 64);
    }
}
