//! `FrameReader` reads a connection, not a frame: whatever the source
//! hands over per `read` — one byte, half a header, thirty-two frames —
//! the frames, the errors, the `Pending`s and `buffered()` at each of
//! them are those of the two-phase reader it replaced (a `read` for the
//! header, a `read` for the body), kept here as the reference. What
//! changed is how often the source is asked.

use lbsp_net::frame::frame_bytes;
use lbsp_net::{Frame, FrameReader, Poll};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::io::{self, Read};

/// The parent commit's reader: the length prefix into a 4-byte array,
/// then the body into a vector of exactly that length.
struct TwoPhase {
    max_frame: usize,
    header: [u8; 4],
    have_header: usize,
    body: Vec<u8>,
    have_body: usize,
}

impl TwoPhase {
    fn new(max_frame: usize) -> TwoPhase {
        TwoPhase {
            max_frame,
            header: [0; 4],
            have_header: 0,
            body: Vec::new(),
            have_body: 0,
        }
    }

    fn buffered(&self) -> usize {
        self.have_header + self.have_body
    }

    fn poll<R: Read>(&mut self, r: &mut R) -> io::Result<Poll> {
        let stalled = |e: &io::Error| {
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        };
        while self.have_header < 4 {
            match r.read(&mut self.header[self.have_header..]) {
                Ok(0) if self.have_header == 0 => return Ok(Poll::Eof),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.have_header += n,
                Err(e) if stalled(&e) => return Ok(Poll::Pending),
                Err(e) => return Err(e),
            }
            if self.have_header == 4 {
                let len = u32::from_le_bytes(self.header) as usize;
                if len == 0 || len > self.max_frame {
                    return Err(io::ErrorKind::InvalidData.into());
                }
                self.body = vec![0; len];
                self.have_body = 0;
            }
        }
        while self.have_body < self.body.len() {
            match r.read(&mut self.body[self.have_body..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.have_body += n,
                Err(e) if stalled(&e) => return Ok(Poll::Pending),
                Err(e) => return Err(e),
            }
        }
        let body = std::mem::take(&mut self.body);
        self.have_header = 0;
        self.have_body = 0;
        Ok(Poll::Frame(Frame {
            tag: body[0],
            payload: body[1..].to_vec(),
        }))
    }
}

/// A connection as either reader may see it: a byte stream that stalls
/// (`WouldBlock`, once) when the reader reaches one of `stalls`, hands
/// over at most `cap` bytes per `read` and never reads across a stall,
/// and ends in EOF. `reads` counts the calls.
struct Wire {
    bytes: Vec<u8>,
    at: usize,
    stalls: Vec<usize>,
    cap: usize,
    reads: usize,
}

impl Wire {
    fn new(bytes: Vec<u8>, mut stalls: Vec<usize>, cap: usize) -> Wire {
        stalls.sort_unstable();
        stalls.dedup();
        Wire {
            bytes,
            at: 0,
            stalls,
            cap,
            reads: 0,
        }
    }
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.stalls.first() == Some(&self.at) {
            self.stalls.remove(0);
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let until = self.stalls.first().copied().unwrap_or(usize::MAX);
        let n = buf
            .len()
            .min(self.cap)
            .min(self.bytes.len() - self.at)
            .min(until - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What a reader did with a connection, to its end: every frame,
/// `buffered()` at every `Pending`, and how it ended.
#[derive(Debug, PartialEq)]
enum Event {
    Frame(Frame),
    Pending(usize),
    Eof,
    Failed(io::ErrorKind),
}

fn run_reference(max_frame: usize, mut wire: Wire) -> Vec<Event> {
    let mut reader = TwoPhase::new(max_frame);
    let mut events = Vec::new();
    loop {
        match reader.poll(&mut wire) {
            Ok(Poll::Frame(f)) => events.push(Event::Frame(f)),
            Ok(Poll::Pending) => events.push(Event::Pending(reader.buffered())),
            Ok(Poll::Drained) => unreachable!("the reference always asks"),
            Ok(Poll::Eof) => events.push(Event::Eof),
            Err(e) => events.push(Event::Failed(e.kind())),
        }
        if matches!(events.last(), Some(Event::Eof | Event::Failed(_))) {
            return events;
        }
    }
}

/// The reader under test. `Drained` is not an event of the connection —
/// the reader chose not to ask (again) — but it is checked here: the
/// poll after one always reads, and `buffered()` never shrinks except
/// by a returned frame.
fn run_buffered(max_frame: usize, mut wire: Wire) -> Vec<Event> {
    let mut reader = FrameReader::new(max_frame);
    let mut events = Vec::new();
    let mut was_drained = false;
    loop {
        let (before, reads) = (reader.buffered(), wire.reads);
        let polled = reader.poll(&mut wire);
        assert_eq!(reader.at_boundary(), reader.buffered() == 0);
        let drained = matches!(polled, Ok(Poll::Drained));
        if was_drained {
            assert!(wire.reads > reads, "the poll after Drained reads");
        }
        match polled {
            Ok(Poll::Frame(f)) => events.push(Event::Frame(f)),
            Ok(Poll::Pending) => {
                assert!(reader.buffered() >= before, "a stall loses nothing");
                events.push(Event::Pending(reader.buffered()));
            }
            Ok(Poll::Drained) => assert!(reader.buffered() >= before),
            Ok(Poll::Eof) => {
                assert_eq!(before, 0, "Eof only at a boundary");
                events.push(Event::Eof);
            }
            Err(e) => events.push(Event::Failed(e.kind())),
        }
        was_drained = drained;
        if matches!(events.last(), Some(Event::Eof | Event::Failed(_))) {
            return events;
        }
    }
}

fn assert_same(max_frame: usize, bytes: &[u8], stalls: &[usize], cap: usize, what: &str) {
    let reference = run_reference(max_frame, Wire::new(bytes.to_vec(), stalls.to_vec(), cap));
    let buffered = run_buffered(max_frame, Wire::new(bytes.to_vec(), stalls.to_vec(), cap));
    assert_eq!(buffered, reference, "{what}: cap {cap}, stalls {stalls:?}");
}

/// `count` frames back to back. Mostly request-sized; now and then —
/// `large` permitting — one that takes more than one read's worth.
fn frames(rng: &mut StdRng, count: usize, large: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..count {
        let len = match rng.random_range(0..40) {
            0 if large => rng.random_range(4_000..70_000),
            1 if large => rng.random_range(4_000..9_000),
            _ => rng.random_range(0..=120),
        };
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        out.extend(frame_bytes(rng.random_range(0..=255u8), &payload, usize::MAX >> 1).unwrap());
    }
    out
}

#[test]
fn arbitrary_frames_under_arbitrary_chunkings_match_the_two_phase_reader() {
    const MAX_FRAME: usize = 100_000;
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xF4A3E ^ seed);
        let count = rng.random_range(0..40);
        let mut bytes = frames(&mut rng, count, true);
        // The connection ends at a boundary, inside a frame, or on a
        // length no reader may accept.
        match seed % 4 {
            0 if !bytes.is_empty() => bytes.truncate(rng.random_range(0..bytes.len())),
            1 => bytes.extend(0u32.to_le_bytes()),
            2 => {
                bytes.extend((MAX_FRAME as u32 + 1).to_le_bytes());
                bytes.extend([7; 9]);
            }
            _ => {}
        }
        let stalls: Vec<usize> = (0..rng.random_range(0..12))
            .map(|_| rng.random_range(0..=bytes.len()))
            .collect();
        // One byte per read only where that is thousands of reads, not
        // millions.
        let smallest = if bytes.len() < 4_000 { 1 } else { 500 };
        for cap in [
            smallest,
            3 * smallest,
            rng.random_range(1..5_000),
            usize::MAX,
        ] {
            assert_same(MAX_FRAME, &bytes, &stalls, cap, "generated");
        }
    }
}

#[test]
fn a_stall_at_every_offset_resumes_at_that_byte() {
    let mut rng = StdRng::seed_from_u64(11);
    let bytes = frames(&mut rng, 5, false);
    for at in 0..=bytes.len() {
        for cap in [1, usize::MAX] {
            assert_same(1 << 20, &bytes, &[at], cap, "one stall");
        }
    }
    // …and at every offset at once: one byte per read, a stall before
    // each.
    let every: Vec<usize> = (0..=bytes.len()).collect();
    assert_same(1 << 20, &bytes, &every, usize::MAX, "all stalls");
}

#[test]
fn the_cap_is_inclusive_and_checked_on_the_header_alone() {
    const CAP: usize = 5_000;
    let exact = frame_bytes(9, &vec![0xAB; CAP - 1], CAP).unwrap();
    assert_same(CAP, &exact, &[], usize::MAX, "body of exactly max_frame");
    assert_same(CAP, &exact, &[], 1, "body of exactly max_frame");

    // One past the cap: refused on the four header bytes, with the
    // connection stalled before any of the body exists to be buffered.
    let header = (CAP as u32 + 1).to_le_bytes().to_vec();
    let mut wire = Wire::new(header, vec![4], usize::MAX);
    let mut reader = FrameReader::new(CAP);
    let err = reader.poll(&mut wire).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert_eq!(wire.reads, 1);
    assert_eq!(reader.buffered(), 4, "nothing was reserved for the body");
}

#[test]
fn a_burst_costs_one_read_and_a_short_read_is_not_followed_by_another() {
    let mut rng = StdRng::seed_from_u64(32);
    let burst = frames(&mut rng, 32, false);
    let len = burst.len();
    // 32 frames have arrived and the connection then goes quiet.
    let mut wire = Wire::new(burst, vec![len], usize::MAX);
    let mut reader = FrameReader::new(1 << 20);
    for i in 0..32 {
        assert!(
            matches!(reader.poll(&mut wire), Ok(Poll::Frame(_))),
            "frame {i}"
        );
        assert_eq!(wire.reads, 1, "frame {i} came out of the buffer");
    }
    assert_eq!(reader.buffered(), 0);
    // The read that brought them came back short: this sweep is over
    // without asking again…
    assert_eq!(reader.poll(&mut wire).unwrap(), Poll::Drained);
    assert_eq!(wire.reads, 1);
    // …and the next sweep asks once.
    assert_eq!(reader.poll(&mut wire).unwrap(), Poll::Pending);
    assert_eq!(wire.reads, 2);
    assert_eq!(reader.poll(&mut wire).unwrap(), Poll::Eof);
    assert_eq!(wire.reads, 3);
}
